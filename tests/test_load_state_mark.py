"""`load_state` skips a leading byte-order mark as bytes, before decoding.

A decoded U+FEFF would make the text a str of 2 bytes per character, and
the "utf-8-sig" codec decodes a copy of the bytes after the mark, so
either way a marked file would peak about one file size above the same
file without the mark.  The mark is found with `peek`, not `seek`, so a
marked file still loads through a pipe or a FIFO.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from entcheck import dumps, gen_random_state, load_state, loads
from entcheck.cli import main

MARK = b"\xef\xbb\xbf"
PRODUCT = b"dims: 2 2\n1 0  2 0\n2 0  4 0\n"


def _peak(call, *args):
    """(result, traced peak in bytes) of call(*args)."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_marked_file_loads_in_the_memory_of_the_plain_file(tmp_path):
    data = dumps(gen_random_state((256, 256), 7)).encode("utf-8")
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(data)
    marked.write_bytes(MARK + data)
    want, plain_peak = _peak(load_state, plain)
    got, marked_peak = _peak(load_state, marked)
    assert np.array_equal(got.array.view(np.uint64), want.array.view(np.uint64))
    assert marked_peak <= plain_peak + 64 * 1024, (plain_peak, marked_peak, len(data))


def _through_fifo(path, chunks, call):
    """call(path) on a new FIFO that a writer thread fills with `chunks`."""
    os.mkfifo(path)

    def write():
        with open(path, "wb", buffering=0) as fh:
            for chunk in chunks:
                fh.write(chunk)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return call(str(path))
    finally:
        writer.join(10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize(
    "chunks", [[MARK + PRODUCT], [MARK[:1], MARK[1:] + PRODUCT], [PRODUCT]], ids=["marked", "split-mark", "plain"]
)
def test_a_file_loads_through_a_fifo(tmp_path, chunks):
    # a mark split over two writes may reach `peek` in part; it is then
    # decoded, and `loads` skips the U+FEFF, so the state is the same
    got = _through_fifo(tmp_path / "load.fifo", chunks, load_state)
    want = loads(PRODUCT.decode("utf-8"))
    assert np.array_equal(got.array.view(np.uint64), want.array.view(np.uint64))
    assert _through_fifo(tmp_path / "cli.fifo", chunks, lambda path: main(["analyze", "--input", path])) == 0
