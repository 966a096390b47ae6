"""One loader for both text formats, and the byte-order mark in it.

`loads` checks the format, skips one leading U+FEFF, splits the headers
and hands the body to the format's converter.  So a text with the mark
loads to the array of the same text without it, and a malformed text
reports the same message and line number with or without it.  The mark
is skipped by offset: the text is never sliced whole, which would copy
it.  `load_state` strips the mark while decoding ("utf-8-sig"): a str
that holds U+FEFF takes 2 bytes a character, so decoding the mark into
the text would double the text's memory.
"""

import tracemalloc

import numpy as np
import pytest
from test_byte_order_mark import FILES

from entcheck import dumps, gen_random_state, load_state, loads
from entcheck.io import ParseError

MARK = "\ufeff"


def _peak(call, *args):
    """(result, traced peak in bytes) of call(*args)."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize(
    "fmt, text", [(f, t) for f, t, _ in FILES], ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(FILES)]
)
def test_a_leading_mark_loads_like_the_text_without_it(fmt, text):
    text = text.decode("utf-8")
    want = loads(text, fmt).array
    got = loads(MARK + text, fmt).array
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


MALFORMED = [
    ("dense", "dims: 2 2\n1 0  2 0\n2 0  4 x\n", "line 3: field 4: bad number 'x'"),
    ("sparse", "dims: 2 2\n0 0  1 0\n0 0  1 0\n", "line 3: duplicate entry for index (0, 0)"),
]


@pytest.mark.parametrize("fmt, text, message", MALFORMED, ids=["dense", "sparse"])
def test_a_leading_mark_keeps_the_error_and_its_line(fmt, text, message):
    for marked in (text, MARK + text):
        with pytest.raises(ParseError) as info:
            loads(marked, fmt)
        assert str(info.value) == message
        assert info.value.line_no == 3


@pytest.fixture(scope="module")
def dense_text():
    return dumps(gen_random_state((256, 256), 7))


def test_loads_skips_the_mark_without_copying_the_text(dense_text):
    marked = MARK + dense_text
    plain, plain_peak = _peak(loads, dense_text)
    got, marked_peak = _peak(loads, marked)
    assert np.array_equal(got.array.view(np.uint64), plain.array.view(np.uint64))
    # slicing the mark off would copy the 2.7 MB text
    assert marked_peak <= plain_peak + 64 * 1024, (plain_peak, marked_peak)


def test_load_state_decodes_a_marked_file_to_narrow_text(tmp_path, dense_text):
    data = dense_text.encode("utf-8")
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(data)
    marked.write_bytes(MARK.encode("utf-8") + data)
    want, plain_peak = _peak(load_state, plain)
    got, marked_peak = _peak(load_state, marked)
    assert np.array_equal(got.array.view(np.uint64), want.array.view(np.uint64))
    # decoding to a str that keeps U+FEFF adds about twice the file
    assert marked_peak <= plain_peak + 1.2 * len(data), (plain_peak, marked_peak, len(data))
