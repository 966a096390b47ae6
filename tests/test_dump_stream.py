"""Dumps to a file are written a block at a time.

`save_state`, `dumps` with a stream and `entcheck gen` write the text of
`dumps` as it is formatted, so the whole text is never held at once.
"""

import io
import tracemalloc

import pytest

from entcheck import dumps, gen_product_state, gen_random_state, save_state
from entcheck.cli import main


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
@pytest.mark.parametrize("dims", [(2, 3), (64, 64), (2,) * 10, (3, 1, 5)])
def test_file_bytes_equal_dumps(tmp_path, fmt, dims):
    t = gen_random_state(dims, 4)
    path = tmp_path / "s.txt"
    save_state(t, path, fmt)
    assert path.read_bytes() == dumps(t, fmt).encode("utf-8")
    stream = io.StringIO()
    assert dumps(t, fmt, stream) is None
    assert stream.getvalue() == dumps(t, fmt)


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_gen_output_and_stdout_equal_dumps(tmp_path, capsys, fmt):
    out = tmp_path / "g.txt"
    argv = ["gen", "--product", "--dims", "4,3,2", "--seed", "5", "--out-format", fmt]
    assert main(argv + ["--output", str(out)]) == 0
    assert main(argv) == 0
    expected = dumps(gen_product_state((4, 3, 2), 5), fmt)
    assert out.read_text(encoding="utf-8") == expected
    assert capsys.readouterr().out == expected


def test_save_state_peak_is_a_fraction_of_the_text(tmp_path):
    t = gen_random_state((256, 256), 7)
    text_length = len(dumps(t))
    tracemalloc.start()
    try:
        save_state(t, tmp_path / "s.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * text_length


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        dumps(gen_product_state((2, 2), 1), "csv", io.StringIO())
