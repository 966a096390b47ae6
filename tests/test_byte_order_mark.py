"""A UTF-8 state file that starts with a byte-order mark loads.

Some editors write EF BB BF at the top of a UTF-8 file.  `load_state`
skips it, so a dense or sparse file with the mark loads to the array of
the same file without it, and `entcheck analyze` exits as it does on the
plain file: 0 for a product, 1 for an entangled state.
"""

import numpy as np
import pytest

from entcheck import load_state
from entcheck.cli import main

BOM = b"\xef\xbb\xbf"
FILES = [
    ("dense", b"dims: 2 2\n1 0  2 0\n2 0  4 0\n", 0),
    ("dense", b"# a comment\ndims: 2 2\n1 0  0 0\n0 0  1 0\n", 1),
    ("sparse", b"dims: 2 2\n0 0  1 0\n1 1  1 0\n", 1),
    ("sparse", b"dims: 2 2\r\nbase: 1\r\n1 1  1 0\r\n1 2  0 -1\r\n", 0),
]


@pytest.mark.parametrize("fmt, text, code", FILES, ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(FILES)])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, fmt, text, code):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text)
    marked.write_bytes(BOM + text)
    want = load_state(plain, fmt).array
    got = load_state(marked, fmt).array
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    args = ["--format", fmt] if fmt == "sparse" else []
    assert main(["analyze", "--input", str(plain), *args]) == code
    assert main(["analyze", "--input", str(marked), *args]) == code


def test_a_mark_inside_the_text_is_still_malformed(tmp_path):
    path = tmp_path / "late.txt"
    path.write_bytes(b"dims: 2 2\n" + BOM + b"1 0  2 0\n2 0  4 0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_state(path)
