"""Entry-count cap: a `dims:` header or `gen --dims` above MAX_ENTRIES is
refused with exit code 2 before anything is allocated."""

import math

import pytest

from entcheck import io as state_io
from entcheck.cli import main
from entcheck.io import MAX_ENTRIES, ParseError, loads

# 2**48 entries: 4 PiB of complex128, more than any address space holds
HUGE = (2**24, 2**24)


@pytest.mark.parametrize("fmt", state_io.FORMATS)
def test_loader_refuses_header_over_cap(fmt):
    with pytest.raises(ParseError, match="above the cap"):
        loads(f"dims: {HUGE[0]} {HUGE[1]}\n0 0   1 0\n", fmt)


def test_cap_is_inclusive():
    at_cap = {"dims": (1, "8192 8192")}
    over_cap = {"dims": (1, "8192 8193")}
    assert math.prod(state_io._parse_dims(at_cap)) == MAX_ENTRIES
    with pytest.raises(ParseError, match="line 1: .*above the cap"):
        state_io._parse_dims(over_cap)


def test_cap_uses_exact_integer_product():
    # np.prod of these wraps around int64 to 0; the exact product does not
    dims = " ".join(["65536"] * 4)
    with pytest.raises(ParseError, match="above the cap"):
        loads(f"dims: {dims}\n0 0 0 0   1 0\n", "sparse")


def test_cli_analyze_sparse_header_over_cap_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(f"dims: {HUGE[0]} {HUGE[1]}\n0 0   1 0\n")
    assert main(["analyze", "--input", str(path), "--format", "sparse"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "above the cap" in captured.err


def test_cli_gen_over_cap_exits_two(tmp_path, capsys):
    out = tmp_path / "never.txt"
    dims = f"{HUGE[0]},{HUGE[1]}"
    assert main(["gen", "--random", "--dims", dims, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "above the cap" in captured.err
    assert not out.exists()
