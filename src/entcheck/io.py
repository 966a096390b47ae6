"""State file formats.

Two UTF-8 text formats, both with a `dims:` header and complex values as
separate re/im decimal fields (no "3+4i" parsing):

dense  -- all entries in row-major order, 2 numbers per entry::

       dims: 2 2
       1 0   -1 0
       -1 0   1 0

sparse -- one record per nonzero entry: r indices then re im.  Indices
       are zero-based unless a `base: 1` header converts textbook-style
       one-based indices on load.  Unlisted entries are zero::

       dims: 2 2 2
       0 0 0   1 0
       1 1 1   1 0

Lines starting with `#` and blank lines are ignored.  Floats are written
with `repr`, so a dump/load round trip preserves every double bit-exactly.
"""

from __future__ import annotations

import io as _io
import math

import numpy as np

from .core import CoeffTensor

FORMATS = ("dense", "sparse")

# Largest entry count a `dims:` header (or `entcheck gen --dims`) may ask
# for: 2**26 complex128 entries are 1 GiB.  The sparse loader allocates
# the whole tensor from the header before it reads a single record, so
# the cap is checked first.
MAX_ENTRIES = 2**26


class ParseError(ValueError):
    """Malformed state file; message carries the line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _data_lines(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _parse_headers(lines, allowed):
    headers = {}
    body = []
    for line_no, line in lines:
        key, sep, rest = line.partition(":")
        if sep and key.strip() in allowed and not body:
            headers[key.strip()] = (line_no, rest.strip())
        else:
            body.append((line_no, line))
    return headers, body


def _parse_dims(headers):
    if "dims" not in headers:
        raise ParseError(0, "missing 'dims:' header")
    line_no, text = headers["dims"]
    try:
        dims = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ParseError(line_no, f"bad dims {text!r}") from None
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ParseError(line_no, f"dims must be >= 2 positive integers, got {dims}")
    if math.prod(dims) > MAX_ENTRIES:
        raise ParseError(line_no, too_many_entries(dims))
    return dims


def too_many_entries(dims) -> str:
    return f"dims {dims} ask for {math.prod(dims)} entries, above the cap of {MAX_ENTRIES}"


def loads(text: str, format: str = "dense") -> CoeffTensor:
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "dense":
        return _loads_dense(text)
    return _loads_sparse(text)


def _loads_dense(text):
    headers, body = _parse_headers(_data_lines(text), allowed={"dims"})
    dims = _parse_dims(headers)
    count = int(np.prod(dims))
    values = []
    for line_no, line in body:
        for field_no, tok in enumerate(line.split(), start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(line_no, f"field {field_no}: bad number {tok!r}") from None
    if len(values) != 2 * count:
        raise ParseError(0, f"expected {2 * count} numbers for dims {dims}, got {len(values)}")
    flat = np.array(values[0::2]) + 1j * np.array(values[1::2])
    if not flat.any():
        raise ParseError(0, "the zero tensor does not describe a state")
    return CoeffTensor(flat.reshape(dims))


def _loads_sparse(text):
    headers, body = _parse_headers(_data_lines(text), allowed={"dims", "base"})
    dims = _parse_dims(headers)
    base = 0
    if "base" in headers:
        line_no, tok = headers["base"]
        if tok not in ("0", "1"):
            raise ParseError(line_no, f"base must be 0 or 1, got {tok!r}")
        base = int(tok)
    r = len(dims)
    entries = np.zeros(dims, dtype=complex)
    seen = set()
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != r + 2:
            raise ParseError(
                line_no, f"expected {r} indices plus re im, got {len(tokens)} fields"
            )
        try:
            index = tuple(int(tok) - base for tok in tokens[:r])
        except ValueError:
            raise ParseError(line_no, f"bad index in {tokens[:r]}") from None
        for axis, (j, d) in enumerate(zip(index, dims)):
            if not 0 <= j < d:
                raise ParseError(
                    line_no, f"index {j + base} out of range for party {axis + 1} (dim {d})"
                )
        if index in seen:
            raise ParseError(line_no, f"duplicate entry for index {index}")
        seen.add(index)
        try:
            re, im = float(tokens[r]), float(tokens[r + 1])
        except ValueError:
            raise ParseError(line_no, f"bad value fields {tokens[r:]}") from None
        entries[index] = complex(re, im)
    if not entries.any():
        raise ParseError(0, "the zero tensor does not describe a state")
    return CoeffTensor(entries)


def load_state(path, format: str = "dense") -> CoeffTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), format)


def dumps(t: CoeffTensor, format: str = "dense") -> str:
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    out = _io.StringIO()
    out.write("dims: " + " ".join(str(d) for d in t.dims) + "\n")
    if format == "dense":
        last_axis = t.dims[-1]
        flat = t.array.reshape(-1, last_axis)
        for row in flat:
            out.write("  ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n")
    else:
        for index in np.ndindex(*t.dims):
            z = t.array[index]
            if z != 0:
                out.write(
                    " ".join(str(i) for i in index)
                    + f"   {float(z.real)!r} {float(z.imag)!r}\n"
                )
    return out.getvalue()


def save_state(t: CoeffTensor, path, format: str = "dense"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(t, format))
