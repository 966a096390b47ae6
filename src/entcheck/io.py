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

Lines starting with `#` and blank lines are ignored.  Header lines are
read from the top of the file only: a `dims:` line after the first
record is a malformed record.  Floats are written with `repr` and read
with `float`, and the two halves of each entry are stored as the real
and imaginary doubles without arithmetic, so a dump/load round trip
preserves every double bit-exactly, signed zeros included.

Values are converted a block at a time with numpy: the loaders split
the text `_CHUNK` characters at a time, cutting only at line feeds, and
convert each piece's numbers in one call, and `dumps` formats `_BLOCK`
numbers per call.  The conversion temporaries are bounded by the piece
or block, except that a sparse load keeps a duplicate mask of one byte
per entry, a text without line feeds (bare "\\r" line ends included) is
one piece, and `dumps` holds its text twice, as blocks and joined.  A
piece with any malformed record or number is checked again line by line
from the first body line, so the error reported is always the first
malformed record of the file, with its line number, whatever the block
size.  `repr` (about 1 us a value) and `float` (about 0.3 us) are the
floor of the per-value cost.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .core import CoeffTensor

FORMATS = ("dense", "sparse")

# Largest entry count a `dims:` header (or `entcheck gen --dims`) may ask
# for: 2**26 complex128 entries are 1 GiB.  The sparse loader allocates
# the whole tensor from the header before it reads a single record, so
# the cap is checked first.
MAX_ENTRIES = 2**26

# Numbers formatted per `str.format` call by `dumps`, and entries a
# sparse dump scans for nonzeros per numpy call.
_BLOCK = 1024
_SCAN = 1 << 14
# Characters of text parsed per numpy conversion (extended to the next
# line feed): about 300 sparse records, or 800 dense numbers.
_CHUNK = 1 << 14


class ParseError(ValueError):
    """Malformed state file; message carries the line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _chunks(text, start=0):
    """`text[start:]` in pieces of about `_CHUNK` characters, each ending
    just after a "\\n" (the last one at the end of the text).  No line
    break, "\\r\\n" included, straddles two pieces, so the pieces' lines
    are, in order, the lines of `text[start:].splitlines()`."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(text, start=0, line_no=1):
    """(offset, line number, content) of every line of `text[start:]`
    that is not blank or a comment; `line_no` is the number of the first
    line, `offset` where the line starts in `text`, and `content` the
    line without its comment and outer whitespace."""
    for chunk in _chunks(text, start):
        for raw in chunk.splitlines(keepends=True):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield start, line_no, line
            start += len(raw)
            line_no += 1


def _chunk_rows(chunk):
    """The tokens of each line of `chunk` that is not blank or a comment:
    the lines of `_lines`, split, without the offsets and line numbers
    that would make a sparse load about a fifth slower."""
    if "#" in chunk:
        return [row for raw in chunk.splitlines() if (row := raw.split("#", 1)[0].split())]
    return [row for row in map(str.split, chunk.splitlines()) if row]


def _split_headers(text, allowed):
    """Headers from the top of the file, and where the body starts as
    (offset, line number): at the first data line that is not an
    allowed header, or at the end of the text (whose line number is
    never read)."""
    headers = {}
    for start, line_no, line in _lines(text):
        key, sep, rest = line.partition(":")
        if not (sep and key.strip() in allowed):
            return headers, (start, line_no)
        headers[key.strip()] = (line_no, rest.strip())
    return headers, (len(text), 0)


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
    headers, body = _split_headers(text, allowed={"dims"})
    dims = _parse_dims(headers)
    size = 2 * math.prod(dims)
    flat = np.empty(size)
    n = 0
    for chunk in _chunks(text, body[0]):
        # every line break is whitespace to str.split
        tokens = chunk.split() if "#" not in chunk else list(chain(*_chunk_rows(chunk)))
        try:
            values = np.fromiter(map(float, tokens), np.float64, len(tokens))
        except ValueError:
            _check_numbers(text, body)
        # past `size` the numbers are only counted, for the error below
        if n + len(values) <= size:
            flat[n : n + len(values)] = values
        n += len(values)
    if n != size:
        raise ParseError(0, f"expected {size} numbers for dims {dims}, got {n}")
    if not flat.any():
        raise ParseError(0, "the zero tensor does not describe a state")
    return CoeffTensor(flat.view(complex).reshape(dims))


def _check_numbers(text, body):
    """Raise the error of the first bad number of a dense body."""
    for _, line_no, line in _lines(text, *body):
        for field_no, tok in enumerate(line.split(), start=1):
            try:
                float(tok)
            except ValueError:
                raise ParseError(line_no, f"field {field_no}: bad number {tok!r}") from None
    raise AssertionError("a dense chunk failed to convert but every number checks out")


def _loads_sparse(text):
    headers, body = _split_headers(text, allowed={"dims", "base"})
    dims = _parse_dims(headers)
    base = 0
    if "base" in headers:
        line_no, tok = headers["base"]
        if tok not in ("0", "1"):
            raise ParseError(line_no, f"base must be 0 or 1, got {tok!r}")
        base = int(tok)
    entries = _sparse_entries(text, body, dims, base)
    if not entries.any():
        raise ParseError(0, "the zero tensor does not describe a state")
    return CoeffTensor(entries.reshape(dims))


def _sparse_entries(text, body, dims, base):
    """The flat entry array of a sparse body, converted a chunk at a time."""
    entries = np.zeros(math.prod(dims), dtype=complex)
    seen = np.zeros(entries.size, dtype=bool)
    for chunk in _chunks(text, body[0]):
        converted = _convert_records(_chunk_rows(chunk), dims, base, seen)
        if converted is None:
            _check_records(text, body, dims, base)
        flat, values = converted
        entries[flat] = values
    return entries


def _convert_records(rows, dims, base, seen):
    """Flat indices and values of tokenized sparse records, marked in
    `seen`; None if any record is malformed, out of range or a duplicate
    of one seen before."""
    r = len(dims)
    if any(len(row) != r + 2 for row in rows):
        return None
    try:
        index = np.fromiter(
            map(int, chain.from_iterable(row[:r] for row in rows)), np.int64, r * len(rows)
        )
        values = np.fromiter(
            map(float, chain.from_iterable(row[r:] for row in rows)), np.float64, 2 * len(rows)
        )
    except (ValueError, OverflowError):
        return None
    index = index.reshape(-1, r) - base
    if (index < 0).any() or (index >= dims).any():
        return None
    flat = np.ravel_multi_index(index.T, dims)
    order = np.sort(flat)
    if seen[flat].any() or (order[1:] == order[:-1]).any():
        return None
    seen[flat] = True
    return flat, values.view(complex)


def _check_records(text, body, dims, base):
    """Raise the error of the first malformed record of a sparse body."""
    r = len(dims)
    seen = set()
    for _, line_no, line in _lines(text, *body):
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
            float(tokens[r]), float(tokens[r + 1])
        except ValueError:
            raise ParseError(line_no, f"bad value fields {tokens[r:]}") from None
    raise AssertionError("a sparse chunk failed to convert but every record checks out")


def load_state(path, format: str = "dense") -> CoeffTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), format)


def dumps(t: CoeffTensor, format: str = "dense") -> str:
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    entries = np.ascontiguousarray(t.array).reshape(-1)
    parts = ["dims: " + " ".join(str(d) for d in t.dims) + "\n"]
    if format == "dense":
        last_axis = t.dims[-1]
        floats = entries.view(np.float64).reshape(-1, 2 * last_axis)
        row = "  ".join(["{!r} {!r}"] * last_axis) + "\n"
        step = max(1, _BLOCK // (2 * last_axis))
        for start in range(0, len(floats), step):
            block = floats[start : start + step]
            parts.append((row * len(block)).format(*block.ravel().tolist()))
    else:
        r = t.party_count
        record = " ".join(["{}"] * r) + "   {!r} {!r}\n"
        step = max(1, _BLOCK // (r + 2))
        for start in range(0, entries.size, _SCAN):
            nonzero = np.flatnonzero(entries[start : start + _SCAN]) + start
            for i in range(0, nonzero.size, step):
                flat = nonzero[i : i + step]
                # the cast to object gives Python ints and floats
                fields = np.empty((flat.size, r + 2), dtype=object)
                fields[:, :r] = np.column_stack(np.unravel_index(flat, t.dims))
                fields[:, r:] = entries[flat].view(np.float64).reshape(-1, 2)
                parts.append((record * flat.size).format(*fields.ravel().tolist()))
    return "".join(parts)


def save_state(t: CoeffTensor, path, format: str = "dense"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(t, format))
