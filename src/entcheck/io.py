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

One loader, `loads`, reads both: it checks the format, skips one
leading byte-order mark (U+FEFF), splits the headers the format allows,
hands the body to the format's converter (`_dense_entries`,
`_sparse_entries`), rejects the zero tensor and adopts the filled array
without a copy.  `load_state` skips the mark's three bytes before it
decodes the file as UTF-8: a str holding U+FEFF takes 2 bytes per
character, so the mark left in would double the text's memory, and the
"utf-8-sig" codec would decode a copy of the bytes.  `loads` skips the
mark by offset, not by slicing, which would copy the text.
Lines starting with `#` and blank lines are ignored.
Header lines are read from the top of the file only: a `dims:` line
after the first record is a malformed record.  Floats are written with
`repr` and read with `float`, and the two halves of each entry are
stored as the real and imaginary doubles without arithmetic, so a
dump/load round trip preserves every double bit-exactly, signed zeros
included.

Values are converted a block at a time with numpy: the loader splits
the text `_CHUNK` characters at a time, cutting only at line feeds, and
converts each piece's numbers in one call, and `dumps` formats `_BLOCK`
numbers per call.  The conversion temporaries are bounded by the piece
or block, except that a sparse load keeps a duplicate mask of one byte
per entry, a text without line feeds (bare "\\r" line ends included) is
one piece, and `dumps` returning a string holds its text twice, as
blocks and joined.  `save_state` and `dumps` into a stream write each
block as it is formatted.  A piece with any malformed record or number
is checked again line by line from the first body line, so the error
reported is always the first malformed record of the file, with its
line number, whatever the block size.

A sparse piece takes a byte pass when it is plain: ASCII, no "#", "\\n"
its only line break (spaces and tabs between fields), and every record
line r indices of ASCII digits no wider than the largest index in range
plus two value fields, none out of range or a duplicate.  The pass finds
the field bounds in numpy, parses the indices a digit column at a time
and calls `float` only on the value fields.  Any other piece is split
into tokens line by line, by the walk `_lines` that also finds the
headers and the first malformed record, and converted with `int` and
`float`.  `dumps` writes a sparse record's indices from joint label
tables of runs of consecutive parties, each table at most about twice
the square root of the entry count.  `repr` (about 1 us a value) and
`float` (about 0.3 us) on the values remain the floor of the per-value
cost.
"""

from __future__ import annotations

import codecs
import contextlib
import math
import os
import stat
from itertools import chain, product
from typing import Optional

import numpy as np

from .core import CoeffTensor

FORMATS = ("dense", "sparse")

# Largest entry count `parse_dims` takes, for a `dims:` header or
# `entcheck gen --dims`: 2**26 complex128 entries are 1 GiB.  The sparse
# loader allocates the whole tensor from the header before it reads a
# single record, so the cap is checked first.
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


def _split_headers(text, allowed):
    """Headers from the top of the file, after one leading byte-order
    mark, and where the body starts as (offset, line number): at the
    first data line that is not an allowed header, or at the end of the
    text (whose line number is never read)."""
    headers = {}
    # the mark is skipped by offset: slicing it off would copy the text
    for start, line_no, line in _lines(text, int(text.startswith("\ufeff"))):
        key, sep, rest = line.partition(":")
        if not (sep and key.strip() in allowed):
            return headers, (start, line_no)
        headers[key.strip()] = (line_no, rest.strip())
    return headers, (len(text), 0)


def parse_dims(text: str) -> tuple:
    """The dimensions in `text`, separated by commas, spaces or both: at
    least two, each at least 1, and at most `MAX_ENTRIES` entries in all.
    ValueError otherwise.  The rule of `dims:` headers and of
    `entcheck gen --dims`."""
    try:
        dims = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"bad dims {text!r}") from None
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"dims must be >= 2 positive integers, got {dims}")
    if math.prod(dims) > MAX_ENTRIES:
        raise ValueError(
            f"dims {dims} ask for {math.prod(dims)} entries, above the cap of {MAX_ENTRIES}"
        )
    return dims


def _parse_dims(headers):
    if "dims" not in headers:
        raise ParseError(0, "missing 'dims:' header")
    line_no, text = headers["dims"]
    try:
        return parse_dims(text)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def loads(text: str, format: str = "dense") -> CoeffTensor:
    """The tensor in `text`, a state file's contents in `format`."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    headers, body = _split_headers(text, {"dims"} if format == "dense" else {"dims", "base"})
    dims = _parse_dims(headers)
    if format == "dense":
        entries = _dense_entries(text, body, dims)
    else:
        entries = _sparse_entries(text, body, dims, _parse_base(headers))
    if not entries.any():
        raise ParseError(0, "the zero tensor does not describe a state")
    return CoeffTensor._adopt(entries.reshape(dims))


def _dense_entries(text, body, dims):
    """The flat entry array of a dense body, converted a chunk at a time."""
    size = 2 * math.prod(dims)
    flat = np.empty(size)
    n = 0
    for chunk in _chunks(text, body[0]):
        # every line break is whitespace to str.split
        tokens = (chunk if "#" not in chunk else " ".join(line for _, _, line in _lines(chunk))).split()
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
    return flat.view(complex)


def _check_numbers(text, body):
    """Raise the error of the first bad number of a dense body."""
    for _, line_no, line in _lines(text, *body):
        for field_no, tok in enumerate(line.split(), start=1):
            try:
                float(tok)
            except ValueError:
                raise ParseError(line_no, f"field {field_no}: bad number {tok!r}") from None
    raise AssertionError("a dense chunk failed to convert but every number checks out")


def _parse_base(headers):
    """The index base of a sparse file: 0, or 1 from a `base: 1` header."""
    line_no, tok = headers.get("base", (0, "0"))
    if tok not in ("0", "1"):
        raise ParseError(line_no, f"base must be 0 or 1, got {tok!r}")
    return int(tok)


def _sparse_entries(text, body, dims, base):
    """The flat entry array of a sparse body, converted a chunk at a time:
    by the byte pass where it applies, else from the chunk's tokens."""
    entries = np.zeros(math.prod(dims), dtype=complex)
    seen = np.zeros(entries.size, dtype=bool)
    # digits of the largest index in range
    width = len(str(max(dims) - 1 + base))
    for chunk in _chunks(text, body[0]):
        converted = _byte_records(chunk, dims, base, width, seen)
        if converted is None:
            converted = _convert_records([line.split() for _, _, line in _lines(chunk)], dims, base, seen)
        if converted is None:
            _check_records(text, body, dims, base)
        flat, values = converted
        entries[flat] = values
    return entries


def _byte_records(chunk, dims, base, width, seen):
    """`_convert_records` of a chunk in one numpy pass over its bytes, or
    None if the chunk is not plain: ASCII without "#", "\\n" the only line
    break, every record line r indices of at most `width` ASCII digits
    plus two value fields.  Only the value fields go through `float`.
    Per-byte temporaries are bool or uint8; integer arrays are per token."""
    if "#" in chunk or not chunk.isascii():
        return None
    r = len(dims)
    b = np.frombuffer(chunk.encode("ascii"), np.uint8)
    ctrl = np.flatnonzero(b < 32)
    newline = b[ctrl] == 10
    if not (newline | (b[ctrl] == 9)).all():  # only "\n" and tabs
        return None
    line_ends = ctrl[newline]
    # token bounds: where the separator mask, padded with separators, flips
    sep = np.ones(b.size + 2, dtype=bool)
    np.less_equal(b, 32, out=sep[1:-1])
    bounds = np.flatnonzero(sep[1:] != sep[:-1])
    if bounds.size % (2 * (r + 2)):
        return None
    bounds = bounds.reshape(-1, r + 2, 2)  # record, field, (start, end)
    # r + 2 fields a line: each record's first and last field on one line,
    # and the next record on a later line
    first, last = np.searchsorted(line_ends, bounds[:, [0, -1], 0]).T
    if (first != last).any() or (first[1:] <= last[:-1]).any():
        return None
    starts, ends = bounds[:, :r, 0], bounds[:, :r, 1]
    digits = ends - starts
    if digits.max(initial=0) > width:
        return None
    # decimal digits, one column at a time, the k-th from the right
    # counting as a leading zero in an index of k digits or fewer
    index = np.zeros(starts.shape, dtype=np.int64)
    for k in reversed(range(width)):
        digit = b[ends - 1 - k] - np.uint8(48)  # non-digits wrap above 9
        digit[digits <= k] = 0
        if (digit > 9).any():
            return None
        index *= 10
        index += digit
    # the bytes of each record's value fields and the separator after them
    in_values = np.zeros(b.size + 2, dtype=bool)
    in_values[bounds[:, r, 0]] = True
    in_values[bounds[:, -1, 1] + 1] = True
    np.logical_xor.accumulate(in_values, out=in_values)
    tokens = b[in_values[: b.size]].tobytes().split()
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None
    return _mark_records(index, values, dims, base, seen)


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
    return _mark_records(index, values, dims, base, seen)


def _mark_records(index, values, dims, base, seen):
    """Flat indices and complex values of records given as r indices each
    and re, im pairs, marked in `seen`; None if any index is out of range
    or a duplicate of one seen before."""
    index = index.reshape(-1, len(dims)) - base
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
    # a leading byte-order mark, as some editors write one, is read off as
    # bytes: a decoded U+FEFF would make the str take 2 bytes a character,
    # and "utf-8-sig" decodes a copy of the bytes after it.  `peek`, not
    # `seek`, so pipes work; a mark a pipe delivers in part is decoded,
    # and `loads` skips it
    with open(path, "r", encoding="utf-8") as fh:
        if fh.buffer.peek(3)[:3] == codecs.BOM_UTF8:
            fh.buffer.read(3)
        return loads(fh.read(), format)


def dumps(t: CoeffTensor, format: str = "dense", file=None) -> Optional[str]:
    """The text of `t` in `format`.  With `file`, a text stream, the text
    goes to it a block at a time as it is formatted and None is
    returned, so the whole text is never held at once."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    blocks = _dump_blocks(t, format)
    if file is None:
        return "".join(blocks)
    file.writelines(blocks)
    return None


def _dump_blocks(t: CoeffTensor, format: str):
    """The text of `dumps`, in pieces of about `_BLOCK` numbers."""
    entries = np.ascontiguousarray(t.array).reshape(-1)
    yield "dims: " + " ".join(str(d) for d in t.dims) + "\n"
    if format == "dense":
        last_axis = t.dims[-1]
        floats = entries.view(np.float64).reshape(-1, 2 * last_axis)
        row = "  ".join(["{!r} {!r}"] * last_axis) + "\n"
        step = max(1, _BLOCK // (2 * last_axis))
        for start in range(0, len(floats), step):
            block = floats[start : start + step]
            yield (row * len(block)).format(*block.ravel().tolist())
    else:
        groups = _label_groups(t.dims)
        g = len(groups)
        record = " ".join(["{}"] * g) + "   {!r} {!r}\n"
        step = max(1, _BLOCK // (g + 2))
        for start in range(0, entries.size, _SCAN):
            nonzero = np.flatnonzero(entries[start : start + _SCAN]) + start
            for i in range(0, nonzero.size, step):
                flat = nonzero[i : i + step]
                # the cast to object gives Python ints and floats
                fields = np.empty((flat.size, g + 2), dtype=object)
                for k, (stride, size, labels) in enumerate(groups):
                    part = flat // stride % size
                    fields[:, k] = part if labels is None else labels[part]
                fields[:, g:] = entries[flat].view(np.float64).reshape(-1, 2)
                yield (record * flat.size).format(*fields.ravel().tolist())


def _label_groups(dims):
    """(stride, size, labels) of each run of consecutive parties whose
    joint index is written through one label table: `labels[j]` is the
    text of the run's indices at joint index j.  A run is as long as its
    table stays within about twice the square root of the entry count;
    a single party larger than that gets no table (labels None) and its
    index is formatted as an int."""
    cap = 2 * math.isqrt(math.prod(dims))
    runs = []
    for d in dims:
        if runs and math.prod(runs[-1]) * d <= cap:
            runs[-1].append(d)
        else:
            runs.append([d])
    groups = []
    stride = math.prod(dims)
    for run in runs:
        size = math.prod(run)
        stride //= size
        labels = None
        if size <= cap:
            text = [" ".join(map(str, ix)) for ix in product(*map(range, run))]
            labels = np.array(text, dtype=object)
        groups.append((stride, size, labels))
    return groups


def save_state(t: CoeffTensor, path, format: str = "dense"):
    """Write `t` to the file `path` in `format`.

    A missing path or a regular file is replaced only once the text is
    complete: the text goes to a temporary file in the same directory,
    with the mode a plain `open(path, "w")` would give, and that file is
    renamed over `path`.  On any failure the temporary file is removed
    and `path` is left as it was.  Anything else (a symlink, a FIFO or a
    device such as /dev/stdout) is opened and written in place."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="utf-8") as fh:
            dumps(t, format, fh)
        return
    # a plain open(path, "w") keeps an existing file's mode, and "x" gives
    # a new file the mode "w" would
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if st is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            dumps(t, format, fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
