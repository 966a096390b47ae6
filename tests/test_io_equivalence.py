"""Differential and memory tests for the block-wise state-file reader and
writer, against frozen reference copies of the line-at-a-time code they
replaced.

The reference functions below are the earlier loaders and writer, kept
verbatim apart from names.  On a seeded corpus of valid and malformed
dense and sparse files every file must give the same exception type and
message, or equal arrays; `dumps` must give byte-identical text; and the
tracemalloc peak of every call may not exceed 1.1x the reference's.
"""

import io as _io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import entcheck.io as state_io
from entcheck import CoeffTensor, gen_product_state, gen_random_state
from entcheck.io import ParseError, _parse_dims

# --- frozen reference implementations ---------------------------------------


def _ref_data_lines(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _ref_parse_headers(lines, allowed):
    headers = {}
    body = []
    for line_no, line in lines:
        key, sep, rest = line.partition(":")
        if sep and key.strip() in allowed and not body:
            headers[key.strip()] = (line_no, rest.strip())
        else:
            body.append((line_no, line))
    return headers, body


def ref_loads_dense(text):
    headers, body = _ref_parse_headers(_ref_data_lines(text), allowed={"dims"})
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


def ref_loads_sparse(text):
    headers, body = _ref_parse_headers(_ref_data_lines(text), allowed={"dims", "base"})
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


def ref_dumps(t, format="dense"):
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


REFERENCE = {"dense": ref_loads_dense, "sparse": ref_loads_sparse}

# --- seeded corpus -------------------------------------------------------------

BAD_TOKENS = ("1_0", "+1", "1.5", "x")
VALUE_TOKENS = ("0", "0.0", "-0.0", "1", "-1", "0.5", "1e-3", "+2", "1_0", "2.5E+1")


def _value_token(rng):
    if rng.random() < 0.5:
        return repr(float(rng.normal()))
    return VALUE_TOKENS[rng.integers(len(VALUE_TOKENS))]


def _dims_header(rng, dims):
    sep = (" ", ",", ", ", "  ")[rng.integers(4)]
    return "dims:" + ("", " ")[rng.integers(2)] + sep.join(map(str, dims))


def _decorate(rng, lines, p_junk):
    """Interleave blank and comment lines, trailing comments and stray
    whitespace, and join with one line ending or a mix of them."""
    out = []
    for line in lines:
        while rng.random() < p_junk:
            out.append(("", "   ", "# comment", "  # dims: 9 9", "\t")[rng.integers(5)])
        if rng.random() < p_junk:
            line += "  # trailing note"
        if rng.random() < p_junk:
            line = " \t" + line + " "
        out.append(line)
    ends = ("\n", "\r\n", "\r")
    if rng.random() < 0.3:
        text = "".join(line + ends[rng.integers(3)] for line in out)
    else:
        text = ends[rng.integers(3)].join(out) + ("", ends[0])[rng.integers(2)]
    return text


def _random_dims(rng):
    r = int(rng.integers(2, 5))
    return tuple(int(d) for d in rng.integers(1, 4, size=r))


def _dense_file(rng):
    dims = _random_dims(rng)
    count = math.prod(dims)
    tokens = [_value_token(rng) for _ in range(2 * count)]
    if rng.random() < 0.1:
        tokens = [("0", "0.0", "-0.0")[rng.integers(3)] for _ in tokens]
    header = [_dims_header(rng, dims)]
    malformed = rng.random() < 0.75
    kind = int(rng.integers(9)) if malformed else -1
    if kind == 0:
        tokens[rng.integers(len(tokens))] = ("x", "1.0.0", "--1", "1,5", "0x10")[rng.integers(5)]
    elif kind == 1:
        del tokens[rng.integers(len(tokens))]
    elif kind == 2:
        tokens.insert(int(rng.integers(len(tokens) + 1)), _value_token(rng))
    elif kind == 3:
        tokens[rng.integers(len(tokens))] = ("inf", "-inf", "nan")[rng.integers(3)]
    elif kind == 4:
        header = []
    elif kind == 5:
        header = [("dims: 2 x", "dims: 3", "dims: 0 2", "dims:", "dims: 2.0 2")[rng.integers(5)]]
    # kinds 6..8 act on the lines below
    lines, k = [], 0
    if rng.random() < 0.5:
        step = 2 * dims[-1]
        lines = ["  ".join(tokens[i : i + step]) for i in range(0, len(tokens), step)]
    else:
        while k < len(tokens):
            n = int(rng.integers(1, 7))
            lines.append(" ".join(tokens[k : k + n]))
            k += n
    if kind == 6 and lines:
        lines.insert(int(rng.integers(1, len(lines) + 1)), _dims_header(rng, dims))
    elif kind == 7:
        lines = []
    elif kind == 8 and lines:
        lines.insert(int(rng.integers(1, len(lines) + 1)), BAD_TOKENS[rng.integers(4)])
    if rng.random() < 0.2:
        header = header + header  # a repeated header is allowed at the top
    return _decorate(rng, header + lines, float(rng.choice([0.0, 0.1, 0.3])))


def _sparse_file(rng, dims=None, records=None):
    dims = dims or _random_dims(rng)
    r = len(dims)
    base = int(rng.integers(2))
    count = math.prod(dims)
    if records is None:
        records = int(rng.integers(rng.random() < 0.9, count + 1))
    picks = rng.permutation(count)[:records]
    rows = []
    for flat in picks:
        index = [int(i) + base for i in np.unravel_index(flat, dims)]
        rows.append([str(i) for i in index] + [_value_token(rng), _value_token(rng)])
    header = [_dims_header(rng, dims)]
    if base or rng.random() < 0.2:
        header.append(f"base: {base}")
    malformed = rng.random() < 0.75
    kind = int(rng.integers(12)) if malformed else -1
    if rows and kind == 0:  # field count
        row = rows[rng.integers(len(rows))]
        row.pop() if rng.random() < 0.5 else row.append("0")
    elif rows and kind == 1:  # index tokens
        row = rows[rng.integers(len(rows))]
        row[rng.integers(r)] = BAD_TOKENS[rng.integers(4)]
    elif rows and kind == 2:  # value tokens
        row = rows[rng.integers(len(rows))]
        row[r + rng.integers(2)] = BAD_TOKENS[rng.integers(4)] + ("", "y")[rng.integers(2)]
    elif rows and kind == 3:  # negative or out-of-range index
        row = rows[rng.integers(len(rows))]
        axis = int(rng.integers(r))
        row[axis] = str((-1, base - 1, dims[axis] + base, dims[axis] + 7, 2**64)[rng.integers(5)])
    elif rows and kind == 4:  # duplicate, possibly with another value
        dup = list(rows[rng.integers(len(rows))])
        dup[r] = _value_token(rng)
        rows.insert(int(rng.integers(len(rows) + 1)), dup)
    elif rows and kind == 5:  # header-like line after the first record
        line = (_dims_header(rng, dims), "base: 1", "base: 0")[rng.integers(3)]
        rows.insert(int(rng.integers(1, len(rows) + 1)), line.split())
    elif kind == 6:
        header = header[1:]
    elif kind == 7:
        header.append(f"base: {('2', 'x', '01', '-1')[rng.integers(4)]}")
    elif kind == 8:  # all-zero body
        rows = [row[:r] + ["0", ("0", "-0.0")[rng.integers(2)]] for row in rows]
    elif rows and kind == 9:
        rows[rng.integers(len(rows))][r] = ("inf", "nan", "-inf")[rng.integers(3)]
    elif kind == 10:
        header = [("dims: 2", "dims: 2 -2", "dims: a b")[rng.integers(3)]] + header[1:]
    lines = [" ".join(row) for row in rows]
    return _decorate(rng, header + lines, float(rng.choice([0.0, 0.1, 0.3])))


def _large_sparse_files(rng):
    """Files of 6000 records: valid, and with a duplicate or a malformed
    record thousands of records after the first block."""
    dims = (64, 96)
    picks = rng.permutation(math.prod(dims))[:6000]
    body = [f"{i} {j}   {rng.normal()!r} 0" for i, j in zip(*np.unravel_index(picks, dims))]
    variants = {"valid": list(body)}
    variants["dup-late"] = body + [body[4200]]
    variants["dup-far"] = body[:5900] + [body[3]] + body[5900:]
    variants["bad-late"] = body[:5500] + [body[5500] + "x"] + body[5501:]
    variants["fields-late"] = body[:4500] + [body[4500] + " 0"] + body[4501:]
    return [("sparse", "dims: 64 96\n" + "\n".join(lines) + "\n") for lines in variants.values()]


def _corpus():
    rng = np.random.default_rng(20240501)
    files = []
    for _ in range(1300):
        files.append(("dense", _dense_file(rng)))
    for _ in range(1300):
        files.append(("sparse", _sparse_file(rng)))
    files += _large_sparse_files(rng)
    # dense values over many lines, several thousand numbers
    t = gen_random_state((2,) * 11, 5)
    dense = ref_dumps(t, "dense")
    files.append(("dense", dense))
    files.append(("dense", dense.replace("  ", "\n")))
    files.append(("dense", dense[: -40] + " x " + dense[-40:]))
    files.append(("sparse", ref_dumps(t, "sparse")))
    return files


CORPUS = _corpus()


def _outcome(load, text):
    try:
        with np.errstate(invalid="ignore"):  # the reference warns on an inf im part
            t = load(text)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return "error", type(exc), str(exc)
    return "ok", t.array


def test_corpus_mixes_valid_and_malformed_files():
    outcomes = [_outcome(REFERENCE[fmt], text)[0] for fmt, text in CORPUS]
    assert len(CORPUS) >= 2000
    assert outcomes.count("ok") >= 400
    assert outcomes.count("error") >= 1000


@pytest.mark.parametrize("chunk", [None, 1, 40])
def test_loads_matches_reference(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(state_io, "_CHUNK", chunk)
    for fmt, text in CORPUS:
        want = _outcome(REFERENCE[fmt], text)
        got = _outcome(lambda s: state_io.loads(s, fmt), text)
        assert got[0] == want[0], (fmt, text, want, got)
        if want[0] == "error":
            assert got[1:] == want[1:], (fmt, text)
        else:
            assert got[1].shape == want[1].shape
            assert np.array_equal(got[1], want[1]), (fmt, text)
            if fmt == "sparse":
                assert np.array_equal(
                    np.signbit(got[1].view(np.float64)), np.signbit(want[1].view(np.float64))
                )


def test_line_breaks_on_chunk_boundaries(monkeypatch):
    ends = ("\n", "\r\n", "\r")
    body = "".join(f"{i} 0   1 0" + ends[i % 3] for i in range(50))
    text = "dims: 50 1\n" + body + "0 0 1 0\n"
    want = _outcome(ref_loads_sparse, text)
    for chunk in range(1, 40):
        monkeypatch.setattr(state_io, "_CHUNK", chunk)
        assert _outcome(lambda s: state_io.loads(s, "sparse"), text)[1:] == want[1:]


def _dump_tensors():
    rng = np.random.default_rng(77)
    for r in range(2, 7):
        for trial in range(4):
            dims = tuple(int(d) for d in rng.integers(1, 5, size=r))
            a = rng.normal(size=dims) + 1j * rng.normal(size=dims)
            a[rng.random(dims) < 0.3] = 0
            a.real[rng.random(dims) < 0.2] = -0.0
            a.imag[rng.random(dims) < 0.2] = 0.0
            a.flat[0] = complex(1e-300, -5e-324) if trial == 3 else a.flat[0] + 1
            yield CoeffTensor(a)
            yield CoeffTensor(np.asfortranarray(a))
            if a.ndim == 2:
                yield CoeffTensor(np.asfortranarray(a).T)


@pytest.mark.parametrize("block, scan", [(None, None), (1, 1), (7, 3)])
@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_dumps_is_byte_identical(monkeypatch, fmt, block, scan):
    if block is not None:
        monkeypatch.setattr(state_io, "_BLOCK", block)
        monkeypatch.setattr(state_io, "_SCAN", scan)
    for t in _dump_tensors():
        assert state_io.dumps(t, fmt) == ref_dumps(t, fmt)


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_round_trip_keeps_signed_zeros(fmt):
    entries = [
        [complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -3.0)],
        [complex(0.0, 0.5), complex(-1.5, 0.0), complex(-0.0, -0.0)],
    ]
    t = CoeffTensor(entries)
    back = state_io.loads(state_io.dumps(t, fmt), fmt)
    bits = np.signbit(back.array.view(np.float64))
    want = np.signbit(t.array.view(np.float64))
    if fmt == "sparse":  # an all-zero entry is not listed and loads as +0
        want[1, 4:] = False
    assert np.array_equal(bits, want)


def test_inf_imaginary_part_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            state_io.loads("dims: 1 2\n1 inf  1 0\n")


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fmt, make",
    [
        ("dense", lambda: gen_product_state((256, 256), 3)),
        ("sparse", lambda: gen_random_state((2,) * 14, 3)),
        ("sparse", lambda: gen_random_state((128, 128), 3)),
    ],
)
def test_peak_memory_within_reference(fmt, make):
    t = make()
    text = ref_dumps(t, fmt)
    assert _peak(state_io.dumps, t, fmt) <= 1.1 * _peak(ref_dumps, t, fmt)
    assert _peak(state_io.loads, text, fmt) <= 1.1 * _peak(REFERENCE[fmt], text)
