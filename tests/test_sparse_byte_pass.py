"""The sparse loader's byte pass and the sparse writer's label tables,
against the frozen line-at-a-time reference of `test_io_equivalence`.

A plain chunk (ASCII, no "#", "\\n" line ends, r digit indices plus two
value fields a line) is converted in one numpy pass over its bytes; any
other chunk goes through the token path.  Either way every file must
give the reference's array, or its exception type and message, at any
chunk size.  The writer formats each record's indices from joint label
tables of runs of parties and must give the reference's bytes, without
a table anywhere near the tensor's size.
"""

import math
import tracemalloc

import numpy as np
import pytest
from test_io_equivalence import _outcome, ref_dumps, ref_loads_sparse

import entcheck.io as state_io
from entcheck import CoeffTensor

# --- files ----------------------------------------------------------------------


def _sparse_tensor(rng, dims, records=None):
    """Complex entries with signed zeros; all but `records` entries zero."""
    a = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    a.real[rng.random(dims) < 0.1] = -0.0
    if records is not None:
        keep = np.zeros(a.size, dtype=bool)
        keep[rng.permutation(a.size)[:records]] = True
        a[~keep.reshape(dims)] = 0
    return CoeffTensor(a)


def _with_index(line, axis, token):
    fields = line.split()
    fields[axis] = token
    return " ".join(fields)


def _variants(text):
    """(name, text) of edits of a valid sparse text that keep it valid
    or break it, each of which a chunk can meet."""
    header, *lines = text.splitlines()
    n = len(lines)
    body = "\n".join(lines) + "\n"
    one_based = [" ".join(str(int(tok) + 1) for tok in line.split()[:-2]) + "   "
                 + " ".join(line.split()[-2:]) for line in lines]
    yield "plain", text
    yield "no final line feed", text[:-1]
    yield "base 1", header + "\nbase: 1\n" + "\n".join(one_based) + "\n"
    yield "base 1 with a zero index", header + "\nbase: 1\n" + "\n".join(
        one_based[:-1] + [_with_index(one_based[-1], 0, "0")]) + "\n"
    yield "leading zeros", header + "\n" + "\n".join(
        _with_index(line, 0, line.split()[0].zfill(1 + k % 3))
        for k, line in enumerate(lines)) + "\n"
    yield "very wide index", header + "\n" + "\n".join(
        lines[:-1] + [_with_index(lines[-1], 1, "0" * 30 + lines[-1].split()[1])]) + "\n"
    yield "tabs", header + "\n" + body.replace(" ", "\t")
    yield "blank lines", header + "\n\n" + body.replace("\n", "\n \t\n", n // 2) + "\n\n"
    yield "crlf", (header + "\n" + body).replace("\n", "\r\n")
    yield "bare cr", header + "\n" + body.replace("\n", "\r")
    yield "form feed", header + "\n" + body.replace("\n", "\x0c", 3)
    yield "unit separator", header + "\n" + body.replace(" ", "\x1f", 5)
    yield "comments", header + "\n# a comment\n" + body.replace("\n", "  # note\n", n // 3)
    yield "non-ascii comment", header + "\n" + body + "# état ψ, no record\n"
    yield "unicode digit", header + "\n" + "\n".join(
        lines[:-1] + [_with_index(lines[-1], 0, "٠" * 2 + lines[-1].split()[0])]) + "\n"
    yield "signed index", header + "\n" + "\n".join(
        [_with_index(lines[0], 0, "+" + lines[0].split()[0])] + lines[1:]) + "\n"
    yield "underscore index", header + "\n" + "\n".join(
        [_with_index(lines[0], 0, "0_" + lines[0].split()[0])] + lines[1:]) + "\n"
    yield "duplicate near", header + "\n" + "\n".join(lines[:3] + [lines[1]] + lines[3:]) + "\n"
    yield "duplicate far", header + "\n" + body + lines[0] + "\n"
    yield "index 2**64", header + "\n" + "\n".join(
        lines[:n // 2] + [_with_index(lines[n // 2], 0, str(2**64))] + lines[n // 2 + 1:]) + "\n"
    yield "extra leading digit", header + "\n" + "\n".join(
        lines[:-1] + [_with_index(lines[-1], 1, "1" + lines[-1].split()[1])]) + "\n"
    yield "colon index", header + "\n" + "\n".join(
        lines[:-1] + [_with_index(lines[-1], 1, ":")]) + "\n"
    yield "record over two lines", header + "\n" + "\n".join(
        lines[:n // 2] + [lines[n // 2].replace("   ", "\n")] + lines[n // 2 + 1:]) + "\n"
    yield "index out of range", header + "\n" + "\n".join(
        lines[:-1] + [_with_index(lines[-1], -3, "9")]) + "\n"
    yield "missing field", header + "\n" + "\n".join(
        lines[:n // 2] + [lines[n // 2].rsplit(" ", 1)[0]] + lines[n // 2 + 1:]) + "\n"
    yield "extra field", header + "\n" + body + lines[-1] + " 0\n"
    yield "two records a line", header + "\n" + "\n".join(
        [lines[0] + " " + lines[1]] + lines[2:]) + "\n"
    yield "bad value", header + "\n" + "\n".join(
        lines[:-1] + [lines[-1] + "x"]) + "\n"
    yield "value spellings", header + "\n" + "\n".join(
        line.rsplit(" ", 2)[0] + " " + ("1_0", "+2", "-inf", "nan", "1e-3", "-0")[k % 6] + " 0"
        for k, line in enumerate(lines)) + "\n"


def _files():
    rng = np.random.default_rng(9411)
    for r in range(8, 15):
        # a full file at r = 8, a hundred records above
        t = _sparse_tensor(rng, (2,) * r, None if r == 8 else 100)
        yield f"qubits {r}", ref_dumps(t, "sparse")
    yield "dims 3 1000 7", ref_dumps(_sparse_tensor(rng, (3, 1000, 7), 200), "sparse")
    yield "dims 12 1 9", ref_dumps(_sparse_tensor(rng, (12, 1, 9)), "sparse")


FILES = list(_files())


def _assert_same_outcome(text):
    want = _outcome(ref_loads_sparse, text)
    got = _outcome(lambda s: state_io.loads(s, "sparse"), text)
    assert got[0] == want[0], (want, got)
    if want[0] == "error":
        assert got[1:] == want[1:]
    else:
        assert np.array_equal(got[1], want[1])
        bits = np.signbit(got[1].view(np.float64))
        assert np.array_equal(bits, np.signbit(want[1].view(np.float64)))


@pytest.mark.parametrize("chunk", [None, 1, 40])
@pytest.mark.parametrize("name, text", FILES, ids=[name for name, _ in FILES])
def test_sparse_loads_match_the_reference(monkeypatch, chunk, name, text):
    if chunk is not None:
        monkeypatch.setattr(state_io, "_CHUNK", chunk)
    for _, variant in _variants(text):
        _assert_same_outcome(variant)


def test_variants_cover_valid_and_malformed_files():
    outcomes = [_outcome(ref_loads_sparse, v)[0] for v in dict(_variants(FILES[0][1])).values()]
    assert outcomes.count("ok") >= 12 and outcomes.count("error") >= 8


def _token_path_calls(monkeypatch, text):
    calls = []
    convert = state_io._convert_records

    def spy(rows, *args):
        calls.append(len(rows))
        return convert(rows, *args)

    monkeypatch.setattr(state_io, "_convert_records", spy)
    state_io.loads(text, "sparse")
    return calls


def test_plain_chunks_take_the_byte_pass(monkeypatch):
    for name, text in FILES:
        assert _token_path_calls(monkeypatch, text) == [], name
    variants = dict(_variants(dict(FILES)["dims 3 1000 7"]))
    for name in ("no final line feed", "base 1", "leading zeros", "tabs", "blank lines"):
        assert _token_path_calls(monkeypatch, variants[name]) == [], name


@pytest.mark.parametrize(
    "name", ["crlf", "comments", "non-ascii comment", "unicode digit", "leading zeros"]
)
def test_other_chunks_take_the_token_path(monkeypatch, name):
    # a qubit index with a leading zero is wider than any index in range
    text = dict(_variants(FILES[0][1]))[name]
    assert _token_path_calls(monkeypatch, text)


# --- dumps ----------------------------------------------------------------------


@pytest.mark.parametrize("block, scan", [(None, None), (7, 3)])
def test_sparse_dumps_are_byte_identical(monkeypatch, block, scan):
    if block is not None:
        monkeypatch.setattr(state_io, "_BLOCK", block)
        monkeypatch.setattr(state_io, "_SCAN", scan)
    rng = np.random.default_rng(9412)
    tensors = [_sparse_tensor(rng, (2,) * r, None if r <= 11 else 2000) for r in range(8, 15)]
    tensors.append(_sparse_tensor(rng, (3, 1000, 7), 800))
    tensors.append(_sparse_tensor(rng, (1, 5, 1, 3)))
    for t in tensors:
        assert state_io.dumps(t, "sparse") == ref_dumps(t, "sparse"), t.dims


def test_tall_sparse_dump_holds_no_full_size_table():
    dims = (2**17, 2)
    a = np.zeros(dims, dtype=complex)
    flat = [0, 1, 77, 2**16 + 3, 2**18 - 1]
    a.flat[flat] = [1, -0.5j, 2e-300 + 0j, complex(-0.0, 3.0), 1e300]
    t = CoeffTensor(a)
    want = "dims: 131072 2\n" + "".join(
        f"{i // 2} {i % 2}   {float(a.flat[i].real)!r} {float(a.flat[i].imag)!r}\n"
        for i in flat
    )
    tracemalloc.start()
    try:
        text = state_io.dumps(t, "sparse")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == want
    # a table of 2**17 labels alone would take about 8 MB
    assert peak < 2**20


@pytest.mark.parametrize("dims", [(2**25, 2), (2, 2**24, 2), (2,) * 26, (3, 1000, 7), (8192, 8192)])
def test_label_tables_stay_near_the_square_root(dims):
    size = math.prod(dims)
    groups = state_io._label_groups(dims)
    assert math.prod(g[1] for g in groups) == size
    for _, count, labels in groups:
        assert labels is None or len(labels) == count <= 2 * math.isqrt(size)
    assert all(labels is not None or count in dims for _, count, labels in groups)
