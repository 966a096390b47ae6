"""The one rule that cuts the rank oracle's unfoldings into pieces.

`oracle._pieces` views unfolding k as (A, d_k, B), the reshape of the
row-major tensor, and cuts each off-pivot slab (A, h, B) into runs of at
most `_PIECE` entries along A, or, where one index of A holds more,
along h and then along B.  On a tensor whose entries are their own flat
index plus one, each piece names the entries it holds, so for every
unfolding the pieces must cover both off-pivot slabs exactly once and
never the pivot slice, hold at most `_PIECE` entries each, carry
operands that broadcast to the piece from the entries the whole slab
would use, and mark with `fibre_at` exactly the pivot fibre's entries.
"""

import math

import numpy as np
import pytest

import entcheck.oracle as oracle

SHAPES = {
    "2^17": (2,) * 17,
    "16^4": (16,) * 4,
    "64^3": (64,) * 3,
    "1024x256": (1024, 256),
    "2x40000": (2, 40000),
    "3x1x30000": (3, 1, 30000),
}


def _indexed(shape):
    """The tensor whose entry at flat index i is i + 1, and an interior
    pivot, so both off-pivot slabs of an axis of length >= 3 are
    nonempty."""
    c = (np.arange(math.prod(shape)) + 1.0).astype(complex).reshape(shape)
    return c, tuple(d // 2 for d in shape)


def _axes(shape):
    """The unfoldings `unfolding_ranks` forms: every one for r >= 3, the
    first for a matrix; of the 17 qubits the first, a middle and the last
    (A = 1, both sides > 1, B = 1), which meet every case of the rule."""
    r = len(shape)
    return (0,) if r == 2 else (0, r // 2, r - 1) if r > 4 else tuple(range(r))


def _pieces_by_axis(shape, piece, monkeypatch):
    """{axis: [(block, fibre, row, fibre_at), ...]} of `_pieces` with
    `_PIECE` patched to `piece`."""
    monkeypatch.setattr(oracle, "_PIECE", piece)
    c, p = _indexed(shape)
    out = {axis: [] for axis in _axes(shape)}
    for piece in oracle._pieces(c, p, _axes(shape)):
        out[piece[0]].append(piece[1:])
    return c, p, out


@pytest.mark.parametrize("piece", [1, 3, 16, 1 << 10])
@pytest.mark.parametrize("name", SHAPES)
def test_pieces_cover_each_slab_once(name, piece, monkeypatch):
    shape = SHAPES[name]
    c, p, cut = _pieces_by_axis(shape, piece, monkeypatch)
    flat = np.arange(c.size).reshape(shape)
    for axis, pieces in cut.items():
        if shape[axis] == 1:
            assert not pieces
            continue
        blocks = [block for block, *_ in pieces]
        assert max(block.size for block in blocks) <= piece
        held = np.concatenate(blocks, axis=None).real.astype(np.int64) - 1
        counts = np.bincount(held, minlength=c.size).reshape(shape)
        off_pivot = np.moveaxis(np.ones(shape, dtype=np.int64), axis, 0)
        off_pivot[p[axis]] = 0
        assert np.array_equal(counts, np.moveaxis(off_pivot, 0, axis)), (name, axis)

        marked = [block[at].ravel() for block, _, _, at in pieces if at is not None]
        fibre_index = p[:axis] + (slice(None),) + p[axis + 1 :]
        want = np.delete(flat[fibre_index], p[axis])
        got = np.sort(np.concatenate(marked).real.astype(np.int64) - 1)
        assert np.array_equal(got, want), (name, axis)


@pytest.mark.parametrize("name", SHAPES)
def test_operands_are_the_whole_slabs(name, monkeypatch):
    # the first entry of every piece meets the fibre entry of its index
    # along the axis, divided by c[p], and the pivot row entry of its
    # other indices; the shapes above carry that to the whole piece
    shape = SHAPES[name]
    c, p, cut = _pieces_by_axis(shape, 16, monkeypatch)
    for axis, pieces in cut.items():
        scaled = c[p[:axis] + (slice(None),) + p[axis + 1 :]] / c[p]
        for block, fibre, row, _ in pieces:
            assert np.broadcast_shapes(fibre.shape, row.shape) == block.shape
            at = np.unravel_index(int(block.flat[0].real) - 1, shape)
            assert fibre.flat[0] == scaled[at[axis]]
            assert row.flat[0] == c[at[:axis] + (p[axis],) + at[axis + 1 :]]


@pytest.mark.parametrize(
    "name, along",
    [("1024x256", "h"), ("2x40000", "B"), ("3x1x30000", "B"), ("2^17", "A"), ("64^3", "A")],
)
def test_cut_direction_at_2_10(name, along, monkeypatch):
    # where a slab's (h, B) plane holds at most 2**10 entries, runs of A
    # (the last unfolding); where it holds more, runs of h while one B
    # row fits, else runs of B (the first unfolding)
    shape = SHAPES[name]
    _, p, cut = _pieces_by_axis(shape, 1 << 10, monkeypatch)
    axis = 0 if along != "A" else len(shape) - 1
    b = math.prod(shape[axis + 1 :])
    for block, *_ in cut[axis]:
        a_run, h_run, b_run = block.shape
        if along == "A":
            assert a_run > 1 and h_run in (p[axis], shape[axis] - 1 - p[axis]) and b_run == b
        elif along == "h":
            assert a_run == 1 and b_run == b and h_run < shape[axis] - 1
        else:
            assert a_run == 1 and h_run == 1 and b_run <= 1 << 10 < b
