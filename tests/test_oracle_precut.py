"""The rank oracle cuts its pieces once, on the calling thread.

`unfolding_ranks` lists every piece of `oracle._pieces` before any
residual is formed, and sizes both buffer pairs to the largest piece.
The threaded runner hands the listed pieces to the helper through one
deque, so the helper only forms residuals: it never resumes the cut.
"""

import threading

import numpy as np
import pytest

import entcheck.oracle as oracle
from entcheck import CoeffTensor, gen_random_state
from entcheck.oracle import unfolding_ranks


def test_every_piece_is_cut_on_the_calling_thread(monkeypatch):
    caller = threading.get_ident()
    cutters, workers = set(), set()
    pieces, second_pivots = oracle._pieces, oracle._second_pivots

    def traced_pieces(*args):
        for piece in pieces(*args):
            cutters.add(threading.get_ident())
            yield piece
        cutters.add(threading.get_ident())

    def spy(pieces, *rest):
        workers.add(threading.get_ident())
        return second_pivots(pieces, *rest)

    monkeypatch.setattr(oracle, "_pieces", traced_pieces)
    monkeypatch.setattr(oracle, "_second_pivots", spy)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    unfolding_ranks(gen_random_state((2,) * 17, 1))
    assert cutters == {caller}
    assert caller in workers and len(workers) == 2  # the helper did run


def _empty_sizes(monkeypatch, t):
    """Sizes of every `np.empty` call of `unfolding_ranks(t)`."""
    sizes = []
    empty = np.empty

    def counted_empty(shape, *args, **kwargs):
        sizes.append(shape)
        return empty(shape, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "empty", counted_empty)
        unfolding_ranks(t)
    return sizes


@pytest.mark.parametrize("seed", [0, 4])
def test_buffers_hold_the_largest_piece(seed, monkeypatch):
    # the pivot sits in row 0 or 2, so one off-pivot slab has two rows of
    # 40000 entries, but each piece is one row: the buffers hold 40000
    t = gen_random_state((3, 40000), seed)
    assert np.unravel_index(t._range[2], t.dims)[0] != 1
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    sizes = _empty_sizes(monkeypatch, t)
    assert sizes == [40000] * 4


@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1)])
def test_a_tensor_without_pieces_needs_empty_buffers(dims, monkeypatch):
    t = CoeffTensor(np.full(dims, 2 - 1j))
    assert _empty_sizes(monkeypatch, t) == [0, 0]
    decision = unfolding_ranks(t)
    assert decision.ranks == (1,) * len(dims) and decision.pivot_ratio == 0.0
