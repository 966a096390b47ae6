"""The rank oracle in bounded pieces, worked by the caller and one helper.

`unfolding_ranks` cuts each off-pivot slab into pieces of at most
`oracle._PIECE` entries; above that many entries the caller and one
helper thread take pieces from one shared iterator.  Patching `_PIECE`
down puts small tensors on the cut and threaded path, and patching
`_usable_cpus` picks the runner, so on every corpus below the threaded
runner, the serial runner over the same pieces, the default runner and
the frozen full-tensor step of `test_linear_kernels` must give the same
decision, pivot ratio compared bit for bit.  The helper runs in the
caller's numpy error state, hands its exception to the caller, and is
gone when the call returns; the traced peak stays a few 2**16-entry
buffers whatever the tensor's size.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from test_linear_kernels import _full_tensor_pivot_ratio
from test_oracle_decision import ghz, near_cutoff_matrices, w_state

import entcheck.oracle as oracle
from entcheck import analyze, gen_product_state, gen_random_state
from entcheck.oracle import unfolding_ranks


def _bits(x):
    return np.float64(x).view(np.uint64)


def _runs(t, monkeypatch, piece):
    """(threaded with pieces of `piece`, serial with the same pieces,
    default) decisions on t."""
    out = []
    for size, cpus in ((piece, 2), (piece, 1), (oracle._PIECE, 1)):
        with monkeypatch.context() as m:
            m.setattr(oracle, "_PIECE", size)
            m.setattr(oracle, "_usable_cpus", lambda: cpus)
            out.append(unfolding_ranks(t))
    return out


def _assert_same_decision(t, monkeypatch, piece):
    want = _full_tensor_pivot_ratio(t)
    threaded, serial, default = _runs(t, monkeypatch, piece)
    assert threaded.ranks == serial.ranks == default.ranks, t.dims
    for decision in (threaded, serial, default):
        assert _bits(decision.pivot_ratio) == _bits(want), (t.dims, decision.pivot_ratio, want)


def _small_corpus():
    rng = np.random.default_rng(4242)
    tensors = []
    for r in range(2, 6):
        for seed in range(12):
            dims = tuple(int(d) for d in rng.integers(1, 6, size=r))
            tensors += [gen_product_state(dims, seed), gen_random_state(dims, seed)]
    for r in range(2, 7):
        tensors += [ghz(r), w_state(r)]
    tensors += near_cutoff_matrices(count=40)
    # parties of dimension 1 in every position
    for dims in ((1, 4), (4, 1), (1, 3, 1, 2), (3, 1, 4), (2, 1)):
        tensors.append(gen_random_state(dims, 5))
    return tensors


SMALL = _small_corpus()


@pytest.mark.parametrize("piece", [1, 3, 16])
def test_small_corpus_same_decision_on_every_runner(piece, monkeypatch):
    for t in SMALL:
        _assert_same_decision(t, monkeypatch, piece)


LARGE = {
    "random-2^17": lambda: gen_random_state((2,) * 17, 11),
    "product-2^17": lambda: gen_product_state((2,) * 17, 11),
    "ghz-2^17": lambda: ghz(17),
    "w-2^17": lambda: w_state(17),
    "random-16^4": lambda: gen_random_state((16,) * 4, 12),
    "product-16^4": lambda: gen_product_state((16,) * 4, 12),
    "random-64^3": lambda: gen_random_state((64,) * 3, 13),
    "random-512^2": lambda: gen_random_state((512, 512), 14),
    "product-512^2": lambda: gen_product_state((512, 512), 14),
    "random-2x40000": lambda: gen_random_state((2, 40000), 15),
    "random-3x1x30000": lambda: gen_random_state((3, 1, 30000), 16),
}


@pytest.mark.parametrize("name", LARGE)
def test_large_tensors_same_decision_on_every_runner(name, monkeypatch):
    _assert_same_decision(LARGE[name](), monkeypatch, 1 << 10)


def test_default_cut_of_large_slabs_keeps_the_bits():
    # slabs above 2**16 entries are cut at the default size, on the cores there are
    for t in (gen_random_state((2,) * 18, 3), gen_random_state((1024, 256), 3), ghz(18)):
        assert _bits(unfolding_ranks(t).pivot_ratio) == _bits(_full_tensor_pivot_ratio(t))


class _HelperFailure(Exception):
    pass


def _in_helper(caller):
    return threading.get_ident() != caller


def test_helper_exception_reaches_the_caller(monkeypatch):
    caller = threading.get_ident()
    helper_done = threading.Event()
    original = oracle._second_pivots

    def second_pivots(pieces, *rest):
        if not _in_helper(caller):
            assert helper_done.wait(10)
            return original(pieces, *rest)
        try:
            for _ in pieces:
                raise _HelperFailure("raised on the helper's piece")
        finally:
            helper_done.set()

    monkeypatch.setattr(oracle, "_second_pivots", second_pivots)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(_HelperFailure, match="helper's piece"):
        unfolding_ranks(gen_random_state((2,) * 17, 1))
    assert threading.active_count() == before


def test_caller_exception_joins_the_helper(monkeypatch):
    caller = threading.get_ident()
    original = oracle._second_pivots

    def second_pivots(pieces, *rest):
        if _in_helper(caller):
            return original(pieces, *rest)
        for _ in pieces:
            raise _HelperFailure("raised on the caller's piece")

    monkeypatch.setattr(oracle, "_second_pivots", second_pivots)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(_HelperFailure, match="caller's piece"):
        unfolding_ranks(gen_random_state((2,) * 17, 1))
    assert threading.active_count() == before


def test_helper_runs_in_the_callers_errstate(monkeypatch):
    caller = threading.get_ident()
    seen = {}
    original = oracle._second_pivots

    def second_pivots(pieces, *rest):
        seen[_in_helper(caller)] = np.geterr()
        return original(pieces, *rest)

    monkeypatch.setattr(oracle, "_second_pivots", second_pivots)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    with np.errstate(over="raise", under="ignore"):
        want = np.geterr()
        unfolding_ranks(gen_random_state((2,) * 17, 2))
    assert seen == {False: want, True: want}
    assert want["over"] == "raise"


def test_no_thread_outlives_the_call(monkeypatch):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    unfolding_ranks(gen_random_state((2,) * 17, 3))
    assert threading.active_count() == before
    analyze(gen_random_state((2,) * 18, 3))
    assert threading.active_count() == before


def test_caller_takes_every_piece_when_no_thread_starts(monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    t = gen_random_state((2,) * 17, 4)
    want = unfolding_ranks(t)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    got = unfolding_ranks(t)
    assert got.ranks == want.ranks
    assert _bits(got.pivot_ratio) == _bits(want.pivot_ratio)


def test_concurrent_calls_take_every_piece_once(monkeypatch):
    # four callers, each with its own helper, on at most two CPUs, with
    # thread switches forced every microsecond: every piece is formed
    # once and every decision is the serial one
    tensors = [gen_random_state((2,) * 12, s) for s in range(2)] + [ghz(12), w_state(12)]
    monkeypatch.setattr(oracle, "_PIECE", 64)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    want = [unfolding_ranks(t) for t in tensors]
    pieces = 0
    for t in tensors:
        p = np.unravel_index(t._range[2], t.dims)
        pieces += sum(1 for _ in oracle._pieces(t.array, p, range(t.party_count)))

    taken = []  # list.append is atomic
    original = oracle._second_pivots

    def second_pivots(pieces, *rest):
        def counted():
            for piece in pieces:
                taken.append(piece[0])
                yield piece

        original(counted(), *rest)

    got = [[] for _ in tensors]

    def call(n):
        for _ in range(5):
            got[n].append(unfolding_ranks(tensors[n]))

    monkeypatch.setattr(oracle, "_second_pivots", second_pivots)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(n,)) for n in range(len(tensors))]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[decision] * 5 for decision in want]
    assert len(taken) == 5 * pieces


@pytest.mark.parametrize("dims", [(1024, 1024), (2,) * 20], ids=["1024x1024", "2^20"])
def test_traced_peak_is_a_few_piece_buffers(dims):
    t = gen_random_state(dims, 1)
    tracemalloc.start()
    try:
        unfolding_ranks(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
