"""Each input check is one rule.

A tensor's validity comes from the range walk it gets anyway: the
constructor and `_adopt` walk the array once with `core._abs_range`,
reject max |c| = 0 as the zero tensor and a max |c| that is NaN or
infinite as not finite, and keep the walk's result as `_range`.  The
walk holds one slab of |c| at a time and stops at the first slab whose
largest |c| is not finite.  Dimensions have one parser, `io.parse_dims`,
for `dims:` headers and for `entcheck gen --dims`.  Also two limits that
must end in exit 2, never in a verdict or a traceback: an `eps_rank` of
1 or more, and a norm that overflows.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import entcheck.core as core
from entcheck import (
    CoeffTensor,
    Tolerances,
    analyze,
    dumps,
    gen_product_state,
    gen_random_state,
    loads,
    partial_sum,
    reconstruct,
    render_report,
)
from entcheck import io as state_io
from entcheck.bipartite import LocalFactors
from entcheck.cli import main

SLAB_BYTES = core._SLAB * np.dtype(float).itemsize


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _bits(z):
    return np.array([z], dtype=complex).view(np.uint64).tolist()


# --- validity from the range walk ---------------------------------------------


def test_construction_peaks_at_one_copy_and_a_slab():
    c = gen_random_state((1024, 1024), 1).array
    t, peak = _traced_peak(CoeffTensor, c)
    assert np.array_equal(t.array, c)
    # a full-size bool temporary alone is 1 MiB, eight slabs of |c|
    assert peak - c.nbytes <= 2 * SLAB_BYTES


def test_range_walk_holds_one_slab_of_magnitudes():
    c = gen_random_state((256, 256), 2).array
    extent, peak = _traced_peak(core._abs_range, c)
    assert extent[0] == np.abs(c).max()
    assert peak <= 1.2 * SLAB_BYTES


@pytest.mark.parametrize(
    "make",
    [CoeffTensor, lambda a: CoeffTensor._adopt(a.copy()), lambda a: loads(dumps(CoeffTensor(a)))],
    ids=["constructor", "adopt", "dense load"],
)
def test_every_route_sets_the_range_from_its_checks(make):
    c = gen_random_state((5, 7), 3).array
    t = make(c)
    assert "_range" in vars(t)
    assert t._range == core._abs_range(c)


def test_generators_negated_copies_and_reconstructions_set_the_range():
    f = LocalFactors(([1, 2j], [3, -4, 0.5]))
    for t in (
        gen_product_state((3, 4), 1),
        gen_random_state((2, 3, 2), 2),
        reconstruct(f),
        CoeffTensor(np.eye(3))._line_negated(0, 1),
    ):
        assert "_range" in vars(t)
        assert t._range == core._abs_range(t.array)
        assert not t.array.flags.writeable


def test_the_constructor_takes_no_dims():
    with pytest.raises(TypeError):
        CoeffTensor(np.ones(4), dims=(2, 2))


def _later_slab(value):
    # the largest finite |c| sits in the first slab, `value` in the last
    c = np.ones((1024, 64), dtype=complex)
    c[0, 0] = 1e6
    c[1000, 5] = value
    return c


@pytest.mark.parametrize("value", [np.nan, complex(np.nan, 1.0), np.inf, complex(1.0, -np.inf)])
def test_a_non_finite_entry_in_a_later_slab_is_rejected(value):
    c = _later_slab(value)
    assert not core._abs_range(c)[0] < math.inf
    with pytest.raises(ValueError, match="finite"):
        CoeffTensor(c)
    with pytest.raises(ValueError, match="finite"):
        CoeffTensor._adopt(c.copy())


def test_the_range_walk_stops_at_the_first_non_finite_slab(monkeypatch):
    c = _later_slab(np.nan)
    c[1, 1] = np.inf
    walked = []
    walk = core._slab_walk

    def counting(*args):
        for slab in walk(*args):
            walked.append(slab[0])
            yield slab

    monkeypatch.setattr(core, "_slab_walk", counting)
    hi, _, top = core._abs_range(c)
    assert hi == math.inf and top == 64 + 1
    assert walked == [0]


def test_an_entry_whose_modulus_overflows_is_rejected(tmp_path, capsys):
    c = np.ones((2, 2), dtype=complex)
    c[1, 0] = 1.5e308 + 1.5e308j
    with pytest.raises(ValueError, match="finite"):
        CoeffTensor(c)
    text = "dims: 2 2\n1.0 0.0  1.0 0.0\n1.5e308 1.5e308  1.0 0.0\n"
    with pytest.raises(ValueError, match="finite") as info:
        loads(text)
    assert type(info.value) is ValueError
    path = tmp_path / "overflow.txt"
    path.write_text(text)
    assert main(["analyze", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {path}: ") and "finite" in out.err
    assert "Traceback" not in out.err


def test_the_largest_finite_modulus_is_kept():
    c = np.ones((2, 2), dtype=complex)
    c[0, 1] = 1e308 + 1e308j  # |c| = 1.41e308, finite
    assert CoeffTensor(c).max_abs == abs(1e308 + 1e308j)


# --- one dims rule --------------------------------------------------------------

SPELLINGS = [
    "2,3", "2 3", "2, 3", "2,,3", " 3 ,2 ", "2", "0,2", "2,-1", "x", "2,3.0", "", "8192,8193",
]


@pytest.mark.parametrize("spec", SPELLINGS)
def test_gen_dims_and_dims_headers_agree(spec, tmp_path, capsys):
    try:
        want = state_io._parse_dims({"dims": (3, spec)})
    except state_io.ParseError as exc:
        want = exc
    out = tmp_path / "gen.txt"
    code = main(["gen", "--product", "--dims", spec, "--output", str(out)])
    err = capsys.readouterr().err
    if isinstance(want, tuple):
        assert code == 0 and err == ""
        assert loads(out.read_text()).dims == want
        assert want == state_io.parse_dims(spec)
    else:
        assert code == 2 and not out.exists()
        message = str(want).removeprefix("line 3: ")
        assert err == f"error: --dims: {message}\n"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            state_io.parse_dims(spec)


def test_a_spaced_dims_header_loads_as_gen_writes_it(tmp_path):
    out = tmp_path / "s.txt"
    assert main(["gen", "--random", "--dims", "2 3", "--seed", "4", "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("dims: 2 3\n")
    assert loads(text) == gen_random_state((2, 3), 4)
    assert loads(text.replace("dims: 2 3", "dims: 2, 3")) == loads(text)


def test_parse_dims_keeps_the_cap_inclusive():
    assert math.prod(state_io.parse_dims("8192 8192")) == state_io.MAX_ENTRIES
    with pytest.raises(ValueError, match="above the cap"):
        state_io.parse_dims("8192 8193")


# --- a rank cutoff of 1 or more -------------------------------------------------


@pytest.mark.parametrize("eps", [1.0, 1.5, 2.0])
def test_eps_rank_must_be_below_one(eps):
    with pytest.raises(ValueError, match=f"^eps_rank must be below 1, got {eps!r}$"):
        Tolerances(eps_rank=eps)


def test_eps_rank_just_below_one_and_a_large_eps_mag_are_taken():
    assert Tolerances(eps_rank=math.nextafter(1.0, 0.0)).eps_rank < 1.0
    assert Tolerances(eps_mag=2.0).eps_mag == 2.0


@pytest.mark.parametrize("argv", [["--tol-rank", "2", "--method", "oracle"], ["--tol-rank", "1.5"]])
def test_cli_rank_cutoff_of_one_or_more_exits_two(argv, tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text(dumps(gen_random_state((4, 4), 3)))
    assert main(["analyze", "--input", str(path), *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: eps_rank must be below 1, got {float(argv[1])!r}\n"


# --- a norm that overflows ------------------------------------------------------

BIG = np.full((2, 2, 2), 1e308 + 1e308j)


def test_an_overflowing_norm_is_inf():
    t = CoeffTensor(BIG)
    assert t.norm == math.inf and type(t.norm) is float
    # just below overflow the norm is still the exactly scaled one
    assert CoeffTensor(BIG / 4).norm == CoeffTensor(BIG * 2.0**-600).norm * 2.0**598


def test_an_overflowing_norm_reaches_the_report():
    with np.errstate(all="ignore"):
        report = analyze(CoeffTensor(BIG))
    assert report.norm == math.inf
    assert report.exit_code == 2
    text = render_report(report)
    assert "norm: inf\n" in text
    assert "oracle_agrees: false\n" in text


def test_cli_overflowing_norm_exits_two_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(dumps(CoeffTensor(BIG)))
    with np.errstate(all="ignore"):
        code = main(["analyze", "--input", str(path)])
    assert code == 2
    out = capsys.readouterr()
    assert "norm: inf\n" in out.out
    assert "error: criterion 'multi-sum' says entangled but the oracle found" in out.out
    assert "Traceback" not in out.err


# --- partial sums ---------------------------------------------------------------


@pytest.mark.parametrize("dims", [(64, 300), (5, 40, 30), (2, 3, 2, 4)])
def test_partial_sum_is_the_criteria_sum_bit_for_bit(dims):
    t = gen_random_state(dims, 7)
    partials = t._sums[1]
    for k, d in enumerate(dims):
        for j in range(d):
            assert _bits(partial_sum(t, k + 1, j)) == _bits(partials[k][j])

