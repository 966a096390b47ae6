"""The public calls' rejections, fallbacks and report branches.

Each case reaches a statement that no other test runs: a precondition
that raises, a call that answers None, a report with an error and no
stage, and the pretty table's witness and error lines.
"""

import numpy as np
import pytest

from entcheck import (
    CoeffTensor,
    LocalFactors,
    PreconditionError,
    analyze,
    equivalence_scalar,
    extract_local_factors,
    gen_product_state,
    gen_random_state,
    loads,
    numeric_rank,
    render_report,
    schmidt,
    solve_phases,
    sum_test,
)
from entcheck.cli import main
from entcheck.io import save_state

PSI = CoeffTensor([[1, -1], [-1, 1]])
THREE_PARTIES = gen_product_state((2, 2, 2), 1)


def test_bipartite_calls_reject_three_parties():
    with pytest.raises(PreconditionError, match="needs 2 parties, got 3"):
        sum_test(THREE_PARTIES)
    with pytest.raises(ValueError, match="needs 2 parties, got 3"):
        schmidt(THREE_PARTIES)


def test_local_factors_need_a_nonzero_total():
    with pytest.raises(PreconditionError, match="zero total sum"):
        extract_local_factors(PSI)


def test_equivalence_scalar_rejects_mismatched_pairs():
    pair = LocalFactors(([1, 2], [3, 4]))
    with pytest.raises(ValueError, match="bipartite factor pairs"):
        equivalence_scalar(LocalFactors(([1, 2], [3, 4], [5])), pair)
    with pytest.raises(ValueError, match=r"factor dimensions differ: \(2, 2\) vs \(2, 3\)"):
        equivalence_scalar(pair, LocalFactors(([1, 2], [3, 4, 5])))


def test_equivalence_scalar_is_none_for_a_vanishing_scalar():
    pair = LocalFactors(([1, 2], [3, 4]))
    assert equivalence_scalar(pair, LocalFactors(([1e-20, 2e-20], [3e20, 4e20]))) is None


def test_local_factors_reject_too_few_or_empty_vectors():
    with pytest.raises(ValueError, match="at least two factor vectors"):
        LocalFactors(([1, 2],))
    with pytest.raises(ValueError, match="factor 1 is not a nonempty vector"):
        LocalFactors(([1, 2], []))


def test_tensor_equality_with_other_types_and_repr():
    t = CoeffTensor([[1, 2], [3, 4]])
    assert t != "[[1, 2], [3, 4]]"
    assert not t == 5
    assert repr(t) == "CoeffTensor(dims=(2, 2))"


def test_loads_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'csv'"):
        loads("dims: 2 2\n1 0  0 0\n0 0  1 0\n", "csv")


def test_numeric_rank_rejects_a_three_way_array():
    with pytest.raises(ValueError, match="expected a matrix, got ndim=3"):
        numeric_rank(np.ones((2, 2, 2)))


def test_solve_phases_is_none_for_an_entangled_matrix():
    assert solve_phases(CoeffTensor(np.eye(2))) is None
    assert solve_phases(gen_random_state((3, 4), 5)) is None


def test_analyze_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        analyze(PSI, method="magic")


@pytest.mark.parametrize("method", ["sum", "phase"])
def test_bipartite_methods_on_three_parties_are_an_error(method, tmp_path, capsys):
    report = analyze(THREE_PARTIES, method=method)
    assert report.error == f"method {method!r} needs a bipartite input, got 3 parties"
    assert report.stages == []
    assert report.exit_code == 2
    text = render_report(report, pretty=True).splitlines()
    assert "oracle_checked: false" in text
    assert not any(line.startswith(("stage:", "verdict:")) for line in text)
    assert text[-1] == f"# error: {report.error}"

    path = tmp_path / "three.txt"
    save_state(THREE_PARTIES, path)
    assert main(["analyze", "--input", str(path), "--method", method]) == 2
    assert f"error: {report.error}" in capsys.readouterr().out


def test_forced_phase_method_is_checked_by_the_oracle():
    report = analyze(gen_product_state((3, 4), 2), method="phase")
    assert [s.name for s in report.stages] == ["mag-phase", "oracle"]
    assert report.decided_by == "mag-phase"
    assert report.oracle_agrees is True
    assert report.exit_code == 0


def test_pretty_table_shows_the_witness():
    report = analyze(CoeffTensor(np.eye(3)), method="sum")
    assert report.witness == (0, 1)
    text = render_report(report, pretty=True).splitlines()
    row = next(line for line in text if line.startswith("# sum "))
    assert row.split()[1:4] == ["sum", "entangled", "sum"]
    assert row.endswith("witness (0, 1) residual 1")
