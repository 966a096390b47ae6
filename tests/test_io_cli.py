import numpy as np
import pytest

from entcheck import CoeffTensor, dumps, gen_random_state, loads
from entcheck.cli import main
from entcheck.io import ParseError

GHZ_SPARSE = """\
dims: 2 2 2
0 0 0   1 0
1 1 1   1 0
"""

EX1_DENSE = """\
# worked 3x3 example
dims: 3 3
4 0   0 -3   5 0
-8 0   0 6   -10 0
12 0   0 -9   15 0
"""


def test_loads_dense():
    t = loads("dims: 2 2\n1 0 -1 0\n-1 0 1 0\n")
    np.testing.assert_array_equal(t.array, [[1, -1], [-1, 1]])


def test_loads_sparse_ghz():
    t = loads(GHZ_SPARSE, format="sparse")
    assert t.dims == (2, 2, 2)
    assert t.array[0, 0, 0] == 1 and t.array[1, 1, 1] == 1
    assert t.array.sum() == 2


def test_sparse_one_based_header():
    text = "dims: 2 2\nbase: 1\n1 1  5 0\n2 2  7 0\n"
    t = loads(text, format="sparse")
    np.testing.assert_array_equal(t.array, [[5, 0], [0, 7]])


def test_sparse_duplicate_index_named():
    text = "dims: 2 2\n0 0 1 0\n0 0 2 0\n"
    with pytest.raises(ParseError, match=r"duplicate entry for index \(0, 0\)"):
        loads(text, format="sparse")


def test_sparse_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        loads("dims: 2 2\n0 5 1 0\n", format="sparse")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        loads("dims: 2 2\n1 0 oops 0\n-1 0 1 0\n")
    with pytest.raises(ParseError, match="missing 'dims:'"):
        loads("1 0 1 0\n")
    with pytest.raises(ParseError, match="expected 8 numbers"):
        loads("dims: 2 2\n1 0\n")


def test_zero_tensor_rejected_on_load():
    with pytest.raises(ParseError, match="zero tensor"):
        loads("dims: 2 2\n0 0 0 0\n0 0 0 0\n")


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_round_trip_bit_exact(fmt):
    for seed in range(20):
        t = gen_random_state((2, 3, 2), seed)
        again = loads(dumps(t, fmt), fmt)
        assert np.array_equal(again.array, t.array)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_factorized_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "ex1.txt", EX1_DENSE)
    assert main(["analyze", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "report_version: 2" in out
    assert "verdict: factorized" in out
    assert "decided_by: sum" in out
    assert "oracle_agrees: true" in out


def test_cli_entangled_exit_one(tmp_path, capsys):
    path = write(tmp_path, "ghz.txt", GHZ_SPARSE)
    assert main(["analyze", "--input", path, "--format", "sparse"]) == 1
    out = capsys.readouterr().out
    assert "verdict: entangled" in out
    assert "decided_by: multi-sum" in out
    assert "witness: 0 0 0" in out


def test_cli_parse_error_exit_two(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "dims: 2 2\n1 0\n")
    assert main(["analyze", "--input", path]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_forced_degenerate_method_exit_two(tmp_path, capsys):
    path = write(tmp_path, "psi.txt", "dims: 2 2\n1 0 -1 0\n-1 0 1 0\n")
    assert main(["analyze", "--input", path, "--method", "sum"]) == 2
    out = capsys.readouterr().out
    assert "verdict: inconclusive" in out
    assert "error: forced method 'sum' is inconclusive" in out
    # the auto pipeline decides the same file via the sign flip / phase path
    assert main(["analyze", "--input", path]) == 0


def test_cli_report_deterministic(tmp_path, capsys):
    path = write(tmp_path, "ex1.txt", EX1_DENSE)

    def strip_timing(text):
        return [
            " ".join(tok for tok in line.split() if not tok.startswith("time_ms="))
            for line in text.splitlines()
        ]

    main(["analyze", "--input", path, "--pretty"])
    first = capsys.readouterr().out
    main(["analyze", "--input", path, "--pretty"])
    second = capsys.readouterr().out
    assert strip_timing(first) == strip_timing(second)


def test_cli_pretty_keeps_machine_document(tmp_path, capsys):
    path = write(tmp_path, "ex1.txt", EX1_DENSE)
    main(["analyze", "--input", path, "--pretty"])
    out = capsys.readouterr().out
    extra = [l for l in out.splitlines() if l and not l.startswith("#") and ": " not in l]
    assert extra == []


def test_cli_tolerance_env_override(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ex1.txt", EX1_DENSE)
    monkeypatch.setenv("ENTCHECK_TOL_MAG", "1e-6")
    main(["analyze", "--input", path])
    assert "tol_mag: 1e-06" in capsys.readouterr().out
    # explicit flag wins over the environment
    main(["analyze", "--input", path, "--tol-mag", "1e-8"])
    assert "tol_mag: 1e-08" in capsys.readouterr().out


def test_cli_method_oracle(tmp_path, capsys):
    path = write(tmp_path, "ex1.txt", EX1_DENSE)
    assert main(["analyze", "--input", path, "--method", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "decided_by: oracle" in out
    assert "factor_0:" in out


def test_cli_gen_deterministic_and_loadable(tmp_path, capsys):
    argv = ["gen", "--product", "--dims", "2,3", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    t = loads(first)
    assert t.dims == (2, 3)


def test_cli_gen_product_then_analyze(tmp_path, capsys):
    out_path = str(tmp_path / "prod.txt")
    code = main(
        ["gen", "--product", "--dims", "3,3", "--seed", "2",
         "--zero-avoidance", "--output", out_path]
    )
    assert code == 0
    assert main(["analyze", "--input", out_path]) == 0


def test_cli_gen_random_then_analyze(tmp_path, capsys):
    out_path = str(tmp_path / "rand.txt")
    assert main(["gen", "--random", "--dims", "3,3", "--seed", "2", "--output", out_path]) == 0
    assert main(["analyze", "--input", out_path]) == 1
