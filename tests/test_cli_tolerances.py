"""A bad tolerance, from ENTCHECK_TOL_MAG or a flag, is an error: one
`error:` line on stderr and exit 2, never exit 1, which means
"entangled"."""

import pytest

from entcheck import dumps, gen_product_state
from entcheck.cli import main


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.txt"
    path.write_text(dumps(gen_product_state((3, 3), 1)))
    return str(path)


def test_non_numeric_env_tolerance_exits_two(monkeypatch, capsys, product_file):
    monkeypatch.setenv("ENTCHECK_TOL_MAG", "abc")
    assert main(["analyze", "--input", product_file]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: ENTCHECK_TOL_MAG is not a number: 'abc'\n"


@pytest.mark.parametrize("value", ["0", "-1e-9", "nan"])
def test_non_positive_env_tolerance_exits_two(monkeypatch, capsys, product_file, value):
    monkeypatch.setenv("ENTCHECK_TOL_MAG", value)
    assert main(["analyze", "--input", product_file]) == 2
    assert capsys.readouterr().err.startswith("error: eps_mag must be strictly positive")


@pytest.mark.parametrize("flag", ["--tol-mag", "--tol-ang", "--tol-rank"])
def test_non_positive_tolerance_flag_exits_two(capsys, product_file, flag):
    assert main(["analyze", "--input", product_file, flag, "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps_") and err.count("\n") == 1


def test_flag_overrides_a_bad_env_tolerance(monkeypatch, product_file):
    monkeypatch.setenv("ENTCHECK_TOL_MAG", "abc")
    assert main(["analyze", "--input", product_file, "--tol-mag", "1e-9"]) == 0
