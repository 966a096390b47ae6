"""An infinite tolerance is rejected: with `eps_rank = inf` every pivot
is below the cutoff, so the oracle would call every state a product.
`Tolerances` requires each tolerance to be finite, so the library call
raises and the CLI exits 2 with one `error:` line, from a flag or from
ENTCHECK_TOL_MAG."""

import math

import pytest

from entcheck import Tolerances, analyze, dumps, gen_random_state
from entcheck.cli import main


@pytest.fixture
def random_file(tmp_path):
    path = tmp_path / "random.txt"
    path.write_text(dumps(gen_random_state((4, 4), 3)))
    return str(path)


@pytest.mark.parametrize("name", ["eps_mag", "eps_ang", "eps_rank"])
def test_infinite_tolerance_is_rejected(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        Tolerances(**{name: math.inf})


def test_library_call_with_an_infinite_rank_cutoff_raises():
    t = gen_random_state((4, 4), 3)
    assert analyze(t, method="oracle").exit_code == 1
    with pytest.raises(ValueError, match="eps_rank must be finite"):
        analyze(t, Tolerances(eps_rank=math.inf), method="oracle")


@pytest.mark.parametrize("flag", ["--tol-mag", "--tol-ang", "--tol-rank"])
@pytest.mark.parametrize("value", ["inf", "Infinity", "1e999"])
def test_infinite_tolerance_flag_exits_two(capsys, random_file, flag, value):
    argv = ["analyze", "--input", random_file, flag, value, "--method", "oracle"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: eps_{flag[6:]} must be finite, got inf\n"


def test_infinite_env_tolerance_exits_two(monkeypatch, capsys, random_file):
    monkeypatch.setenv("ENTCHECK_TOL_MAG", "inf")
    assert main(["analyze", "--input", random_file]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: eps_mag must be finite, got inf\n"


def test_finite_tolerances_still_analyze(capsys, random_file):
    argv = ["analyze", "--input", random_file, "--method", "oracle", "--tol-rank", "1e-3"]
    assert main(argv) == 1
    assert "entangled" in capsys.readouterr().out
