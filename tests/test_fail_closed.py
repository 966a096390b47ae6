"""Non-finite arithmetic and non-finite input never turn into a verdict.

An overflow in c * S^(r-1) gives inf - inf = NaN residuals, which must
count as violations; NaN or inf entries are rejected when the tensor is
built, so the CLI reports them as errors (exit 2), never as "entangled"
(exit 1) through a traceback.
"""

import numpy as np
import pytest

from entcheck import CoeffTensor, Outcome, dumps, multiparty_sum_test, sum_test
from entcheck.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def test_sum_test_overflow_is_entangled():
    v = sum_test(CoeffTensor([[1e200, 0], [0, 1e200]]))
    assert v.outcome is Outcome.ENTANGLED


def test_multiparty_overflow_is_entangled():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = c[1, 1, 1] = 1e150
    v = multiparty_sum_test(CoeffTensor(c))
    assert v.outcome is Outcome.ENTANGLED


def test_cli_overflowing_product_is_an_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(dumps(CoeffTensor(np.full((2, 2, 2), 1e200))))
    assert main(["analyze", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert any(line.startswith("error:") for line in (out.out + out.err).splitlines())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_coeff_tensor_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        CoeffTensor([[bad, 1], [1, 1]])


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("dense", "dims: 2 2\n1 0  inf 0\n1 0  1 0\n"),
        ("dense", "dims: 2 2\n1 0  nan 0\n1 0  1 0\n"),
        ("sparse", "dims: 2 2\n0 0  1 0\n1 1  inf 0\n"),
    ],
)
def test_cli_non_finite_file_exits_two(tmp_path, capsys, fmt, text):
    path = tmp_path / "state.txt"
    path.write_text(text)
    assert main(["analyze", "--input", str(path), "--format", fmt]) == 2
    assert "error:" in capsys.readouterr().err
