"""An exception inside the analysis, the report or the generator is an
error (exit 2 with an `error:` line on stderr), never exit 1, which
means "entangled"."""

import pytest

import entcheck.cli as cli
from entcheck import dumps, gen_product_state
from entcheck.cli import main


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.txt"
    path.write_text(dumps(gen_product_state((3, 3), 1)))
    return str(path)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize("exc", [MemoryError(), RuntimeError("boom"), ValueError("bad")])
def test_exception_in_analyze_exits_two(monkeypatch, capsys, product_file, exc):
    monkeypatch.setattr(cli, "analyze", _raise(exc))
    assert main(["analyze", "--input", product_file]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: " + type(exc).__name__)


def test_exception_in_render_report_exits_two(monkeypatch, capsys, product_file):
    monkeypatch.setattr(cli, "render_report", _raise(MemoryError()))
    assert main(["analyze", "--input", product_file]) == 2
    assert capsys.readouterr().err.startswith("error: MemoryError")


def test_exception_in_gen_exits_two(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli.state_io, "dumps", _raise(MemoryError()))
    out_path = str(tmp_path / "out.txt")
    assert main(["gen", "--product", "--dims", "2,2", "--output", out_path]) == 2
    assert capsys.readouterr().err.startswith("error: MemoryError")


def test_keyboard_interrupt_is_not_swallowed(monkeypatch, product_file):
    monkeypatch.setattr(cli, "analyze", _raise(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", "--input", product_file])


@pytest.mark.parametrize("seed", ["-1", "-7", "x"])
def test_gen_rejects_a_bad_seed_with_one_line(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--product", "--dims", "2,2", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"entcheck gen: error: argument --seed: must be a non-negative integer, got {seed!r}"
    )
