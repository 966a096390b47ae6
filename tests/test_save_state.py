"""`save_state` (and `entcheck gen --output`) replaces PATH only once the
text is complete.

A missing PATH or a regular file is written through a temporary file in
PATH's directory that is renamed over it, with the mode a plain
`open(path, "w")` gives; on a failure the temporary file is removed and
PATH is left as it was.  A symlink or FIFO at PATH is opened and written
in place, as a device such as /dev/stdout is.
"""

import os
import stat
import threading

import pytest

import entcheck.io as state_io
from entcheck import gen_product_state, load_state, save_state
from entcheck.cli import main

GEN = ["gen", "--product", "--dims", "2,2", "--output"]


@pytest.fixture
def failing_dumps(monkeypatch):
    def dumps(t, format="dense", file=None):
        file.write("dims: 2 2\n")  # a partial text, then the failure
        raise MemoryError("no room for the text")

    monkeypatch.setattr(state_io, "dumps", dumps)


def test_a_failure_on_a_new_path_leaves_nothing(tmp_path, failing_dumps):
    path = tmp_path / "s.txt"
    assert main(GEN + [str(path)]) == 2
    assert os.listdir(tmp_path) == []


def test_a_failure_over_an_existing_file_leaves_it_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "s.txt"
    save_state(gen_product_state((2, 3), 1), path)
    os.chmod(path, 0o640)
    before = path.read_bytes()
    monkeypatch.setattr(state_io, "dumps", lambda t, format="dense", file=None: 1 / 0)
    assert main(GEN + [str(path)]) == 2
    assert path.read_bytes() == before
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert os.listdir(tmp_path) == ["s.txt"]


def test_a_replaced_file_keeps_the_mode_of_a_plain_open(tmp_path):
    new, plain = tmp_path / "new.txt", tmp_path / "plain.txt"
    plain.open("w").close()
    assert main(GEN + [str(new)]) == 0
    assert stat.S_IMODE(os.stat(new).st_mode) == stat.S_IMODE(os.stat(plain).st_mode)
    os.chmod(new, 0o600)
    assert main(GEN + [str(new)]) == 0
    assert stat.S_IMODE(os.stat(new).st_mode) == 0o600
    assert load_state(new) == gen_product_state((2, 2), 0)
    assert sorted(os.listdir(tmp_path)) == ["new.txt", "plain.txt"]


def test_a_symlink_is_written_through_in_place(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old")
    link.symlink_to(target.name)
    assert main(GEN + [str(link)]) == 0
    assert link.is_symlink()
    assert load_state(target) == gen_product_state((2, 2), 0)
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(GEN + [str(fifo)]) == 0
    reader.join(timeout=60)
    assert received[0].startswith("dims: 2 2\n")
    assert os.listdir(tmp_path) == ["pipe"]
