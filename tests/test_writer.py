"""Write-then-rename: a failed write leaves no file behind."""

import os

import pytest

from hypertime import writer


def _raising_blocks():
    yield "first line\n"
    raise ValueError("block failed")


def _failing_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("existing", [None, "old\n"])
def test_failed_write_leaves_neither_target_nor_temporary(
        tmp_path, monkeypatch, existing):
    path = tmp_path / "x.txt"
    if existing is not None:
        path.write_text(existing, encoding="utf-8")
    with pytest.raises(ValueError, match="block failed"):
        writer.write_text(str(path), _raising_blocks(), force=True)
    monkeypatch.setattr(writer.os, "replace", _failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        writer.write_text(str(path), "text\n", force=True)
    kept = [] if existing is None else ["x.txt"]
    assert sorted(os.listdir(tmp_path)) == kept
    if existing is not None:
        assert path.read_text(encoding="utf-8") == existing


def test_write_refuses_an_existing_file_without_force(tmp_path):
    path = tmp_path / "x.txt"
    writer.write_text(str(path), ["a", "b\n"], force=False)
    with pytest.raises(FileExistsError, match="pass --force"):
        writer.write_text(str(path), "c\n", force=False)
    writer.write_text(str(path), "c\n", force=True)
    assert path.read_text(encoding="utf-8") == "c\n"
    assert os.listdir(tmp_path) == ["x.txt"]
