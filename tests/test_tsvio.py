from __future__ import annotations

import os
import stat

import pytest

from folkrel.tsvio import atomic_write_json, atomic_write_text, atomic_write_with


def test_atomic_write_replaces_and_leaves_only_the_target(tmp_path):
    target = tmp_path / "out.tsv"
    atomic_write_text(target, "old\n")
    atomic_write_text(target, "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


def test_raising_writer_leaves_old_target_and_no_stray_file(tmp_path):
    target = tmp_path / "report.json"
    atomic_write_json(target, {"a": 1})
    before = target.read_bytes()

    def failing(tmp):
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("partial")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        atomic_write_with(target, failing)
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def test_concurrent_writers_use_distinct_temporary_files(tmp_path):
    target = tmp_path / "out.tsv"
    seen = []

    def outer(tmp):
        seen.append(tmp)
        atomic_write_with(target, lambda inner: seen.append(inner))
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("outer\n")

    atomic_write_with(target, outer)
    assert len(set(seen)) == 2
    assert target.read_text(encoding="utf-8") == "outer\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_written_file_mode_follows_the_umask(tmp_path, umask):
    # Set after import: the mode must follow the umask in force at the write.
    before = os.umask(umask)
    try:
        target = tmp_path / "out.tsv"
        atomic_write_text(target, "x\n")
        plain = tmp_path / "plain.tsv"
        plain.write_text("x\n", encoding="utf-8")
    finally:
        os.umask(before)
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
