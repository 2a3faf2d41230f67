"""sources.pages.build_once: the build-once, commit-atomically protocol
every derived pages corpus is cached through."""

import glob
import os

from louis_crawler_legacy_ray.sources.pages import build_once


def _write(tmp: str, name: str = "part-00000.parquet") -> None:
    with open(os.path.join(tmp, name), "w") as f:
        f.write("x")


def test_builds_once_per_out_dir(tmp_path):
    out = str(tmp_path / "corpus")
    calls = []

    def build(tmp):
        calls.append(tmp)
        _write(tmp)

    assert build_once(out, build) == out
    assert build_once(out, build) == out
    assert len(calls) == 1
    assert calls[0] != out  # built aside, then renamed into place
    assert sorted(os.listdir(out)) == ["_DONE", "part-00000.parquet"]
    assert not glob.glob(f"{out}.build-*")


def test_lost_race_drops_own_build(tmp_path):
    out = str(tmp_path / "corpus")

    def build(tmp):
        _write(tmp, "mine.parquet")
        # another process commits its corpus while this one builds
        os.makedirs(out)
        _write(out, "theirs.parquet")
        _write(out, "_DONE")

    assert build_once(out, build) == out
    assert sorted(os.listdir(out)) == ["_DONE", "theirs.parquet"]
    assert not glob.glob(f"{out}.build-*")


def test_dir_without_done_is_rebuilt(tmp_path):
    out = str(tmp_path / "corpus")
    os.makedirs(out)
    _write(out, "half-written.parquet")
    calls = []

    def build(tmp):
        calls.append(tmp)
        _write(tmp)

    assert build_once(out, build) == out
    assert len(calls) == 1
    assert sorted(os.listdir(out)) == ["_DONE", "part-00000.parquet"]
    assert not glob.glob(f"{out}.build-*")
