"""Smoke tests for the benchmark itself, at tiny corpus sizes.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.corpus import Corpus, bfs_order  # noqa: E402
from perfbench.workloads import SPECS, check_order  # noqa: E402


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--pages", "63"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_harness():
    b = _bench_json()
    assert [w["name"] for w in b["workloads"]] == list(SPECS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.PER_LAYER


def _tiny_corpus(n: int = 20) -> Corpus:
    langs = tuple(["en", "fr", "de", "zh"][i % 4] for i in range(n))
    sources = tuple(f"src{i % 20}" for i in range(n))
    return Corpus("unused", n, langs, sources, seed_url="", sample=())


def _as_table(rows) -> pa.Table:
    r, d, u = zip(*rows)
    return pa.table({"round": pa.array(r, pa.int32()), "depth": pa.array(d, pa.int32()),
                     "url": pa.array(u, pa.string())})


def test_bfs_oracle_covers_the_graph_in_depth_order():
    rows = bfs_order(_tiny_corpus())
    assert len({u for _, _, u in rows}) == 20
    assert rows[0] == (0, 0, _tiny_corpus().url(0))
    assert [r for r, _, _ in rows] == sorted(r for r, _, _ in rows)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows[:-1],  # a URL missing
        lambda rows: [rows[1], rows[0]] + rows[2:],  # two rows swapped
        lambda rows: rows[:-1] + [(rows[-1][0] + 1,) + rows[-1][1:]],  # wrong round
    ],
)
def test_correctness_gate_trips_on_corrupted_order(corrupt):
    expected = bfs_order(_tiny_corpus())
    assert check_order(_as_table(expected), expected, "t") == []
    assert check_order(_as_table(corrupt(list(expected))), expected, "t")


@pytest.mark.parametrize("workload", list(SPECS))
def test_traced_run_prints_every_metric(workload):
    p = _run(workload, trace=1)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.strip().splitlines()
    result, summary = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.PER_LAYER[name]
        assert isinstance(m["value"], (int, float))
    assert set(summary["end_to_end"]) == set(run.END_TO_END)
    assert summary["stamps"]["nproc"] >= 1 and summary["stamps"]["ray"]


def test_untraced_run_prints_end_to_end_metrics():
    p = _run("crawl-heavy-chunk", trace=0)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("crawl-heavy-chunk", trace=0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_self_time_subtracts_children():
    from perfbench.tracing import Tracer

    t = Tracer(True)
    t.spans = [
        {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "crawl", "parent": 0, "start": 1.0, "end": 9.0},
        {"id": 2, "name": "expand", "parent": 1, "start": 2.0, "end": 5.0},
        {"id": 3, "name": "expand", "parent": 1, "start": 5.0, "end": 6.0},
        {"id": 4, "name": "op", "parent": None, "start": 10.0, "end": 11.0},
    ]
    assert t.self_times(0) == {"op": 2.0, "crawl": 4.0, "expand": 4.0}


def test_quiet_keeps_the_less_stolen_half():
    ops = [{"steal_s": s} for s in (3.0, 0.1, 0.2, 2.0, 0.0)]
    assert [o["steal_s"] for o in run.quiet(ops)] == [0.1, 0.2, 0.0]
    no_steal = [{"steal_s": 0.0} for _ in range(4)]
    assert run.quiet(no_steal) == no_steal
