"""The one-file-per-shard checkpoint layout: a stale ``round=N.tmp``
never leaks into a commit, and a round in the old per-table layout is
refused before any shard is touched."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    edges_expand,
    pages_expand,
    run_frontier,
)
from louis_crawler_legacy_ray.sources.pages import (
    lang_segment,
    pages_from_documents,
    synth_documents,
    write_pages_parquet,
)
from louis_crawler_legacy_ray.state.checkpoint import (
    latest_complete_round,
    read_shard_state,
    shard_file,
)

_KEYS = ["round", "depth", "url"]


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _order(res):
    return _sorted(res.order.select(_KEYS))


def test_stale_tmp_round_cannot_leak_into_a_commit(ray_session, tmp_path):
    docs = synth_documents(60, seed=7)
    corpus = str(tmp_path / "pages")
    write_pages_parquet(
        pages_from_documents(docs, n_hosts=4), corpus, rows_per_file=16
    )
    seed = (
        f"http://h0.example.ca/{lang_segment(docs['lang'][0].as_py())}/"
        f"{docs['source'][0].as_py()}/doc0"
    )
    n = 2

    def cfg(name, **kw):
        return CrawlConfig(
            n_shards=n, max_depth=10, checkpoint_dir=str(tmp_path / name), **kw
        )

    ref_cfg = cfg("ref")
    ref = run_frontier(pages_expand(corpus, ref_cfg, None, 0), [seed], ref_cfg)
    assert len(ref.metrics) > 2  # round 1 is not the crawl's last

    ck = str(tmp_path / "stop")
    # what a crashed, wider (8-shard) crawl could leave behind: a shard
    # file this crawl never writes, a truncated one it overwrites and a
    # lineage marker, in round 1's and round 2's .tmp directories
    ref_round_1 = os.path.join(ref_cfg.checkpoint_dir, "round=000001")
    for r in (1, 2):
        tmp = os.path.join(ck, f"round={r:06d}.tmp")
        os.makedirs(tmp)
        pq.write_table(pa.table({"x": [1]}), shard_file(tmp, 7))
        with open(shard_file(tmp, 0), "wb") as f:
            f.write(b"PAR1\x15\x00")
        with open(os.path.join(tmp, "_lineage.json"), "w") as f:
            json.dump({"round": r, "n_shards": 8, "counts": {}}, f)
    assert latest_complete_round(ck) is None

    stop_cfg = cfg("stop", max_rounds=2)
    stopped = run_frontier(
        pages_expand(corpus, stop_cfg, None, 0), [seed], stop_cfg
    )
    assert stopped.rounds == 2
    assert latest_complete_round(ck) == 1  # never round=000002.tmp
    rdir = os.path.join(ck, "round=000001")
    assert sorted(os.listdir(rdir)) == ["_lineage.json"] + [
        f"shard={i:04d}.parquet" for i in range(n)
    ]
    # each committed shard file is this crawl's round-1 state, the
    # uninterrupted crawl's (row order aside: deliveries race)
    for i in range(n):
        got = read_shard_state(shard_file(rdir, i))
        want = read_shard_state(shard_file(ref_round_1, i))
        assert sorted(got) == sorted(want)
        for name, t in want.items():
            assert _sorted(got[name]).equals(_sorted(t)), name

    full = cfg("stop")
    resumed = run_frontier(
        pages_expand(corpus, full, None, 0), [seed], full, resume=True
    )
    assert resumed.metrics[0]["round"] == 2
    assert _order(resumed).equals(_order(ref))
    assert latest_complete_round(ck) == len(ref.metrics) - 1
    assert not [d for d in os.listdir(ck) if d.endswith(".tmp")]


def test_resume_refuses_the_per_table_layout(ray_session, tmp_path, monkeypatch):
    """A round whose directory holds ``shard=iiii/`` per-table
    directories (the layout before one file per shard) raises a
    ValueError naming the layout, before any shard call."""
    import ray.actor

    edges = pa.table({"src": ["a", "a", "b"], "dst": ["b", "c", "d"]})
    ck = str(tmp_path / "ck")
    cfg = CrawlConfig(n_shards=2, max_depth=3, max_rounds=2, checkpoint_dir=ck)
    run_frontier(edges_expand(edges), ["a"], cfg)
    last = latest_complete_round(ck)
    rdir = os.path.join(ck, f"round={last:06d}")
    for i in range(cfg.n_shards):
        path = shard_file(rdir, i)
        sdir = os.path.join(rdir, f"shard={i:04d}")
        os.makedirs(sdir)
        for name, table in read_shard_state(path).items():
            pq.write_table(table, os.path.join(sdir, f"{name}.parquet"))
        os.remove(path)

    calls: list[str] = []
    remote0 = ray.actor.ActorMethod._remote

    def counting_remote(self, *a, **kw):
        calls.append(self._method_name)
        return remote0(self, *a, **kw)

    monkeypatch.setattr(ray.actor.ActorMethod, "_remote", counting_remote)
    resume_cfg = CrawlConfig(n_shards=2, max_depth=3, checkpoint_dir=ck)
    with pytest.raises(ValueError, match="per-table shard directories"):
        run_frontier(edges_expand(edges), ["a"], resume_cfg, resume=True)
    monkeypatch.undo()
    assert not {"restore", "load", "enqueue", "take"} & set(calls), calls
