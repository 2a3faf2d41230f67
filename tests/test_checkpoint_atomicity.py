"""Checkpoint atomicity: a round directory without _lineage.json (a
crash mid-dump) is invisible to resume; lineage carries config hash."""

import json
import os
import shutil

from louis_crawler_legacy_ray.state.checkpoint import (
    latest_complete_round,
    read_lineage,
)


def test_incomplete_round_ignored(ray_session, tmp_path):
    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        edges_expand,
        run_frontier,
    )

    edges = pa.table(
        {
            "src": ["n0", "n0", "n1", "n2"],
            "dst": ["n1", "n2", "n3", "n4"],
        }
    )
    ck = str(tmp_path / "ckpt")
    cfg = CrawlConfig(n_shards=2, max_depth=5, max_rounds=10, checkpoint_dir=ck)
    res = run_frontier(edges_expand(edges), ["n0"], cfg)
    assert res.rounds >= 3
    last = latest_complete_round(ck)
    assert last == res.rounds - 1

    # simulate a crash mid-checkpoint: a newer round dir w/o lineage
    fake = os.path.join(ck, f"round={last + 1:06d}")
    os.makedirs(os.path.join(fake, "shard=0000"))
    assert latest_complete_round(ck) == last  # incomplete dir invisible

    # lineage content is auditable
    lin = read_lineage(ck, last)
    assert lin["round"] == last
    assert lin["n_shards"] == 2
    assert set(lin["counts"]) == {"seen", "pending", "errored"}
    assert "config_hash" in lin

    shutil.rmtree(fake)


def test_lineage_json_is_last_write(ray_session, tmp_path):
    """The commit marker lands only after all shard files exist: each
    committed round is _lineage.json plus one shard=iiii.parquet per
    shard, nothing else."""
    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        edges_expand,
        run_frontier,
    )

    edges = pa.table({"src": ["a"], "dst": ["b"]})
    ck = str(tmp_path / "ck2")
    run_frontier(
        edges_expand(edges),
        ["a"],
        CrawlConfig(n_shards=2, max_depth=2, max_rounds=5, checkpoint_dir=ck),
    )
    for name in os.listdir(ck):
        if not name.startswith("round="):
            continue
        rdir = os.path.join(ck, name)
        with open(os.path.join(rdir, "_lineage.json")) as f:
            lin = json.load(f)
        assert sorted(os.listdir(rdir)) == ["_lineage.json"] + [
            f"shard={i:04d}.parquet" for i in range(lin["n_shards"])
        ]


def test_resume_refuses_mismatched_config(ray_session, tmp_path):
    """Resume under a different config or seed list raises instead of
    silently continuing the wrong crawl (lineage config_hash check)."""
    import pyarrow as pa
    import pytest

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        edges_expand,
        run_frontier,
    )

    edges = pa.table({"src": ["a", "b"], "dst": ["b", "c"]})
    ck = str(tmp_path / "ck3")
    cfg = CrawlConfig(n_shards=2, max_depth=3, max_rounds=6, checkpoint_dir=ck)
    run_frontier(edges_expand(edges), ["a"], cfg)

    other_depth = CrawlConfig(
        n_shards=2, max_depth=4, max_rounds=6, checkpoint_dir=ck
    )
    with pytest.raises(ValueError, match="refusing to resume"):
        run_frontier(edges_expand(edges), ["a"], other_depth, resume=True)
    with pytest.raises(ValueError, match="refusing to resume"):
        run_frontier(edges_expand(edges), ["b"], cfg, resume=True)
    # matching config + seeds resumes fine (nothing left to do)
    res = run_frontier(edges_expand(edges), ["a"], cfg, resume=True)
    assert res.counts["pending"] == 0


def test_shard_tables_round_trip_through_checkpoint(ray_session, tmp_path):
    """write_checkpoint -> load_checkpoint into fresh shards -> dump()
    gives back equal tables for a shard holding every kind of state,
    and each shard's file holds exactly its dump's tables: the four
    always-present ones, plus retries / backlinks / cash only when
    non-empty and resume_sel only after a stopped round's
    finish_round."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig
    from louis_crawler_legacy_ray.state.checkpoint import (
        begin_round,
        load_checkpoint,
        shard_file,
        write_checkpoint,
        write_shard_state,
    )
    from louis_crawler_legacy_ray.state.seen import FrontierShard

    cfg = CrawlConfig(
        n_shards=2,
        priority="opic",
        per_host_budget=2,
        politeness="token_bucket",
        max_retries=3,
        deny_url_patterns=[r"/trap"],
    )

    def enqueue(s, urls):
        hosts = [u.split("/")[2] for u in urls]
        ray.get(
            s.enqueue.remote(
                pa.array(urls),
                pa.array([0] * len(urls)),
                pa.array(hosts),
                pa.array(range(len(urls), 0, -1), pa.int64()),
            )
        )

    def fetched(s, urls):
        ray.get(s.record_fetched.remote(pa.array(urls, pa.string())))

    a1, a2, a3 = "http://a.ca/1", "http://a.ca/2", "http://a.ca/3"
    b1, c1 = "http://b.ca/1", "http://c.ca/1"
    full = FrontierShard.remote(0, cfg)
    enqueue(full, [a1, a2, a3, b1, c1, "http://a.ca/trap"])  # trap -> errored
    # round 0: a.ca capped at 2 (a3 stays pending); b.ca and c.ca bank
    # a token each; a2 and b1 fail -> retry #1, due at round 2
    assert ray.get(full.take.remote(0))[0]["count"] == 4
    fetched(full, [a1, c1])
    ray.get(full.finish_round.options(num_returns=2).remote(0))
    # round 1: a3 fails -> retry #1, due at round 3
    assert ray.get(full.take.remote(1))[0]["count"] == 1
    ray.get(full.finish_round.options(num_returns=2).remote(1))
    # round 2: a2 and b1 back in flight (a3 still waiting); b1 lands,
    # then a graceful stop's finish_round stashes a2 as the round's
    # unfetched remainder
    assert ray.get(full.take.remote(2))[0]["count"] == 2
    fetched(full, [b1])
    ray.get(full.finish_round.options(num_returns=2).remote(2, None, None, 0))
    enqueue(full, ["http://d.ca/1"])  # pending
    empty = FrontierShard.remote(1, cfg)

    want = ray.get([full.dump.remote(), empty.dump.remote()])
    retries = want[0]["retries"].to_pydict()
    assert sorted(zip(retries["url"], retries["state"])) == [
        (a2, "inflight"),
        (a3, "waiting"),
    ]
    assert want[0]["resume_sel"]["url"].to_pylist() == [a2]
    assert max(want[0]["host_tokens"]["tokens"].to_pylist()) > 0
    assert want[0]["cash"].num_rows

    ck = str(tmp_path / "ckpt")
    tmp = begin_round(ck, 2)
    counts = [write_shard_state(shard_file(tmp, i), w) for i, w in enumerate(want)]
    rdir = write_checkpoint(
        ck, 2, [full, empty], "h", {}, partial_attempt=0, shard_counts=counts
    )
    base = {"seen", "pending", "errored", "host_tokens"}
    for i, extra in enumerate(({"retries", "cash", "resume_sel"}, set())):
        names = pq.read_schema(os.path.join(rdir, f"shard={i:04d}.parquet")).names
        assert sorted(names) == sorted(base | extra)

    fresh = [FrontierShard.remote(i, cfg) for i in range(2)]
    load_checkpoint(ck, 2, fresh, partial=True)
    got = ray.get([s.dump.remote() for s in fresh])
    for g, w in zip(got, want):
        assert sorted(g) == sorted(w)
        for name in w:
            assert g[name].equals(w[name]), name
    for s in [full, empty, *fresh]:
        ray.kill(s)
