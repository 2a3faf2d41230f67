"""score_desc priority frontier: external per-URL scores (in-degree /
PageRank style) ordering the round selection, per-shard score slicing,
and checkpoint-identity coverage of the score map."""

import pyarrow as pa
import ray

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    Frontier,
    config_hash,
)
from louis_crawler_legacy_ray.state.seen import _sel_key


def test_sel_key_score_desc_ordering():
    scores = {"http://a/hi": 7, "http://a/lo": 2}
    ks = sorted(
        _sel_key("score_desc", 1, u, scores)
        for u in ["http://a/none", "http://a/lo", "http://a/hi"]
    )
    assert [k[2] for k in ks] == ["http://a/hi", "http://a/lo", "http://a/none"]
    # depth layers still dominate score
    assert _sel_key("score_desc", 0, "http://a/none", scores) < _sel_key(
        "score_desc", 1, "http://a/hi", scores
    )


def test_config_hash_covers_scores():
    base = CrawlConfig(n_shards=2, priority="score_desc")
    a = CrawlConfig(
        n_shards=2, priority="score_desc", priority_scores={"u": 1}
    )
    b = CrawlConfig(
        n_shards=2, priority="score_desc", priority_scores={"u": 2}
    )
    hs = {config_hash(c, ["s"]) for c in (base, a, b)}
    assert len(hs) == 3


def test_frontier_slices_scores_by_owner_shard(ray_session):
    urls = [f"http://h{i}.example.ca/p{j}" for i in range(5) for j in range(4)]
    scores = {u: i for i, u in enumerate(urls)}
    cfg = CrawlConfig(
        n_shards=4, priority="score_desc", priority_scores=scores
    )
    f = Frontier(cfg)
    try:
        slices = f._score_slices
        assert sum(len(s) for s in slices) == len(urls)
        # enqueue everything; each shard's take must come out in
        # (depth, -score, url) order using ITS slice
        from louis_crawler_legacy_ray.state.seen import host_of
        from louis_crawler_legacy_ray.pipelines.crawl import shard_of

        for u in urls:
            s = shard_of(u, host_of(u), cfg.n_shards, {})
            assert u in slices[s]
            ray.get(
                f.shards[s].enqueue.remote(
                    pa.array([u]), pa.array([0]), pa.array([host_of(u)])
                )
            )
        for i, shard in enumerate(f.shards):
            _meta, t = ray.get(shard.take.remote(0))
            got = t["url"].to_pylist()
            expect = sorted(
                (u for u in urls if u in slices[i]),
                key=lambda u: (0, -scores[u], u),
            )
            assert got == expect
    finally:
        f.release()
