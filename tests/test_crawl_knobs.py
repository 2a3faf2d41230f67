"""Frontier knobs: hot-host salting (skew defusal), round_limit (the
reference's CLOSESPIDER page cap, O4), and the distributed round path."""

import pyarrow as pa
import pytest

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    edges_expand,
    run_crawl,
    run_frontier,
    shard_of,
)
from louis_crawler_legacy_ray.sources.pages import (
    pages_from_documents,
    synth_documents,
    write_pages_parquet,
)


def test_salting_spreads_one_host():
    """Without salt, one host maps to one shard; with salt, its URLs
    spread over multiple shards (skew defusal, SURVEY §4)."""
    host = "hot.example.ca"
    urls = [f"http://{host}/p{i}" for i in range(200)]
    plain = {shard_of(u, host, 8, {}) for u in urls}
    assert len(plain) == 1
    salted = {shard_of(u, host, 8, {host: 4}) for u in urls}
    assert len(salted) > 1


def test_salted_crawl_same_seen_set(ray_session):
    """Salting changes the partitioning, never the crawl semantics."""
    edges = pa.table(
        {
            "src": ["http://hot.ca/a"] * 3 + ["http://hot.ca/b"],
            "dst": ["http://hot.ca/b", "http://hot.ca/c", "http://hot.ca/d", "http://hot.ca/e"],
        }
    )
    plain = run_frontier(
        edges_expand(edges), ["http://hot.ca/a"], CrawlConfig(n_shards=4, max_depth=5)
    )
    salted = run_frontier(
        edges_expand(edges),
        ["http://hot.ca/a"],
        CrawlConfig(n_shards=4, max_depth=5, hot_host_salt={"hot.ca": 4}),
    )
    assert set(plain.order["url"].to_pylist()) == set(salted.order["url"].to_pylist())
    assert plain.counts["seen"] == salted.counts["seen"]


def test_round_limit_caps_and_defers(ray_session, tmp_path):
    """round_limit caps each round's fetch batch; nothing is dropped
    (the reference's batch_size semantics, goldie_playwright_parallel
    _get_next_batch)."""
    docs = synth_documents(30, seed=9)
    pages = pages_from_documents(docs)
    d = str(tmp_path / "pages")
    write_pages_parquet(pages, d, rows_per_file=16)
    from louis_crawler_legacy_ray.sources.pages import lang_segment

    seed = f"http://inspection.canada.ca/{lang_segment(docs['lang'][0].as_py())}/{docs['source'][0].as_py()}/doc0"
    free = run_crawl(d, [seed], CrawlConfig(n_shards=2, max_depth=6, max_rounds=30))
    capped = run_crawl(
        d, [seed], CrawlConfig(n_shards=2, max_depth=6, max_rounds=60, round_limit=4)
    )
    assert set(capped.order["url"].to_pylist()) == set(free.order["url"].to_pylist())
    assert max(m["selected"] for m in capped.metrics) <= 4
    assert capped.rounds >= free.rounds


@pytest.mark.parametrize("fanout", ["tasks"])
def test_fanout_modes_equivalent(ray_session, tmp_path, fanout):
    docs = synth_documents(40, seed=4)
    pages = pages_from_documents(docs)
    d = str(tmp_path / f"pages_{fanout}")
    write_pages_parquet(pages, d, rows_per_file=16)
    from louis_crawler_legacy_ray.sources.pages import lang_segment

    seed = f"http://inspection.canada.ca/{lang_segment(docs['lang'][0].as_py())}/{docs['source'][0].as_py()}/doc0"
    res = run_crawl(
        d,
        [seed],
        CrawlConfig(
            n_shards=2,
            max_depth=4,
            max_rounds=10,
        ),
    )
    assert res.counts["seen"] == len(set(res.order["url"].to_pylist()))
    assert res.counts["seen"] > 1


def test_prime_keeps_one_block_per_bucket_file(ray_session, tmp_path):
    """Bucketed corpora with >= 2x-CPU files must prime WITHOUT a
    repartition (one block per bucket file): the repartition path
    transiently doubles the corpus in the object store, which is what
    tripped the r4 spill holdout's disk headroom."""
    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import (
        _PAGES_MAT,
        clear_pages_cache,
        prime_pages_cache,
    )
    from louis_crawler_legacy_ray.sources.pages import (
        pages_from_documents,
        synth_documents,
        write_pages_parquet,
    )

    docs = synth_documents(256, seed=7)
    pages = pages_from_documents(docs, pad_bytes=0, n_children=2)
    out = str(tmp_path / "bucketed")
    # rows_per_file=16 -> 16 bucket files >= 2 x the 4-CPU test session
    write_pages_parquet(pages, out, rows_per_file=16, bucket_by_url=True)
    clear_pages_cache()
    try:
        prime_pages_cache(out)
        info = _PAGES_MAT[out]
        n_files = 16
        assert info["n_buckets"] == n_files
        assert len(info["refs"]) == n_files  # one block per bucket file
        assert len(info["block_buckets"]) == n_files
        # every block's bucket set is exactly its own file's bucket
        assert sorted(min(s) for s in info["block_buckets"]) == list(range(n_files))
        assert all(len(s) == 1 for s in info["block_buckets"])
    finally:
        clear_pages_cache()


def test_deny_url_patterns_quarantine(ray_session):
    """Trap-guard regexes quarantine candidates at admission: denied
    URLs land in errored as trap_denied, are never fetched, and their
    subtrees stay unreachable through the denied edge."""
    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        edges_expand,
        run_frontier,
    )

    edges = pa.table(
        {
            "src": [
                "http://a.ca/root",
                "http://a.ca/root",
                "http://a.ca/cal?d=1",
                "http://a.ca/page",
            ],
            "dst": [
                "http://a.ca/cal?d=1",
                "http://a.ca/page",
                "http://a.ca/cal?d=2",
                "http://a.ca/leaf",
            ],
        }
    )
    res = run_frontier(
        edges_expand(edges),
        ["http://a.ca/root"],
        CrawlConfig(n_shards=2, max_depth=4, deny_url_patterns=[r"/cal\?"]),
    )
    urls = set(res.order["url"].to_pylist())
    assert urls == {"http://a.ca/root", "http://a.ca/page", "http://a.ca/leaf"}
    # d=1 quarantined at admission; d=2 only discoverable through the
    # denied page so it was never even seen
    assert res.counts["errored"] == 1

    # reason string on the shard itself
    import ray as _ray

    from louis_crawler_legacy_ray.state.seen import FrontierShard

    shard = FrontierShard.options(num_cpus=0).remote(
        0, CrawlConfig(deny_url_patterns=[r"/cal\?"])
    )
    added = _ray.get(
        shard.enqueue.remote(
            pa.array(["http://a.ca/cal?d=9", "http://a.ca/ok"]),
            pa.array([1, 1]),
            pa.array(["a.ca", "a.ca"]),
        )
    )
    assert added == 1
    d = _ray.get(shard.dump.remote())
    err = dict(zip(d["errored"]["url"].to_pylist(), d["errored"]["error"].to_pylist()))
    assert err == {"http://a.ca/cal?d=9": "trap_denied"}
    _ray.kill(shard)


def test_retry_backoff_schedule(ray_session, tmp_path):
    """A flaky origin (doc3 fails until its 3rd attempt): the retry
    scheduler re-tries at +2 then +4 rounds, the page finally fetches
    at round 7 (discovered round 1), and nothing is quarantined."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray as _ray

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        run_crawl_with_fetcher,
    )
    from louis_crawler_legacy_ray.stages.fetch import (
        FlakyClient,
        FlakyOriginServer,
    )

    corpus = tmp_path / "flaky_pages"
    corpus.mkdir()
    pages = pa.table(
        {
            "url": [
                "http://a.ca/doc0",
                "http://a.ca/doc3",
                "http://a.ca/doc4",
            ],
            "html": [
                '<a href="/doc3">x</a><a href="/doc4">y</a>',
                '<a href="/doc4">y</a>',
                "<p>leaf</p>",
            ],
        }
    )
    pq.write_table(pages, corpus / "part0.parquet")
    server = _ray.remote(FlakyOriginServer).options(num_cpus=0).remote(
        str(corpus)
    )
    try:
        res = run_crawl_with_fetcher(
            lambda: FlakyClient(server),
            ["http://a.ca/doc0"],
            CrawlConfig(n_shards=2, max_depth=3, max_rounds=32, max_retries=3),
        )
        got = {
            u: r
            for u, r in zip(
                res.order["url"].to_pylist(), res.order["round"].to_pylist()
            )
        }
        # doc0 round 0; doc4 round 1; doc3 fails at rounds 1 and 3,
        # succeeds at round 7 (1 + 2 + 4)
        assert got == {
            "http://a.ca/doc0": 0,
            "http://a.ca/doc4": 1,
            "http://a.ca/doc3": 7,
        }
        assert res.counts["errored"] == 0
        counts = _ray.get(server.attempt_counts.remote())
        assert counts["http://a.ca/doc3"] == 3
        # a permanently missing page exhausts max_retries then quarantines
        res2 = run_crawl_with_fetcher(
            lambda: FlakyClient(server),
            ["http://a.ca/doc0", "http://a.ca/gone"],
            CrawlConfig(n_shards=2, max_depth=3, max_rounds=32, max_retries=2),
        )
        assert res2.counts["errored"] == 1
        assert "http://a.ca/gone" not in set(res2.order["url"].to_pylist())
    finally:
        _ray.kill(server)


def test_retry_state_rides_checkpoints(ray_session, tmp_path):
    """Kill between rounds while a URL waits out its backoff: the
    resumed crawl reloads (fails, avail_round) and fetches it at the
    SAME round an uninterrupted run would."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray as _ray

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        run_crawl_with_fetcher,
    )
    from louis_crawler_legacy_ray.stages.fetch import (
        FlakyClient,
        FlakyOriginServer,
    )

    corpus = tmp_path / "flaky_pages2"
    corpus.mkdir()
    pages = pa.table(
        {
            "url": ["http://a.ca/doc0", "http://a.ca/doc3"],
            "html": ['<a href="/doc3">x</a>', "<p>leaf</p>"],
        }
    )
    pq.write_table(pages, corpus / "part0.parquet")

    def fresh_server():
        return _ray.remote(FlakyOriginServer).options(num_cpus=0).remote(
            str(corpus)
        )

    cfg_kwargs = dict(n_shards=2, max_depth=3, max_retries=3)
    s1 = fresh_server()
    try:
        base = run_crawl_with_fetcher(
            lambda: FlakyClient(s1),
            ["http://a.ca/doc0"],
            CrawlConfig(max_rounds=32, **cfg_kwargs),
        )
        base_order = sorted(
            zip(base.order["url"].to_pylist(), base.order["round"].to_pylist())
        )
    finally:
        _ray.kill(s1)

    # interrupted run: stop after round 3 (doc3 failed twice, waiting
    # for round 7), then resume from the checkpoint with a fresh
    # engine but the SAME origin attempt counts
    s2 = fresh_server()
    ck = str(tmp_path / "ck")
    try:
        run_crawl_with_fetcher(
            lambda: FlakyClient(s2),
            ["http://a.ca/doc0"],
            CrawlConfig(max_rounds=4, checkpoint_dir=ck, **cfg_kwargs),
        )
        res = run_crawl_with_fetcher(
            lambda: FlakyClient(s2),
            ["http://a.ca/doc0"],
            CrawlConfig(max_rounds=32, checkpoint_dir=ck, **cfg_kwargs),
            resume=True,
        )
        got = sorted(
            zip(res.order["url"].to_pylist(), res.order["round"].to_pylist())
        )
        assert got == base_order
        assert _ray.get(s2.attempt_counts.remote())["http://a.ca/doc3"] == 3
    finally:
        _ray.kill(s2)


def test_follow_redirects_same_depth(ray_session, tmp_path):
    """A meta-refresh page redirects at ZERO depth cost: the target
    lands at the source's depth one round later; with the flag off the
    redirect page is just a dead end."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig, run_crawl

    corpus = tmp_path / "redir_pages"
    corpus.mkdir()
    pages = pa.table(
        {
            "url": [
                "http://a.ca/root",
                "http://a.ca/moved",
                "http://a.ca/final",
                "http://a.ca/deep",
            ],
            "html": [
                b'<a href="/moved">m</a>',
                b'<meta http-equiv="refresh" content="0;url=http://a.ca/final">',
                b'<a href="/deep">d</a>',
                b"<p>leaf</p>",
            ],
        }
    )
    pq.write_table(pages, corpus / "part0.parquet")

    on = run_crawl(
        str(corpus),
        ["http://a.ca/root"],
        CrawlConfig(n_shards=2, max_depth=2, max_rounds=16, follow_redirects=True),
    )
    got = {
        u: (r, d)
        for u, r, d in zip(
            on.order["url"].to_pylist(),
            on.order["round"].to_pylist(),
            on.order["depth"].to_pylist(),
        )
    }
    # moved: depth 1 round 1; final: SAME depth 1, round 2 (one round,
    # zero depth); deep: depth 2 round 3
    assert got == {
        "http://a.ca/root": (0, 0),
        "http://a.ca/moved": (1, 1),
        "http://a.ca/final": (2, 1),
        "http://a.ca/deep": (3, 2),
    }

    off = run_crawl(
        str(corpus),
        ["http://a.ca/root"],
        CrawlConfig(n_shards=2, max_depth=2, max_rounds=16),
    )
    assert set(off.order["url"].to_pylist()) == {
        "http://a.ca/root",
        "http://a.ca/moved",
    }


def test_retry_fails_survive_salvage_dump_load(ray_session):
    """A URL back IN FLIGHT on its retry when the round is salvaged:
    its failure count rides the checkpoint as an 'inflight' retries
    row, the restored shard re-takes the salvage stash, and the next
    failure keeps escalating from the restored count instead of
    restarting the backoff."""
    import ray as _ray

    from louis_crawler_legacy_ray.state.seen import FrontierShard

    cfg = CrawlConfig(max_retries=3)
    s1 = FrontierShard.options(num_cpus=0).remote(0, cfg)
    _ray.get(
        s1.enqueue.remote(
            pa.array(["http://a.ca/x"]), pa.array([1]), pa.array(["a.ca"])
        )
    )
    # round 1: select, fetch fails -> failure #1, wait until round 3
    _ray.get(s1.take.remote(1))
    st1 = _ray.get(s1.finish_round.options(num_returns=2).remote(1, None))[0]
    assert st1["retried"] == 1 and st1["errored"] == 0
    # round 3: due again, selected (back in flight), then SALVAGED
    # mid-round before any fetch landed
    assert _ray.get(s1.take.remote(3))[0]["count"] == 1
    stats, _part = _ray.get(
        s1.finish_round.options(num_returns=2).remote(3, None, None, 1)
    )
    counts = stats.pop("counts")  # the shard's counts ride the stats
    assert {k: stats[k] for k in ("fetched", "deferred")} == {
        "fetched": 0,
        "deferred": 1,
    }
    assert stats["errored"] == stats["retried"] == 0
    assert counts["in_flight"] == 1  # the deferred URL stays known
    d = _ray.get(s1.dump.remote())
    rt = d["retries"].to_pydict()
    assert rt["url"] == ["http://a.ca/x"]
    assert rt["state"] == ["inflight"] and rt["fails"] == [1]

    # fresh shard restored from the dump
    s2 = FrontierShard.options(num_cpus=0).remote(0, cfg)
    _ray.get(s2.load.remote(d))
    # resumed round 3 re-takes exactly the stash
    assert _ray.get(s2.take.remote(3))[0]["count"] == 1
    # it fails AGAIN: failure #2 (escalated from the restored count),
    # so the backoff is 2**2 = 4 rounds -> due at round 7, not 5
    st2 = _ray.get(s2.finish_round.options(num_returns=2).remote(3, None))[0]
    assert st2["retried"] == 1
    d2 = _ray.get(s2.dump.remote())
    rt2 = d2["retries"].to_pydict()
    assert rt2["state"] == ["waiting"]
    assert rt2["fails"] == [2] and rt2["avail"] == [7]
    assert _ray.get(s2.take.remote(5))[0]["count"] == 0
    assert _ray.get(s2.take.remote(7))[0]["count"] == 1
    _ray.kill(s1)
    _ray.kill(s2)
