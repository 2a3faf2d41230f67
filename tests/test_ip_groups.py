"""Shared politeness budgets for vhosts on one origin server
(CrawlConfig.ip_groups — Heritrix-style ip-based frontier queues,
generalizing the reference's per-host courtesy): grouped hosts route
by GROUP (one shard owns the server's whole queue) and spend from ONE
flat budget / token bucket. The full schedule is hash-checked against
a DuckDB round simulation by the crawl_ip_groups oracle; these tests
pin the shard-level mechanics directly."""

import pyarrow as pa
import pytest
import ray

from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig, shard_of
from louis_crawler_legacy_ray.state.seen import FrontierShard, host_of

G = {"a.example": "srv", "b.example": "srv", "c.example": "srv"}


def _mk(urls, **kw):
    s = FrontierShard.remote(0, CrawlConfig(**kw))
    hosts = [host_of(u) for u in urls]
    ray.get(
        s.enqueue.remote(pa.array(urls), pa.array([0] * len(urls)), pa.array(hosts))
    )
    return s


def _take(s, round_no=0):
    return ray.get(s.take.remote(round_no))[1]


URLS = [
    "http://a.example/1",
    "http://a.example/2",
    "http://b.example/1",
    "http://b.example/2",
    "http://c.example/1",
    "http://d.example/1",
    "http://d.example/2",
]


def test_flat_budget_is_shared_across_the_group():
    # budget 2: ungrouped shards give 2 per HOST; grouped, the three
    # srv vhosts share ONE allowance of 2 while d.example keeps its own
    s0 = _mk(URLS, per_host_budget=2, politeness="budget")
    t0 = _take(s0)
    assert t0.num_rows == 7  # a:2 b:2 c:1 d:2

    s1 = _mk(URLS, ip_groups=G, per_host_budget=2, politeness="budget")
    t1 = _take(s1)
    sel = sorted(t1["url"].to_pylist())
    # (depth, url) order admits the 2 smallest grouped URLs + both d's
    assert sel == [
        "http://a.example/1",
        "http://a.example/2",
        "http://d.example/1",
        "http://d.example/2",
    ]


def test_token_bucket_carry_is_banked_per_group():
    # refill 1, burst 2: round 0 fetches 1 grouped URL; an all-requeued
    # round banks the group's token, so round 1 bursts 2 — the carry
    # belongs to the GROUP, not to whichever vhost was throttled
    s = _mk(URLS[:5], ip_groups=G, per_host_budget=1, politeness="token_bucket")
    t = _take(s, 0)
    assert t.num_rows == 1
    # hand the whole selection back: every (depth, url) key sorts
    # after (-1, "")
    ray.get(s.truncate_selection.remote((-1, "")))
    t2 = _take(s, 1)
    assert t2.num_rows == 2  # refill 1 + refunded carry 1, burst-capped


def test_grouped_hosts_route_to_one_shard():
    shards = {
        shard_of(u, host_of(u), 16, {}, G)
        for u in URLS
        if host_of(u) in G
    }
    assert len(shards) == 1
    # ungrouped host keeps plain host-hash routing
    assert shard_of("http://d.example/1", "d.example", 16, {}, G) == shard_of(
        "http://d.example/1", "d.example", 16, {}
    )


def test_salted_and_grouped_host_is_rejected():
    from louis_crawler_legacy_ray.pipelines.crawl import run_frontier

    cfg = CrawlConfig(
        n_shards=2,
        ip_groups={"a.example": "srv"},
        hot_host_salt={"a.example": 4},
    )
    with pytest.raises(ValueError, match="ip-grouped and salted"):
        run_frontier(lambda sel, rn, f, part_tag="": {"fetched": 0, "admitted": 0},
                     ["http://a.example/"], cfg)
