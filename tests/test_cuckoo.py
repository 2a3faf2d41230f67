"""Unit tests for the partial-key cuckoo filter (_Cuckoo) — the
deletable membership front for the frontier's URL-seen state
(north_rule: "sharded bloom/cuckoo URL-seen filter") — plus the
mode="cuckoo" end-to-end crawl equivalence."""

import pyarrow as pa
import pytest

from louis_crawler_legacy_ray.state.seen import _Cuckoo, _h64


def _keys(n, tag=""):
    return [_h64(f"https://h{i % 64}.example.ca/{tag}{i}") for i in range(n)]


def test_no_false_negatives_under_load():
    f = _Cuckoo(n_buckets=1 << 12)  # 16384 slots
    ks = _keys(15000)  # ~92% load — evictions and stash exercised
    for k in ks:
        f.add(k)
    assert all(f.maybe_contains(k) for k in ks)


def test_false_positive_rate_bounded():
    f = _Cuckoo(n_buckets=1 << 12)
    for k in _keys(12000):  # ~73% load
        f.add(k)
    other = _keys(20000, tag="x")
    fp = sum(f.maybe_contains(k) for k in other)
    # 16-bit fingerprints, 2 buckets x 4 slots: expected FPR ~ 8/2^16
    # ~ 0.012%; allow a generous margin
    assert fp / len(other) < 0.005


def test_delete_then_readd():
    f = _Cuckoo(n_buckets=1 << 8)
    ks = _keys(500)
    for k in ks:
        f.add(k)
    victim = ks[123]
    assert f.maybe_contains(victim)
    assert f.delete(victim)
    # others unaffected (no false negatives introduced by deletion)
    assert all(f.maybe_contains(k) for k in ks if k != victim)
    f.add(victim)
    assert f.maybe_contains(victim)


def test_stash_keeps_overfull_filter_safe():
    f = _Cuckoo(n_buckets=1 << 4)  # 64 slots, deliberately tiny
    ks = _keys(200)  # 3x capacity
    for k in ks:
        f.add(k)
    assert all(f.maybe_contains(k) for k in ks)
    assert len(f.stash) > 0  # the overflow actually landed in the stash


def test_cuckoo_mode_matches_exact(ray_session, tmp_path):
    from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig, run_crawl
    from louis_crawler_legacy_ray.sources.pages import (
        pages_from_documents,
        synth_documents,
        write_pages_parquet,
    )

    pages = pages_from_documents(synth_documents(300), n_children=4, n_hosts=8)
    pages_dir = str(tmp_path / "pages")
    write_pages_parquet(pages, pages_dir)
    seeds = [pages["url"][0].as_py()]
    exact = run_crawl(pages_dir, seeds, CrawlConfig(n_shards=2, max_depth=3, mode="exact"))
    cuckoo = run_crawl(pages_dir, seeds, CrawlConfig(n_shards=2, max_depth=3, mode="cuckoo"))
    assert exact.order["url"].to_pylist() == cuckoo.order["url"].to_pylist()
    assert exact.counts == cuckoo.counts


def test_expire_enables_recrawl(ray_session):
    """The TTL-recrawl primitive: expired URLs become enqueueable again
    (seen-set AND cuckoo-front deletion), unexpired ones stay blocked."""
    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig
    from louis_crawler_legacy_ray.state.seen import FrontierShard

    shard = FrontierShard.options(num_cpus=0).remote(0, CrawlConfig(mode="cuckoo"))
    import ray as _ray

    urls = pa.array([f"https://a.ca/p{i}" for i in range(20)])
    hosts = pa.array(["a.ca"] * 20)
    _ray.get(shard.enqueue.remote(urls, pa.array([0] * 20), hosts))
    _ray.get(shard.take.remote(0))
    _ray.get(shard.record_fetched.remote(urls))
    # everything is seen: nothing re-admits
    assert _ray.get(shard.enqueue.remote(urls, pa.array([1] * 20), hosts)) == 0
    # expire half: exactly those become enqueueable again
    expired = urls.to_pylist()[::2]
    assert _ray.get(shard.expire.remote(expired)) == len(expired)
    assert _ray.get(shard.enqueue.remote(urls, pa.array([1] * 20), hosts)) == len(
        expired
    )
    _meta, sel = _ray.get(shard.take.remote(0))
    assert sorted(sel["url"].to_pylist()) == sorted(expired)
    _ray.kill(shard)
