"""A round's shard deliveries are awaited, not counted: an error a
shard raises on a round task's ``enqueue`` fails the crawl instead of
dropping the candidates, and a URL ``urllib.parse`` cannot split passes
the robots gate (no robots.txt can apply to it) and ends errored at
fetch, as it does with robots off."""

import pytest
import ray

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    Frontier,
    fetcher_expand,
    run_crawl_with_fetcher,
    run_frontier,
)
from louis_crawler_legacy_ray.stages.fetch import DictFetcher
from louis_crawler_legacy_ray.state.seen import FrontierShard, host_of, shard_of


def _page(*hrefs: str) -> str:
    links = "".join(f'<a href="{h}">l</a>' for h in hrefs)
    return f"<html><body><main><h1>t</h1><p>x</p>{links}</main></body></html>"


def test_shard_enqueue_error_fails_the_crawl(ray_session):
    class CandidateRejectingShard(FrontierShard.__ray_actor_class__):
        def enqueue(self, urls, depths, hosts, cash=None):
            # seeds (depth 0) come from the driver; reject the round
            # tasks' candidates
            if min(depths.to_pylist(), default=0) > 0:
                raise ValueError("shard rejected a candidate batch")
            return super().enqueue(urls, depths, hosts, cash)

    pages = {
        "http://a.ca/0": _page("/1", "/2"),
        "http://a.ca/1": _page(),
        "http://a.ca/2": _page(),
    }
    cfg = CrawlConfig(n_shards=2, max_depth=2)
    seed = "http://a.ca/0"
    bad = shard_of(seed, host_of(seed), cfg.n_shards, {})
    # a frontier by hand (not pooled), one shard of the rejecting class
    frontier = Frontier.__new__(Frontier)
    frontier.cfg = cfg
    frontier._pooled = False
    frontier.shards = [
        (ray.remote(CandidateRejectingShard) if i == bad else FrontierShard)
        .options(num_cpus=0)
        .remote(i, cfg)
        for i in range(cfg.n_shards)
    ]
    try:
        expand = fetcher_expand(lambda: DictFetcher(pages), cfg, None, 0)
        with pytest.raises(ValueError, match="rejected a candidate batch"):
            run_frontier(expand, [seed], cfg, frontier=frontier)
    finally:
        frontier.release()


@pytest.mark.parametrize("matcher", ["stdlib", "rfc9309"])
def test_unparseable_candidate_passes_robots_and_ends_errored(ray_session, matcher):
    pages = {
        "http://a.ca/": _page("/ok", "http://[bad/x", "/ok2"),
        "http://a.ca/ok": _page(),
        "http://a.ca/ok2": _page(),
    }
    cfg = CrawlConfig(
        n_shards=2,
        max_depth=2,
        obey_robots=True,
        robots_matcher=matcher,
        robots_txt_by_host={"a.ca": "User-agent: *\nDisallow: /private/\n"},
    )
    res = run_crawl_with_fetcher(lambda: DictFetcher(pages), ["http://a.ca/"], cfg)
    assert sorted(res.order["url"].to_pylist()) == sorted(pages)
    assert res.counts["seen"] == 3
    assert res.counts["errored"] == 1
    assert res.counts["pending"] == 0
