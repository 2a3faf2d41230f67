"""Politeness-policy derivation + robots cache + robots-gated crawl."""

from louis_crawler_legacy_ray.state.politeness import PolitenessPolicy, RobotsCache

ROBOTS = """User-agent: *
Disallow: /private/
Allow: /
"""


def test_policy_budget_derivation():
    p = PolitenessPolicy(start_delay_s=5.0, round_seconds=60.0)
    assert p.budget_for("a.ca") == 12  # 60/5
    p.observe_latency("a.ca", 115.0)  # slow host -> throttle up
    assert p.delay_for("a.ca") == 60.0  # clamped at max (settings.py:76)
    assert p.budget_for("a.ca") == 1
    p2 = PolitenessPolicy()
    p2.observe_latency("b.ca", 0.01)  # fast host -> delay shrinks
    assert p2.delay_for("b.ca") < 5.0


def test_robots_cache_default_off():
    rc = RobotsCache({"a.ca": ROBOTS})  # obey_robots=False (reference parity)
    assert rc.allowed("http://a.ca/private/x")


def test_robots_cache_enabled():
    rc = RobotsCache({"a.ca": ROBOTS}, obey_robots=True)
    assert rc.allowed("http://a.ca/public")
    assert not rc.allowed("http://a.ca/private/x")
    assert rc.allowed("http://unknown-host.ca/anything")  # no robots -> allowed
    assert rc.filter_urls(["http://a.ca/ok", "http://a.ca/private/no"]) == [
        True,
        False,
    ]


def test_crawl_with_robots_gate(ray_session, tmp_path):
    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        edges_expand,
        run_frontier,
    )

    edges = pa.table(
        {
            "src": ["http://a.ca/root", "http://a.ca/root"],
            "dst": ["http://a.ca/public", "http://a.ca/private/x"],
        }
    )
    robots = {"a.ca": ROBOTS}
    cfg = CrawlConfig(
        n_shards=2,
        max_depth=3,
        max_rounds=6,
        robots_txt_by_host=robots,
        obey_robots=True,
    )
    res = run_frontier(edges_expand(edges), ["http://a.ca/root"], cfg)
    fetched = set(res.order["url"].to_pylist())
    assert fetched == {"http://a.ca/root", "http://a.ca/public"}
    assert res.counts["errored"] == 1  # the robots-disallowed url


def test_token_bucket_carries_and_bursts(ray_session):
    """per_host_budget=2, politeness='token_bucket': the seed round
    spends 1 of 2 tokens, so the next round bursts to 3 (carry), then
    back to the 2/round rate — vs the flat budget's strict 2/round.
    Long-run rate stays <= budget/round in both modes."""
    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        edges_expand,
        run_frontier,
    )

    children = [f"http://a.ca/c{i}" for i in range(5)]
    edges = pa.table(
        {
            "src": ["http://a.ca/root"] * 5,
            "dst": children,
        }
    )

    flat = run_frontier(
        edges_expand(edges),
        ["http://a.ca/root"],
        CrawlConfig(n_shards=2, max_depth=3, per_host_budget=2),
    )
    bucket = run_frontier(
        edges_expand(edges),
        ["http://a.ca/root"],
        CrawlConfig(
            n_shards=2, max_depth=3, per_host_budget=2, politeness="token_bucket"
        ),
    )
    # same URL set either way
    assert set(flat.order["url"].to_pylist()) == set(bucket.order["url"].to_pylist())
    # flat: 1, 2, 2, 1 -> 4 rounds; bucket: 1, 3 (burst), 2 -> 3 rounds
    assert [m["selected"] for m in flat.metrics] == [1, 2, 2, 1]
    assert [m["selected"] for m in bucket.metrics] == [1, 3, 2]


def test_robots_from_corpus_roundtrip(ray_session, tmp_path):
    """robots.txt rows planted in a pages corpus are discovered by the
    distributed scan and gate a crawl exactly like hand-provided
    bodies."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from louis_crawler_legacy_ray.state.politeness import robots_from_corpus

    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "url": [
                    "http://a.ca/robots.txt",
                    "http://a.ca/root",
                    "http://b.ca/deep/robots.txt",  # not at the root: ignored
                ],
                "html": [ROBOTS, "<main>hi</main>", "junk"],
            }
        ),
        str(d / "part.parquet"),
    )
    got = robots_from_corpus(str(d))
    assert got == {"a.ca": ROBOTS}
    rc = RobotsCache(got, obey_robots=True)
    assert not rc.allowed("http://a.ca/private/x")
    assert rc.allowed("http://a.ca/ok")


def test_crawl_delay_parse_and_budgets():
    rc = RobotsCache(
        {
            "a.ca": "User-agent: *\nCrawl-delay: 15\n",
            "b.ca": "User-agent: *\nCrawl-delay: 30\nDisallow: /private/\n",
            "c.ca": ROBOTS,  # no Crawl-delay directive
        },
        obey_robots=True,
    )
    assert rc.crawl_delay("a.ca") == 15.0
    assert rc.crawl_delay("b.ca") == 30.0
    assert rc.crawl_delay("c.ca") is None
    assert rc.crawl_delay("unknown.ca") is None
    assert rc.budgets_from_delays(round_seconds=60.0) == {"a.ca": 4, "b.ca": 2}
    # a delay longer than the round floors at 1 fetch/round, never 0
    rc2 = RobotsCache({"a.ca": "User-agent: *\nCrawl-delay: 300\n"})
    assert rc2.budgets_from_delays(round_seconds=60.0) == {"a.ca": 1}
    # Crawl-delay alone never disallows fetching
    assert rc.allowed("http://a.ca/anything")
    assert not rc.allowed("http://b.ca/private/x")


def test_crawl_delay_per_host_overrides(ray_session):
    """Two hosts, host a publishes Crawl-delay: 60 (-> budget 1/round),
    host b has no robots (unbounded): a's queue drains one per round
    while b's drains immediately; with a flat per_host_budget=2 the
    override still wins for a and b falls back to the flat cap."""
    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        edges_expand,
        run_frontier,
    )

    srcs, dsts = [], []
    for i in range(3):
        srcs += ["http://a.ca/root", "http://b.ca/root"]
        dsts += [f"http://a.ca/c{i}", f"http://b.ca/c{i}"]
    edges = pa.table({"src": srcs, "dst": dsts})
    robots = {"a.ca": "User-agent: *\nCrawl-delay: 60\n"}
    seeds = ["http://a.ca/root", "http://b.ca/root"]

    res = run_frontier(
        edges_expand(edges),
        seeds,
        CrawlConfig(
            n_shards=2,
            max_depth=2,
            robots_txt_by_host=robots,
            obey_robots=True,
            honor_crawl_delay=True,
        ),
    )
    order = res.order.to_pydict()
    by_round: dict[int, list[str]] = {}
    for r, u in zip(order["round"], order["url"]):
        by_round.setdefault(r, []).append(u)
    # round 0: both seeds? no — a.ca capped at 1, b.ca unbounded: both
    # seeds fetch (1 each), then b's 3 children all in round 1 while
    # a's trickle 1/round over rounds 1..3
    assert sorted(by_round[0]) == ["http://a.ca/root", "http://b.ca/root"]
    assert [u for u in by_round[1] if "b.ca" in u] == [
        "http://b.ca/c0",
        "http://b.ca/c1",
        "http://b.ca/c2",
    ]
    for r in (1, 2, 3):
        assert len([u for u in by_round[r] if "a.ca" in u]) == 1

    # explicit host_budgets beat the derived ones; flat cap covers b
    res2 = run_frontier(
        edges_expand(edges),
        seeds,
        CrawlConfig(
            n_shards=2,
            max_depth=2,
            per_host_budget=2,
            robots_txt_by_host=robots,
            obey_robots=True,
            honor_crawl_delay=True,
            host_budgets={"a.ca": 4},
        ),
    )
    sel = [m["selected"] for m in res2.metrics]
    # round 0: both seeds; round 1: a's 3 children (cap 4) + b's 2 of 3
    # (flat cap 2); round 2: b's last child
    assert sel == [2, 5, 1]


def test_crawl_delay_budgets_reach_a_caller_supplied_frontier(ray_session):
    """A Frontier built by the caller and handed to run_frontier must
    honor Crawl-delay budgets exactly like one run_frontier builds
    itself: a.ca (Crawl-delay: 60 -> 1 per round) trickles one page per
    round in both."""
    from collections import Counter

    import pyarrow as pa

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        Frontier,
        edges_expand,
        run_frontier,
    )

    srcs, dsts = [], []
    for i in range(3):
        srcs += ["http://a.ca/root", "http://b.ca/root"]
        dsts += [f"http://a.ca/c{i}", f"http://b.ca/c{i}"]
    edges = pa.table({"src": srcs, "dst": dsts})
    seeds = ["http://a.ca/root", "http://b.ca/root"]
    cfg = CrawlConfig(
        n_shards=2,
        max_depth=2,
        robots_txt_by_host={"a.ca": "User-agent: *\nCrawl-delay: 60\n"},
        obey_robots=True,
        honor_crawl_delay=True,
    )

    def a_per_round(res):
        o = res.order.to_pydict()
        return dict(Counter(r for r, u in zip(o["round"], o["url"]) if "a.ca" in u))

    owned = run_frontier(edges_expand(edges), seeds, cfg)
    fr = Frontier(cfg)
    try:
        supplied = run_frontier(edges_expand(edges), seeds, cfg, frontier=fr)
    finally:
        fr.release()
    assert a_per_round(owned) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert a_per_round(supplied) == a_per_round(owned)


def test_host_budgets_reject_token_bucket(ray_session):
    import pytest as _pytest

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        edges_expand,
        run_frontier,
    )
    import pyarrow as pa

    edges = pa.table({"src": ["http://a.ca/r"], "dst": ["http://a.ca/c"]})
    with _pytest.raises(ValueError, match="token bucket"):
        run_frontier(
            edges_expand(edges),
            ["http://a.ca/r"],
            CrawlConfig(
                n_shards=1,
                per_host_budget=2,
                politeness="token_bucket",
                host_budgets={"a.ca": 1},
            ),
        )
