"""One URL -> shard router (state/seen.py). The host rule — the
``scheme://netloc`` up to the first '/', '?' or '#', or "" when the URL
does not parse — and the shard formula (hot-host salt, ip_groups,
blake2b of the host) are the same on every frontier delivery path:
seeds, driver-side expire, the score-map split, legacy
import, and the round task's control rows. A URL two paths route to
different shards is fetched on one shard and quarantined on another."""

import pyarrow as pa
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    Frontier,
    RoundPolicy,
    _control_from_items,
    run_crawl_with_fetcher,
    shard_of,
)
from louis_crawler_legacy_ray.sources.legacy_state import import_legacy_state
from louis_crawler_legacy_ray.state.seen import host_of

SALT = {"hot.ca": 3, "hot.ca:8080": 2, "[::1]": 2}
GROUPS = {"g1.ca": "srv", "g2.ca": "srv", "g1.ca:81": "srv", "U@g2.ca": "srv"}

# URLs the two historical parsers (urlparse vs the Arrow regex) read
# differently, plus plain ones that must keep routing as before
ODD = [
    " http://a.ca/x",
    "http://a.\tca/x",
    "\thttp://b.ca/",
    "http://b.ca\n/y",
    "HTTP://A.CA?q=1",
    "http://a.ca#frag",
    "//a.ca/protocol-relative",
    "http://u:p@a.ca:8080/x",
    "http://[::1]:80/x",
    "http://[::1]/salted",
    "http://hot.ca/p1",
    "http://hot.ca/p2",
    "http://g1.ca/a",
    "http://g2.ca/b",
    "not a url",
    "",
]


@st.composite
def _urls(draw):
    lead = draw(st.sampled_from(["", "", " ", "\t", "\n"]))
    scheme = draw(
        st.sampled_from(["http://", "https://", "HTTP://", "svn+ssh://", "//", "", "1x://"])
    )
    user = draw(st.sampled_from(["", "", "u@", "U:p@", "@"]))
    host = draw(
        st.sampled_from(
            ["a.ca", "A.CA", "hot.ca", "g1.ca", "g2.ca", "[::1]", "[2001:db8::7]", "10.0.0.1"]
        )
    )
    port = draw(st.sampled_from(["", "", ":8080", ":81", ":"]))
    sep = draw(st.sampled_from(["", "/", "?", "#", "/p?q#f"]))
    tail = draw(st.text(alphabet="ab/?#:@% \t\n", max_size=6))
    url = lead + scheme + user + host + port + sep + tail
    if draw(st.booleans()):
        i = draw(st.integers(0, len(url)))
        url = url[:i] + draw(st.sampled_from(["\t", "\n", "\r"])) + url[i:]
    return url


def _task_route(urls: list, n_shards: int) -> list:
    """(host, shard) per URL from the round task's control rows: each
    URL is both a fetched page ('f') and its own out-link ('c')."""
    items = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "depth": pa.array([0] * len(urls), pa.int32()),
            "links": pa.array([[u] for u in urls], pa.list_(pa.string())),
        }
    )
    policy = RoundPolicy(n_shards=n_shards, max_depth=2, salt=SALT, groups=GROUPS)
    ctrl = _control_from_items(items, policy).to_pydict()
    f = [(h, s) for k, h, s in zip(ctrl["kind"], ctrl["host"], ctrl["shard"]) if k == "f"]
    c = [(h, s) for k, h, s in zip(ctrl["kind"], ctrl["host"], ctrl["shard"]) if k == "c"]
    assert f == c
    return f


@settings(max_examples=300, deadline=None)
@given(st.lists(_urls(), min_size=1, max_size=12), st.sampled_from([1, 4, 7]))
def test_driver_and_task_routes_agree(urls, n_shards):
    task = _task_route(urls, n_shards)
    # scalar form (what tests and callers use one URL at a time)
    assert [(host_of(u), shard_of(u, host_of(u), n_shards, SALT, GROUPS)) for u in urls] == task
    from louis_crawler_legacy_ray.pipelines.crawl import _shard_rows

    # the driver-side split every Frontier path and legacy import use
    cfg = CrawlConfig(n_shards=n_shards, hot_host_salt=SALT, ip_groups=GROUPS)
    driver = {}
    for sid, sub in _shard_rows(cfg, urls):
        # each shard gets its rows in input order (the loop reference)
        assert sub["url"].to_pylist() == [u for u, (_h, s) in zip(urls, task) if s == sid]
        for u, h in zip(sub["url"].to_pylist(), sub["host"].to_pylist()):
            driver[u] = (h, sid)
    assert [driver[u] for u in urls] == task


def _owner(frontier, table: str) -> dict:
    out = {}
    for sid, shard in enumerate(frontier.shards):
        t = ray.get(shard.dump.remote())[table]
        hosts = t["host"].to_pylist() if "host" in t.column_names else [None] * t.num_rows
        for u, h in zip(t["url"].to_pylist(), hosts):
            out[u] = (h, sid)
    return out


def test_driver_paths_land_where_round_tasks_send(ray_session):
    cfg = CrawlConfig(n_shards=4, hot_host_salt=SALT, ip_groups=GROUPS)
    task = dict(zip(ODD, _task_route(ODD, cfg.n_shards)))
    f = Frontier(cfg)
    try:
        # legacy import: every seen URL sits on its task-route shard
        import_legacy_state(f, set(ODD), set(), set())
        assert {u: s for u, (_h, s) in _owner(f, "seen").items()} == {
            u: s for u, (_h, s) in task.items()
        }
        # driver expire reaches the owner of every one of them
        assert f.expire(ODD) == len(ODD)
        # seeds: pending on the task-route shard, with the task-route host
        f.enqueue_table(ODD, [0] * len(ODD))
        assert _owner(f, "pending") == task
    finally:
        f.release()


def test_odd_seed_is_fetched_and_recorded_by_one_shard(ray_session):
    from louis_crawler_legacy_ray.stages.fetch import DictFetcher

    html = "<html><body><main><p>seed page</p></main></body></html>"
    for seed in (" http://a.ca/x", "http://a.\tca/x"):
        pages = {seed: html}
        res = run_crawl_with_fetcher(
            lambda: DictFetcher(pages),
            [seed],
            CrawlConfig(n_shards=4, max_depth=1, max_rounds=4),
        )
        assert res.counts["seen"] == 1
        assert res.counts["errored"] == 0
        assert res.order["url"].to_pylist() == [seed]
