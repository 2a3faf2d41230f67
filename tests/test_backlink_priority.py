"""backlink_desc priority: the Cho/Garcia-Molina/Page 1998 backlink
ordering metric computed ONLINE — shard-side citation counters bumped on
every admission/rediscovery, page-level edge dedup in the control
builder, and checkpoint round-trip of the live counts."""

import pyarrow as pa
import ray

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    RoundPolicy,
    _control_from_items,
)
from louis_crawler_legacy_ray.state.seen import FrontierShard, _sel_key


def test_sel_key_backlink_desc_ordering():
    counts = {"http://a/hot": 5, "http://a/warm": 2}
    ks = sorted(
        _sel_key("backlink_desc", 1, u, counts)
        for u in ["http://a/cold", "http://a/warm", "http://a/hot"]
    )
    assert [k[2] for k in ks] == ["http://a/hot", "http://a/warm", "http://a/cold"]
    # citations dominate ACROSS depth layers (unlike score_desc)
    assert _sel_key("backlink_desc", 6, "http://a/hot", counts) < _sel_key(
        "backlink_desc", 0, "http://a/cold", counts
    )


BACKLINK = CrawlConfig(priority="backlink_desc")


def _enqueue(s, urls, depths, hosts):
    return ray.get(
        s.enqueue.remote(pa.array(urls), pa.array(depths), pa.array(hosts))
    )


def test_shard_orders_by_live_citations(ray_session):
    s = FrontierShard.remote(0, BACKLINK)
    # z cited twice (admission + pending rediscovery), a cited once:
    # backlink_desc must select z first despite a's smaller url
    _enqueue(s, ["http://h/z"], [0], ["h"])
    _enqueue(s, ["http://h/z", "http://h/a"], [0, 0], ["h", "h"])
    _meta, t = ray.get(s.take.remote(0))
    assert t["url"].to_pylist() == ["http://h/z", "http://h/a"]


def test_backlinks_survive_dump_load(ray_session):
    s = FrontierShard.remote(0, BACKLINK)
    _enqueue(s, ["http://h/z"], [0], ["h"])
    _enqueue(s, ["http://h/z", "http://h/a"], [0, 0], ["h", "h"])
    d = ray.get(s.dump.remote())
    bl = d["backlinks"]
    assert dict(zip(bl["url"].to_pylist(), bl["n"].to_pylist())) == {
        "http://h/z": 2,
        "http://h/a": 1,
    }
    # reload into a FRESH shard exactly as load_checkpoint does: the
    # counts must come back, or a resumed adaptive crawl would
    # silently re-rank from zero
    s2 = FrontierShard.remote(0, BACKLINK)
    ray.get(
        s2.load.remote(
            {
                k: d[k]
                for k in ("seen", "pending", "errored", "host_tokens", "backlinks")
            }
        )
    )
    _meta, t = ray.get(s2.take.remote(0))
    assert t["url"].to_pylist() == ["http://h/z", "http://h/a"]


def test_control_dedup_links_collapses_page_level_edges():
    items = pa.table(
        {
            "url": pa.array(["http://h/p1", "http://h/p2"], pa.string()),
            "depth": pa.array([1, 1], pa.int32()),
            # p1 repeats its first link (the build_page_html ?ref=nav
            # nav-dup shape after query stripping); p2 cites the same
            # child once — a DIFFERENT parent never collapses
            "links": pa.array(
                [
                    ["http://h/c1", "http://h/c1", "http://h/c2"],
                    ["http://h/c1"],
                ],
                pa.list_(pa.string()),
            ),
        }
    )
    raw = _control_from_items(items, RoundPolicy(n_shards=1, max_depth=6))
    dd = _control_from_items(
        items, RoundPolicy(n_shards=1, max_depth=6, dedup_links=True)
    )

    def cands(ctrl):
        c = ctrl.filter(pa.compute.equal(ctrl["kind"], "c"))
        return sorted(c["url"].to_pylist())

    assert cands(raw) == [
        "http://h/c1", "http://h/c1", "http://h/c1", "http://h/c2",
    ]
    # dedup is per (parent, child): p1's nav-dup collapses, p2's
    # independent citation of c1 survives
    assert cands(dd) == ["http://h/c1", "http://h/c1", "http://h/c2"]
    # depths unchanged by the group-by path
    c = dd.filter(pa.compute.equal(dd["kind"], "c"))
    assert set(c["depth"].to_pylist()) == {2}
