"""priority='opic' (Abiteboul/Preda/Cobena 2003 OPIC, greedy drain):
integer cash shares in the control builder, shard-side account
accumulation driving selection order, cash riding the selection to
round tasks, and checkpoint round-trip of the accounts."""

import pyarrow as pa
import pyarrow.compute as pc
import ray

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    RoundPolicy,
    _control_from_items,
)
from louis_crawler_legacy_ray.state.seen import FrontierShard, _sel_key


def test_sel_key_opic_cash_dominates_depth():
    cash = {"http://a/rich": 900, "http://a/poor": 100}
    assert _sel_key("opic", 6, "http://a/rich", cash) < _sel_key(
        "opic", 0, "http://a/poor", cash
    )
    assert _sel_key("opic", 1, "http://a/none", cash) == (0, 1, "http://a/none")


def test_control_builder_splits_cash_exactly():
    # one parent, cash 1000, THREE distinct links (the first repeated
    # via a nav-dup): shares must be 334/333/333 on (c1, c2, c3) —
    # ceil-shares land on the earliest links, dup never double-funds
    items = pa.table(
        {
            "url": pa.array(["http://h/p"], pa.string()),
            "depth": pa.array([0], pa.int32()),
            "links": pa.array(
                [["http://h/c1", "http://h/c2", "http://h/c1", "http://h/c3"]],
                pa.list_(pa.string()),
            ),
            "cash": pa.array([1000], pa.int64()),
        }
    )
    ctrl = _control_from_items(items, RoundPolicy(n_shards=1, max_depth=6))
    c = ctrl.filter(pc.equal(ctrl["kind"], "c"))
    got = dict(zip(c["url"].to_pylist(), c["cash"].to_pylist()))
    assert got == {"http://h/c1": 334, "http://h/c2": 333, "http://h/c3": 333}
    assert sum(got.values()) == 1000  # conservation: shares sum to cash
    assert ctrl.filter(pc.equal(ctrl["kind"], "f"))["cash"].to_pylist() == [0]
    # non-opic items (no cash column) keep the pre-opic control shape:
    # no cash column, no extra bytes on the candidate stream
    ctrl0 = _control_from_items(
        items.drop_columns(["cash"]), RoundPolicy(n_shards=1, max_depth=6)
    )
    assert "cash" not in ctrl0.column_names


OPIC = CrawlConfig(priority="opic")


def _enqueue(s, urls, depths, hosts, cash):
    return ray.get(
        s.enqueue.remote(
            pa.array(urls), pa.array(depths), pa.array(hosts), pa.array(cash)
        )
    )


def test_shard_accumulates_shares_and_orders_by_cash(ray_session):
    s = FrontierShard.remote(0, OPIC)
    # two parents fund z with 300 + 300; a gets a single 400 share:
    # cash order is a (400+200=600)... exercise both admission and
    # pending-rediscovery accumulation
    _enqueue(s, ["http://h/z"], [1], ["h"], [300])
    _enqueue(s, ["http://h/z", "http://h/a"], [1, 1], ["h", "h"], [300, 400])
    _enqueue(s, ["http://h/a"], [1], ["h"], [200])
    # z: 600, a: 600 -> tie broken by (depth, url): a first
    _meta, t = ray.get(s.take.remote(0))
    assert t["url"].to_pylist() == ["http://h/a", "http://h/z"]
    assert t["cash"].to_pylist() == [600, 600]  # frozen values ride along


def test_cash_survives_dump_load(ray_session):
    s = FrontierShard.remote(0, OPIC)
    _enqueue(s, ["http://h/z", "http://h/a"], [1, 1], ["h", "h"], [700, 100])
    d = ray.get(s.dump.remote())
    ca = d["cash"]
    assert dict(zip(ca["url"].to_pylist(), ca["n"].to_pylist())) == {
        "http://h/z": 700,
        "http://h/a": 100,
    }
    s2 = FrontierShard.remote(0, OPIC)
    ray.get(
        s2.load.remote(
            {k: d[k] for k in ("seen", "pending", "errored", "host_tokens", "cash")}
        )
    )
    _meta, t = ray.get(s2.take.remote(0))
    assert t["url"].to_pylist() == ["http://h/z", "http://h/a"]


def test_opic_cash_rides_checkpoints(ray_session, tmp_path):
    """Kill between rounds mid-drain: the resumed crawl reloads the
    cash accounts and schedules every remaining URL at the SAME round
    an uninterrupted run would (a reset-to-zero account book would
    re-rank the frontier and diverge)."""
    import pyarrow.parquet as pq

    from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig, run_crawl

    corpus = tmp_path / "opic_pages"
    corpus.mkdir()
    # fanout-3 two-level tree on one host: unequal ceil/floor shares
    # accumulate round over round under the budget-1 throttle
    urls, htmls = ["http://a.ca/d0"], [
        '<a href="/d1">1</a><a href="/d2">2</a><a href="/d3">3</a>'
    ]
    for i in (1, 2, 3):
        urls.append(f"http://a.ca/d{i}")
        htmls.append(
            "".join(f'<a href="/d{3 * i + j}">x</a>' for j in (1, 2, 3))
        )
    for i in range(4, 13):
        urls.append(f"http://a.ca/d{i}")
        htmls.append("<p>leaf</p>")
    pq.write_table(
        pa.table({"url": urls, "html": htmls}), corpus / "part0.parquet"
    )

    kw = dict(n_shards=2, max_depth=3, per_host_budget=1, priority="opic")
    base = run_crawl(
        str(corpus), ["http://a.ca/d0"], CrawlConfig(max_rounds=64, **kw)
    )
    base_order = sorted(
        zip(base.order["url"].to_pylist(), base.order["round"].to_pylist())
    )
    assert len(base_order) == 13

    ck = str(tmp_path / "ck")
    run_crawl(
        str(corpus),
        ["http://a.ca/d0"],
        CrawlConfig(max_rounds=3, checkpoint_dir=ck, **kw),
    )
    res = run_crawl(
        str(corpus),
        ["http://a.ca/d0"],
        CrawlConfig(max_rounds=64, checkpoint_dir=ck, **kw),
        resume=True,
    )
    got = sorted(
        zip(res.order["url"].to_pylist(), res.order["round"].to_pylist())
    )
    assert got == base_order
