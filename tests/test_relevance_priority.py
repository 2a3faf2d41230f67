"""priority='relevance_desc' (focused crawl, shark-search-lite):
vectorized content scoring in the control builder, shard-side
MAX-combine driving selection order, no cash riding selections, and
checkpoint round-trip of the score accounts."""

import pyarrow as pa
import pyarrow.compute as pc
import ray

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    RoundPolicy,
    _control_from_items,
)
from louis_crawler_legacy_ray.state.seen import FrontierShard, _sel_key


def test_sel_key_relevance_score_dominates_depth():
    scores = {"http://a/hot": 9, "http://a/cold": 1}
    assert _sel_key("relevance_desc", 6, "http://a/hot", scores) < _sel_key(
        "relevance_desc", 0, "http://a/cold", scores
    )
    assert _sel_key("relevance_desc", 1, "http://a/none", scores) == (
        0,
        1,
        "http://a/none",
    )


def test_control_builder_scores_candidates_from_content():
    # two parents: one mentions the topic twice, one never; each child
    # inherits its parent's count, a nav-dup link doesn't duplicate the
    # candidate row, and 'f' rows carry score 0
    items = pa.table(
        {
            "url": pa.array(["http://h/p1", "http://h/p2"], pa.string()),
            "depth": pa.array([0, 0], pa.int32()),
            "links": pa.array(
                [
                    ["http://h/c1", "http://h/c2", "http://h/c1"],
                    ["http://h/c3"],
                ],
                pa.list_(pa.string()),
            ),
            "html_content": pa.array(
                ["<p>maple syrup and maple leaves</p>", "<p>off topic</p>"],
                pa.string(),
            ),
        }
    )
    ctrl = _control_from_items(
        items, RoundPolicy(n_shards=1, max_depth=6, relevance_keyword="maple")
    )
    c = ctrl.filter(pc.equal(ctrl["kind"], "c"))
    got = dict(zip(c["url"].to_pylist(), c["cash"].to_pylist()))
    assert got == {"http://h/c1": 2, "http://h/c2": 2, "http://h/c3": 0}
    assert c.num_rows == 3  # nav-dup collapsed
    assert ctrl.filter(pc.equal(ctrl["kind"], "f"))["cash"].to_pylist() == [0, 0]
    # without the keyword the control shape is unchanged (no column)
    ctrl0 = _control_from_items(items, RoundPolicy(n_shards=1, max_depth=6))
    assert "cash" not in ctrl0.column_names


RELEVANCE = CrawlConfig(priority="relevance_desc")


def test_shard_max_combines_and_orders_by_score(ray_session):
    s = FrontierShard.remote(0, RELEVANCE)
    # z endorsed 3 then 5 (max -> 5, not 8); a endorsed once with 4
    ray.get(
        s.enqueue.remote(
            pa.array(["http://h/z"]), pa.array([1]), pa.array(["h"]), pa.array([3])
        )
    )
    ray.get(
        s.enqueue.remote(
            pa.array(["http://h/z", "http://h/a"]),
            pa.array([1, 1]),
            pa.array(["h", "h"]),
            pa.array([5, 4]),
        )
    )
    _meta, t = ray.get(s.take.remote(0))
    assert t["url"].to_pylist() == ["http://h/z", "http://h/a"]
    # max-combine selections carry NO cash column: scores are computed
    # fresh from content, and a riding column would wrongly engage the
    # control builder's OPIC split path
    assert "cash" not in t.column_names


def test_scores_survive_dump_load(ray_session):
    s = FrontierShard.remote(0, RELEVANCE)
    ray.get(
        s.enqueue.remote(
            pa.array(["http://h/z", "http://h/a"]),
            pa.array([1, 1]),
            pa.array(["h", "h"]),
            pa.array([7, 1]),
        )
    )
    d = ray.get(s.dump.remote())
    s2 = FrontierShard.remote(0, RELEVANCE)
    ray.get(
        s2.load.remote(
            {k: d[k] for k in ("seen", "pending", "errored", "host_tokens", "cash")}
        )
    )
    _meta, t = ray.get(s2.take.remote(0))
    assert t["url"].to_pylist() == ["http://h/z", "http://h/a"]


def test_relevance_scores_ride_checkpoints(ray_session, tmp_path):
    """Kill between rounds mid-drain: the resumed focused crawl reloads
    the best-parent scores and schedules every remaining URL at the
    SAME round an uninterrupted run would."""
    import pyarrow.parquet as pq

    from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig, run_crawl

    corpus = tmp_path / "rel_pages"
    corpus.mkdir()
    # two-level fanout-3 tree on one host; parents mention the topic
    # 0..3 times so the budget-1 drain order is score-driven
    # bodies live in <main> — the goldie cleaner's content root; score
    # counts run over the CLEANED html_content, so a main-less page
    # would score 0
    urls, htmls = ["http://a.ca/d0"], [
        '<main><p>kiwi</p><a href="/d1">1</a><a href="/d2">2</a>'
        '<a href="/d3">3</a></main>'
    ]
    for i in (1, 2, 3):
        urls.append(f"http://a.ca/d{i}")
        htmls.append(
            "<main><p>" + "kiwi " * i + "</p>"
            + "".join(f'<a href="/d{3 * i + j}">x</a>' for j in (1, 2, 3))
            + "</main>"
        )
    for i in range(4, 13):
        urls.append(f"http://a.ca/d{i}")
        htmls.append("<main><p>leaf</p></main>")
    pq.write_table(
        pa.table({"url": urls, "html": htmls}), corpus / "part0.parquet"
    )

    kw = dict(
        n_shards=2,
        max_depth=3,
        per_host_budget=1,
        priority="relevance_desc",
        relevance_keyword="kiwi",
    )
    base = run_crawl(
        str(corpus), ["http://a.ca/d0"], CrawlConfig(max_rounds=64, **kw)
    )
    base_order = sorted(
        zip(base.order["url"].to_pylist(), base.order["round"].to_pylist())
    )
    assert len(base_order) == 13
    # children inherit the PARENT's score: d1/d2/d3 all tie at the
    # seed's count (1), but d3's kids (endorsed 3) must fully drain
    # before d1's kids (endorsed 1) under the budget-1 throttle
    rnd = dict(base_order)
    assert max(rnd[f"http://a.ca/d{3 * 3 + j}"] for j in (1, 2, 3)) < min(
        rnd[f"http://a.ca/d{3 * 1 + j}"] for j in (1, 2, 3)
    )

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
