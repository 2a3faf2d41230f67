"""A graceful stop that lands after every task's deliveries arrived:
the round commits as a complete round (not a ``.partial``), with the
same metrics row as any finished round, and a resume continues the
uninterrupted schedule."""

import glob
import os

import pyarrow.parquet as pq

from louis_crawler_legacy_ray.pipelines import crawl as crawl_mod
from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    pages_expand,
    run_frontier,
)
from louis_crawler_legacy_ray.sources.pages import (
    lang_segment,
    pages_from_documents,
    synth_documents,
    write_pages_parquet,
)
from louis_crawler_legacy_ray.state.checkpoint import (
    latest_complete_round,
    partial_round,
)

_KEYS = ["round", "depth", "url"]


def _order(res):
    return res.order.select(_KEYS).sort_by([(k, "ascending") for k in _KEYS])


def test_salvage_after_all_deliveries_commits_a_full_round(ray_session, tmp_path):
    docs = synth_documents(60, seed=7)
    corpus = str(tmp_path / "pages")
    write_pages_parquet(
        pages_from_documents(docs, n_hosts=4), corpus, rows_per_file=16
    )
    seed = (
        f"http://h0.example.ca/{lang_segment(docs['lang'][0].as_py())}/"
        f"{docs['source'][0].as_py()}/doc0"
    )

    def cfg(name):
        return CrawlConfig(
            n_shards=2, max_depth=10, checkpoint_dir=str(tmp_path / name)
        )

    ref_cfg = cfg("ref")
    ref = run_frontier(pages_expand(corpus, ref_cfg, None, 0), [seed], ref_cfg)
    assert len(ref.metrics) > 2  # round 1 is not the crawl's last

    stop_cfg = cfg("stop")
    expand = pages_expand(corpus, stop_cfg, None, 0)

    def stop_after_round_1(sel, round_no, frontier, part_tag=""):
        # the round has reconciled every delivery; the stop lands now
        stats = expand(sel, round_no, frontier, part_tag=part_tag)
        if round_no == 1:
            crawl_mod.request_graceful_stop()
            stats["interrupted"] = True
        return stats

    stop_after_round_1.n_buckets = getattr(expand, "n_buckets", None)
    try:
        stopped = run_frontier(stop_after_round_1, [seed], stop_cfg)
    finally:
        crawl_mod.clear_graceful_stop()

    assert [m["round"] for m in stopped.metrics] == [0, 1]
    normal = set(ref.metrics[1])
    assert set(stopped.metrics[0]) == normal
    assert set(stopped.metrics[1]) == normal
    ckpt = stop_cfg.checkpoint_dir
    assert latest_complete_round(ckpt) == 1
    assert partial_round(ckpt) is None
    files = sorted(glob.glob(os.path.join(ckpt, "metrics", "round=*.parquet")))
    assert [set(pq.read_schema(f).names) for f in files] == [normal, normal]

    resumed = run_frontier(
        pages_expand(corpus, stop_cfg, None, 0), [seed], stop_cfg, resume=True
    )
    assert _order(resumed).equals(_order(ref))
