"""Crawl with out_dir: per-round partitioned crawl_items written from
the round tasks themselves."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig, run_crawl
from louis_crawler_legacy_ray.sources.pages import (
    lang_segment,
    pages_from_documents,
    synth_documents,
    write_pages_parquet,
)

# the checkout this file belongs to: its crawl_job.py runs its own tree
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("fanout", ["tasks"])
def test_out_dir_written_per_round(ray_session, tmp_path, fanout):
    docs = synth_documents(40, seed=13)
    pages = pages_from_documents(docs)
    d = str(tmp_path / "pages")
    write_pages_parquet(pages, d, rows_per_file=16)
    seed = (
        f"http://inspection.canada.ca/"
        f"{lang_segment(docs['lang'][0].as_py())}/{docs['source'][0].as_py()}/doc0"
    )
    out = str(tmp_path / f"out_{fanout}")
    res = run_crawl(
        d,
        [seed],
        CrawlConfig(
            n_shards=2,
            max_depth=5,
            max_rounds=10,
        ),
        out_dir=out,
    )
    files = glob.glob(f"{out}/crawl_items/round=*/part-*.parquet")
    assert files
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert total == res.counts["seen"]
    # each written item has the extraction schema
    cols = set(pq.read_table(files[0]).column_names)
    assert {"url", "title", "lang", "html_content", "children", "links"} <= cols
    # round partitioning exists (>= 2 distinct round dirs)
    rounds = {f.split("round=")[1].split("/")[0] for f in files}
    assert len(rounds) >= 2


def test_write_items_part_retry_overwrites(tmp_path):
    """A task retry re-writing the same (round, block) part must
    replace the earlier attempt's rows, never append a duplicate
    file (the exactly-once invariant for per-round crawl_items)."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from louis_crawler_legacy_ray.pipelines.crawl import _write_items_part

    out = str(tmp_path / "round=1")
    first = pa.table({"url": ["a", "b"], "n": [1, 2]})
    second = pa.table({"url": ["a", "b", "c"], "n": [1, 2, 3]})
    _write_items_part(first, out, "part-00003")
    _write_items_part(second, out, "part-00003")  # the retry
    files = glob.glob(f"{out}/*.parquet")
    assert files == [f"{out}/part-00003.parquet"]
    assert pq.read_table(files[0]).num_rows == 3
    assert not glob.glob(f"{out}/.*tmp*")  # no stray tmp attempts


def test_per_partition_metrics_in_checkpoint(ray_session, tmp_path):
    """Round tasks roll their per-task phase timings (p_* columns)
    into the round metrics rows, and append_metrics persists them to
    the checkpoint's metrics parquet (north_rule: per-partition
    throughput/lag metrics)."""
    docs = synth_documents(40, seed=13)
    pages = pages_from_documents(docs)
    d = str(tmp_path / "pages")
    write_pages_parquet(pages, d, rows_per_file=16)
    seed = (
        f"http://inspection.canada.ca/"
        f"{lang_segment(docs['lang'][0].as_py())}/{docs['source'][0].as_py()}/doc0"
    )
    ckpt = str(tmp_path / "ckpt")
    res = run_crawl(
        d,
        [seed],
        CrawlConfig(
            n_shards=2,
            max_depth=5,
            max_rounds=10,
            checkpoint_dir=ckpt,
        ),
        out_dir=None,
    )
    want = {
        "p_n_tasks", "p_cpu_filter", "p_cpu_extract", "p_cpu_send",
        "p_task_span", "p_start_spread", "p_end_spread",
        "p_t_counts_wait", "p_t_poll", "p_t_submit",
    }
    # in-memory metrics rows carry the rollup...
    assert want <= set(res.metrics[0].keys())
    assert res.metrics[0]["p_n_tasks"] >= 1
    # the r3 distributed control plane stamps its bounded driver
    # footprint per round (0 here: no cap probes, no inline path)
    assert all(m["driver_rows"] == 0 for m in res.metrics)
    # ...and so do the persisted per-round metric files
    files = sorted(glob.glob(f"{ckpt}/metrics/round=*.parquet"))
    assert files
    cols = set(pq.read_table(files[0]).column_names)
    assert want <= cols


def test_crawl_job_entrypoint(tmp_path):
    """tools/crawl_job.py — the `ray job submit` entrypoint — runs a
    crawl end-to-end in a subprocess (own Ray session), emits the
    one-line JSON summary, and resumes from its checkpoint."""
    import json
    import subprocess
    import sys

    docs = synth_documents(40, seed=13)
    pages = pages_from_documents(docs)
    d = str(tmp_path / "pages")
    write_pages_parquet(pages, d, rows_per_file=16)
    seed = (
        f"http://inspection.canada.ca/"
        f"{lang_segment(docs['lang'][0].as_py())}/{docs['source'][0].as_py()}/doc0"
    )
    ckpt = str(tmp_path / "ckpt")
    cmd = [
        sys.executable, "tools/crawl_job.py", "--pages", d, "--seeds", seed,
        "--checkpoint", ckpt, "--shards", "2", "--max-depth", "4",
    ]
    env = {"RAY_ADDRESS": "local"}
    import os

    env = dict(os.environ, RAY_ADDRESS="local")
    r = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=REPO)
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["fetched"] > 0 and summary["rounds"] >= 2
    # resume from the finished checkpoint: nothing left to do
    r2 = subprocess.run(cmd + ["--resume"], capture_output=True, text=True, env=env, cwd=REPO)
    assert r2.returncode == 0, r2.stderr[-2000:]
    s2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert s2["fetched"] == summary["fetched"]


def test_crawl_job_policy_flags(tmp_path):
    """The policy knobs ride the CLI: robots discovered from the corpus
    (--obey-robots), Crawl-delay-derived budgets (--honor-crawl-delay),
    trap deny patterns and redirect following — one subprocess crawl
    where all four bind."""
    import json
    import os
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    d = str(tmp_path / "policy_pages")
    os.makedirs(d)
    pages = pa.table(
        {
            "url": [
                "http://a.ca/robots.txt",
                "http://a.ca/root",
                "http://a.ca/page",
                "http://a.ca/moved",
                "http://a.ca/final",
                "http://a.ca/private/x",
                "http://a.ca/cal?d=1",
            ],
            "html": [
                b"User-agent: *\nDisallow: /private/\nCrawl-delay: 30\n",
                b'<a href="/private/x">p</a><a href="/page">g</a>'
                b'<a href="/cal?d=1">c</a><a href="/moved">m</a>',
                b"<p>leaf</p>",
                b'<meta http-equiv="refresh" content="0;url=http://a.ca/final">',
                b"<p>fin</p>",
                b"<p>secret</p>",
                b"<p>trap</p>",
            ],
        }
    )
    pq.write_table(pages, os.path.join(d, "part0.parquet"))
    env = dict(os.environ, RAY_ADDRESS="local")
    r = subprocess.run(
        [
            sys.executable, "tools/crawl_job.py", "--pages", d,
            "--seeds", "http://a.ca/root", "--shards", "2",
            "--max-depth", "3", "--obey-robots", "--honor-crawl-delay",
            "--deny-pattern", r"/cal\?", "--follow-redirects",
        ],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    # root + page + moved + final fetched; /private/x robots-quarantined,
    # /cal?d=1 trap-quarantined; Crawl-delay 30 -> budget 2/round makes
    # the schedule exactly 3 rounds (1, 2, 1)
    assert summary["fetched"] == 4
    assert summary["errored"] == 2
    assert summary["rounds"] == 3
