"""Mid-round SIGTERM salvage (VERDICT r2 next-5, mirroring the
reference's SIGINT path in goldie_playwright_parallel.py:871-901): a
crawl job killed mid-round keeps the fetches that landed, requeues the
rest, commits a round=N.partial checkpoint, and a --resume run finishes
the crawl with the SAME final order and seen-set as an uninterrupted
run. Subprocess-level (own Ray session), like test_crawl_job_entrypoint."""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

from louis_crawler_legacy_ray.sources.pages import (
    lang_segment,
    pages_from_documents,
    synth_documents,
    write_pages_parquet,
)

ENV = dict(os.environ, RAY_ADDRESS="local")
# the checkout this file belongs to: its crawl_job.py runs its own tree
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _corpus(tmp_path):
    docs = synth_documents(2000, seed=13)
    pages = pages_from_documents(docs)
    d = str(tmp_path / "pages")
    write_pages_parquet(pages, d, rows_per_file=64)
    seed = (
        f"http://inspection.canada.ca/"
        f"{lang_segment(docs['lang'][0].as_py())}/{docs['source'][0].as_py()}/doc0"
    )
    return d, seed


def _order_table(ckpt: str) -> pa.Table:
    files = sorted(glob.glob(f"{ckpt}/order/round=*/shard-*.parquet"))
    assert files
    return pa.concat_tables([pq.read_table(f) for f in files]).sort_by(
        [("round", "ascending"), ("depth", "ascending"), ("url", "ascending")]
    )


def _cmd(d, seed, ckpt, extra=()):
    return [
        sys.executable, "tools/crawl_job.py", "--pages", d, "--seeds", seed,
        "--checkpoint", ckpt, "--shards", "2", "--max-depth", "10", *extra,
    ]


def test_sigterm_midround_salvage_and_resume(tmp_path):
    d, seed = _corpus(tmp_path)

    # uninterrupted reference run
    ref_ckpt = str(tmp_path / "ckpt_ref")
    r = subprocess.run(
        _cmd(d, seed, ref_ckpt), capture_output=True, text=True,
        env=ENV, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    ref_summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert not ref_summary["interrupted"]
    ref_order = _order_table(ref_ckpt)

    # kill run: staggered tasks (250ms * (t+1)) make round 8 (256 URLs,
    # 2 tasks) span ~0.5s; SIGTERM fired shortly after round 7 commits
    # lands mid-round-8 with task 0 done and task 1 still sleeping.
    # Timing is inherently racy, so retry until a .partial was salvaged.
    salvaged = False
    for attempt in range(4):
        ckpt = str(tmp_path / f"ckpt_kill{attempt}")
        proc = subprocess.Popen(
            _cmd(d, seed, ckpt, ("--task-delay-ms", "250")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=ENV, cwd=REPO,
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if os.path.exists(f"{ckpt}/round=000007/_lineage.json"):
                time.sleep(0.35)
                proc.send_signal(signal.SIGTERM)
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, err[-2000:]
        summary = json.loads(out.strip().splitlines()[-1])
        partials = glob.glob(f"{ckpt}/round=*.partial/_lineage.json")
        if partials and summary["interrupted"]:
            salvaged = True
            break
        # between-rounds stop (timing miss): still resumable — retry
        # for the mid-round case this test exists to pin
    assert salvaged, "SIGTERM never landed mid-round in 4 attempts"

    # the salvage kept at least the completed task's fetches
    lin = json.load(open(partials[0]))
    assert lin["partial"] is True and lin["round"] == 8
    killed_round = lin["round"]

    # resume (no injected delay): finishes the crawl
    r2 = subprocess.run(
        _cmd(d, seed, ckpt, ("--resume",)), capture_output=True, text=True,
        env=ENV, cwd=REPO,
    )
    assert r2.returncode == 0, r2.stderr[-2000:]
    s2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert not s2["interrupted"]
    assert s2["fetched"] == ref_summary["fetched"]

    # stale salvage cleared once the round completed for real
    assert not glob.glob(f"{ckpt}/round=*.partial")

    # the killed round's order is split across the salvage part (aNN)
    # and the resumed completion part, with no overlap
    rdir = f"{ckpt}/order/round={killed_round:06d}"
    a_parts = glob.glob(f"{rdir}/shard-*.a*.parquet")
    plain = [
        f for f in glob.glob(f"{rdir}/shard-*.parquet")
        if ".a" not in os.path.basename(f)
    ]
    assert a_parts and plain
    salv_urls = set()
    for f in a_parts:
        salv_urls |= set(pq.read_table(f)["url"].to_pylist())
    fin_urls = set()
    for f in plain:
        fin_urls |= set(pq.read_table(f)["url"].to_pylist())
    assert not (salv_urls & fin_urls)

    # the bar: final order (round, depth, url) and seen-set identical
    # to the uninterrupted run
    assert _order_table(ckpt).equals(ref_order)
