"""Spill-regime holdout (VERDICT r3 next-round #6).

One crawl at ~2M URLs x 28 KB pages — ~56 GB of uncompressed page
blocks against the box's ~37 GiB object store — so the primed corpus
MUST spill, and crawl rounds stream blocks back from disk. Records:

* plasma spill/restore bytes (parsed from Ray's memory summary),
* driver peak RSS (ru_maxrss),
* per-round driver-resident row counts and phase (p_*) metrics,
* timed steady-state crawl wall time + URLs/s,

and prints ONE JSON line for BASELINE.md. Pass --pages to change the
frontier size (default 2097151).

    python tools/spill_holdout.py [--pages N] [--pad B] [--cpus C]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spill_stats() -> dict:
    """Cumulative spilled/restored byte counts, parsed from the raylet
    log (the grpc-backed memory_summary API is unavailable in this
    container). The raylet logs a monotone 'Spilled N MiB, M objects'
    line as counters grow — take the max seen so far."""
    import glob
    import re

    out: dict = {}
    logs = sorted(
        glob.glob("/tmp/ray/session_latest/logs/raylet.err")
        + glob.glob("/tmp/ray/ray/session_latest/logs/raylet.err")
    )
    for path in logs:
        try:
            with open(path, errors="replace") as f:
                txt = f.read()
        except OSError:
            continue
        for key, pat in (
            ("spilled", r"Spilled (\d+) MiB, (\d+) objects"),
            ("restored", r"Restored (\d+) MiB, (\d+) objects"),
        ):
            hits = re.findall(pat, txt)
            if hits:
                mib, objs = max((int(a), int(b)) for a, b in hits)
                out[f"{key}_mib"] = mib
                out[f"{key}_objects"] = objs
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--pages", type=int, default=2097151)
    p.add_argument("--pad", type=int, default=28000)
    p.add_argument("--cpus", type=int, default=32)
    p.add_argument("--trials", type=int, default=2)
    args = p.parse_args(argv)

    from bench import build_bench_corpus

    t0 = time.perf_counter()
    corpus = build_bench_corpus(args.pages, args.pad)
    build_sec = round(time.perf_counter() - t0, 1)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow.parquet as pq

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        prime_pages_cache,
        run_crawl,
    )

    seed = None
    for f in sorted(os.listdir(corpus)):
        if not f.endswith(".parquet"):
            continue
        urls = pq.read_table(os.path.join(corpus, f), columns=["url"])["url"]
        seed = next((u for u in urls.to_pylist() if u.endswith("/doc0")), None)
        if seed:
            break
    assert seed is not None

    t0 = time.perf_counter()
    prime_pages_cache(corpus)
    prime_sec = round(time.perf_counter() - t0, 1)
    spill_after_prime = _spill_stats()

    cfg = CrawlConfig(n_shards=8, max_depth=24, max_rounds=28)
    run_crawl(corpus, [seed], cfg, out_dir=None)  # warm
    trial_secs = []
    res = None
    for _ in range(max(1, args.trials)):
        t0 = time.perf_counter()
        res = run_crawl(corpus, [seed], cfg, out_dir=None)
        trial_secs.append(round(time.perf_counter() - t0, 2))
    crawl_sec = min(trial_secs)
    n = res.counts["seen"]

    spill_final = _spill_stats()
    rounds = [
        {
            k: r.get(k)
            for k in (
                "round",
                "selected",
                "fetched",
                "seconds",
                "urls_per_sec",
                "driver_rows",
                "p_cpu_filter",
                "p_cpu_extract",
                "p_task_span",
            )
            if k in r
        }
        for r in res.metrics
    ]
    max_driver_rows = max((r.get("driver_rows") or 0) for r in res.metrics)
    out = {
        "metric": "spill-regime crawl holdout",
        "n_urls": n,
        "pad_bytes": args.pad,
        "uncompressed_pages_gib": round(args.pages * args.pad / 2**30, 1),
        "num_cpus": args.cpus,
        "value": crawl_sec,
        "unit": "sec",
        "urls_per_sec": round(n / crawl_sec, 1),
        "trial_secs": trial_secs,
        "corpus_build_sec": build_sec,
        "prime_sec": prime_sec,
        "spill_after_prime": spill_after_prime,
        "spill_final": spill_final,
        "driver_peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        // 1024,
        "max_driver_rows": max_driver_rows,
        "rounds": rounds,
    }
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
