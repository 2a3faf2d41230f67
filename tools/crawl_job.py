"""``ray job submit`` entrypoint for the frontier crawl (north_rule:
"runs via ray job submit on fixed N-node and 4N-node clusters").

On a cluster:

    ray job submit --working-dir . -- \
        python tools/crawl_job.py --pages s3://bucket/pages \
        --seeds https://example.ca/root --out s3://bucket/crawl_out \
        --checkpoint s3://bucket/ckpt --shards 64 --max-depth 6 --resume

In this sandbox the same entrypoint runs against a local corpus and a
local Ray (``ray.init(address=...)`` resolves RAY_ADDRESS, which the
job runner sets on the cluster; locally it starts a one-node Ray).
The job is resumable: ``--resume`` continues from the newest complete
checkpoint round (per-partition frontier + seen state with lineage,
state/checkpoint.py), so a killed job re-submitted with the same
arguments picks up exactly where it stopped.

Exit code 0 and a one-line JSON summary on stdout (rounds, URLs
fetched, throughput, per-round metrics path) — what a scheduler wants
from a batch job.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# --working-dir lands the repo root next to this file's parent
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--pages", required=True, help="pages corpus dir/URI")
    p.add_argument("--seeds", nargs="+", required=True)
    p.add_argument("--out", default=None, help="crawl_items output dir/URI")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--shards", type=int, default=8)
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--max-rounds", type=int, default=64)
    p.add_argument("--round-limit", type=int, default=None)
    p.add_argument("--per-host-budget", type=int, default=None)
    p.add_argument(
        "--politeness", choices=["budget", "token_bucket"], default="budget"
    )
    p.add_argument("--mode", choices=["exact", "approx", "cuckoo"], default="exact")
    p.add_argument("--resume", action="store_true")
    p.add_argument(
        "--task-delay-ms", type=int, default=0,
        help="fault injection: stagger round tasks (kill/salvage tests)",
    )
    p.add_argument(
        "--obey-robots", action="store_true",
        help="honor robots.txt Disallow rules discovered in the corpus",
    )
    p.add_argument(
        "--robots-matcher", choices=["stdlib", "rfc9309"], default="stdlib",
        help="robots rule semantics (rfc9309 = '*'/'$' wildcards, "
        "longest-match, Allow wins ties)",
    )
    p.add_argument(
        "--honor-crawl-delay", action="store_true",
        help="derive per-host budgets from robots Crawl-delay directives",
    )
    p.add_argument(
        "--deny-pattern", action="append", default=None,
        help="trap-guard regex quarantined at admission (repeatable)",
    )
    p.add_argument(
        "--max-retries", type=int, default=0,
        help="transient-failure retries per URL (exponential backoff)",
    )
    p.add_argument(
        "--follow-redirects", action="store_true",
        help="follow meta-refresh redirects at source depth",
    )
    p.add_argument(
        "--obey-meta-robots", action="store_true",
        help="honor page-level <meta name=robots>: nofollow pages "
        "contribute no frontier candidates; noindex rides the items "
        "output for export filters",
    )
    p.add_argument(
        "--ip-group", action="append", default=None, metavar="HOST=GROUP",
        help="bind a vhost to a server group sharing ONE politeness "
        "budget/token-bucket (repeatable; Heritrix ip-based queues)",
    )
    p.add_argument(
        "--priority",
        choices=["depth_url", "short_url_first", "backlink_desc", "opic"],
        default="depth_url",
        help="frontier order key (backlink_desc = online citation-count "
        "ordering, Cho/Garcia-Molina/Page 1998; opic = online page-"
        "importance cash drain, Abiteboul et al. 2003)",
    )
    p.add_argument(
        "--opic-cash", type=int, default=1 << 20,
        help="priority=opic: per-seed starting cash in integer units",
    )
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # on a cluster the job runner sets RAY_ADDRESS; locally this
        # starts a one-node Ray
        ray.init(include_dashboard=False)

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        install_sigterm_salvage,
        run_crawl,
    )

    # graceful mid-round shutdown: SIGTERM salvages completed fetches,
    # requeues the rest, and commits a round=N.partial checkpoint that
    # --resume picks up (reference SIGINT salvage path)
    install_sigterm_salvage()

    robots_by_host = None
    if args.obey_robots or args.honor_crawl_delay:
        # discover the corpus' own robots.txt rows (politeness.py)
        from louis_crawler_legacy_ray.state.politeness import (
            robots_from_corpus,
        )

        robots_by_host = robots_from_corpus(args.pages)

    cfg = CrawlConfig(
        n_shards=args.shards,
        max_depth=args.max_depth,
        max_rounds=args.max_rounds,
        round_limit=args.round_limit,
        per_host_budget=args.per_host_budget,
        politeness=args.politeness,
        mode=args.mode,
        checkpoint_dir=args.checkpoint,
        task_delay_ms=args.task_delay_ms,
        robots_txt_by_host=robots_by_host,
        obey_robots=args.obey_robots,
        robots_matcher=args.robots_matcher,
        honor_crawl_delay=args.honor_crawl_delay,
        deny_url_patterns=args.deny_pattern,
        max_retries=args.max_retries,
        follow_redirects=args.follow_redirects,
        obey_meta_robots=args.obey_meta_robots,
        ip_groups=dict(kv.split("=", 1) for kv in args.ip_group)
        if args.ip_group
        else None,
        priority=args.priority,
        opic_cash=args.opic_cash,
    )
    t0 = time.perf_counter()
    res = run_crawl(args.pages, args.seeds, cfg, out_dir=args.out, resume=args.resume)
    wall = time.perf_counter() - t0
    fetched = int(res.counts["seen"])
    interrupted = bool(res.metrics and "partial_attempt" in res.metrics[-1])
    print(
        json.dumps(
            {
                "rounds": res.rounds,
                "fetched": fetched,
                "errored": int(res.counts["errored"]),
                "seconds": round(wall, 3),
                "urls_per_sec": round(fetched / wall, 1) if wall > 0 else 0.0,
                "interrupted": interrupted,
                "metrics": (
                    f"{args.checkpoint}/metrics" if args.checkpoint else None
                ),
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
