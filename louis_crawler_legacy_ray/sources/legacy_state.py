"""Migration seam for the reference's crawl-state text files.

The reference's parallel spider persists its whole crawl state as
three flat text files (louis/crawler/spiders/goldie_playwright_parallel.py):

  scraped_urls.txt   one URL per line                  (:514-529)
  pending_urls.txt   ``URL|depth`` per line; a line with no ``|`` or a
                     non-int depth falls back to depth 0  (:531-561)
  errored_urls.txt   one URL per line                  (:563-578)

A user switching engines mid-crawl carries exactly these files. This
module reads them with the reference's own parsing rules (strip, skip
blank lines, rsplit on the LAST ``|``, set semantics), loads them into
the host-sharded frontier (the same URL->shard router as a live crawl,
so politeness/seen colocation is identical to a native run), and can
export a frontier back out so a migration is reversible.

Scale note: these are single-process text files — the reference's
format caps out long before 10^10 URLs, so import/export is a
MIGRATION tool, not a checkpoint path (ours is one parquet file per
shard and round, written and read by the shard itself,
state/checkpoint.py). Import partitions the parsed rows
per shard and ships one Arrow table set per shard; export streams one
shard dump at a time — the driver holds one shard's slice, never the
whole crawl.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray


def read_scraped_urls(path: str) -> set[str]:
    """Reference parsing (:514-529): stripped, blank lines skipped."""
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as f:
        return {line.strip() for line in f if line.strip()}


def read_pending_urls(path: str) -> set[tuple[str, int]]:
    """Reference parsing (:531-561): ``URL|depth`` split on the LAST
    ``|``; non-int depth -> the WHOLE line at depth 0 (the reference's
    fallback keeps the pipe in the url); no ``|`` at all -> depth 0."""
    out: set[tuple[str, int]] = set()
    if not os.path.exists(path):
        return out
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if "|" in line:
                url, _, depth_s = line.rpartition("|")
                try:
                    out.add((url, int(depth_s)))
                except ValueError:
                    out.add((line, 0))
            else:
                out.add((line, 0))
    return out


def read_errored_urls(path: str) -> set[str]:
    """Reference parsing (:563-578): same rules as scraped."""
    return read_scraped_urls(path)


def write_legacy_state(
    out_dir: str,
    seen: set[str],
    pending: set[tuple[str, int]],
    errored: set[str],
) -> dict[str, str]:
    """Write the three reference-format files (sorted — the reference
    appends in crawl order but LOADS as sets, so any order is
    load-equivalent; sorted keeps exports reproducible). Returns the
    three paths keyed 'scraped'/'pending'/'errored'."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "scraped": os.path.join(out_dir, "scraped_urls.txt"),
        "pending": os.path.join(out_dir, "pending_urls.txt"),
        "errored": os.path.join(out_dir, "errored_urls.txt"),
    }
    with open(paths["scraped"], "w", encoding="utf-8") as f:
        for u in sorted(seen):
            f.write(f"{u}\n")
    with open(paths["pending"], "w", encoding="utf-8") as f:
        for u, d in sorted(pending):
            f.write(f"{u}|{d}\n")
    with open(paths["errored"], "w", encoding="utf-8") as f:
        for u in sorted(errored):
            f.write(f"{u}\n")
    return paths


def import_legacy_state(
    frontier,
    seen: set[str],
    pending: set[tuple[str, int]],
    errored: set[str],
    error_label: str = "legacy_import",
) -> dict[str, int]:
    """Load parsed reference state into a (fresh) Frontier's shards.

    Semantics mirror the reference's own admission rules
    (:606-617): a pending url already in seen or errored is dropped;
    a url pending at several depths (legal in the reference's
    (url, depth) set) collapses to its MINIMUM depth — the depth its
    BFS sort (:647-664) would have fetched it at first. Routing uses
    the frontier's own router, so an imported crawl is
    indistinguishable from one that reached this state natively."""
    from ..pipelines.crawl import _shard_rows

    cfg = frontier.cfg
    best_depth: dict[str, int] = {}
    for url, depth in pending:
        if url in seen or url in errored:
            continue
        d0 = best_depth.get(url)
        if d0 is None or depth < d0:
            best_depth[url] = depth

    tables: list[dict[str, pa.Table]] = [{} for _ in frontier.shards]
    for sid, sub in _shard_rows(cfg, sorted(seen)):
        tables[sid]["seen"] = sub.select(["url"])
    for sid, sub in _shard_rows(
        cfg, list(best_depth), depth=pa.array(list(best_depth.values()), pa.int32())
    ):
        tables[sid]["pending"] = sub.select(["url", "depth", "host"])
    for sid, sub in _shard_rows(cfg, sorted(errored)):
        tables[sid]["errored"] = sub.select(["url"]).append_column(
            "error", pa.array([error_label] * sub.num_rows, pa.string())
        )
    loads = [shard.load.remote(t) for shard, t in zip(frontier.shards, tables)]
    ray.get(loads)
    return {
        "seen": len(seen),
        "pending": len(best_depth),
        "errored": len(errored),
    }


def export_legacy_state(frontier, out_dir: str) -> dict[str, str]:
    """Dump a frontier back into the reference's three text files,
    streaming one shard at a time (driver holds one shard's slice)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "scraped": os.path.join(out_dir, "scraped_urls.txt"),
        "pending": os.path.join(out_dir, "pending_urls.txt"),
        "errored": os.path.join(out_dir, "errored_urls.txt"),
    }
    files = {k: open(p, "w", encoding="utf-8") for k, p in paths.items()}
    try:
        for shard in frontier.shards:
            d = ray.get(shard.dump.remote())
            for u in d["seen"]["url"].to_pylist():
                files["scraped"].write(f"{u}\n")
            for u, dep in zip(
                d["pending"]["url"].to_pylist(),
                d["pending"]["depth"].to_pylist(),
            ):
                files["pending"].write(f"{u}|{dep}\n")
            for u in d["errored"]["url"].to_pylist():
                files["errored"].write(f"{u}\n")
    finally:
        for f in files.values():
            f.close()
    return paths


__all__ = [
    "read_scraped_urls",
    "read_pending_urls",
    "read_errored_urls",
    "write_legacy_state",
    "import_legacy_state",
    "export_legacy_state",
]
