"""Per-round, per-shard Parquet checkpoints with lineage metadata.

Replaces the reference's append-only scraped/pending/errored files and
full-file pending rewrites (goldie_playwright_parallel.py:514-645) with
the layout the north_rule asks for:

    ckpt_dir/
      round=000003/
        shard=0000/<table>.parquet   <- one file per FrontierShard.dump()
        ...                             table (the shard owns the set)
        _lineage.json        <- written LAST via temp+rename: the commit
                                marker {round, config_hash, counts}

A round directory without ``_lineage.json`` is incomplete and ignored
by resume (atomicity). Note: the always-present tables are written even
when empty (a round with zero errored urls still checkpoints an empty
errored.parquet) — a completed round is detected by its manifest, never
by file presence.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray


def _round_dir(ckpt_dir: str, round_no: int) -> str:
    return os.path.join(ckpt_dir, f"round={round_no:06d}")


def write_checkpoint(
    ckpt_dir: str,
    round_no: int,
    shards: list,
    config_hash: str,
    metrics: dict,
    partial_attempt: int | None = None,
) -> str:
    """Dump every shard's state; commit with _lineage.json last.

    ``partial_attempt`` marks a MID-ROUND salvage checkpoint (graceful
    SIGTERM): state goes to ``round=N.partial`` — invisible to
    latest_complete_round (the '.' transient filter) but discovered by
    partial_round() — and resume re-runs round N over the salvaged
    pending remainder, tagging its outputs with attempt+1."""
    final = _round_dir(ckpt_dir, round_no)
    if partial_attempt is not None:
        final += ".partial"
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    dumps = ray.get([s.dump.remote() for s in shards])
    counts = {"seen": 0, "pending": 0, "errored": 0}
    for i, tables in enumerate(dumps):
        sdir = os.path.join(tmp, f"shard={i:04d}")
        os.makedirs(sdir, exist_ok=True)
        for name, table in tables.items():
            pq.write_table(table, os.path.join(sdir, f"{name}.parquet"))
        for name in counts:
            counts[name] += tables[name].num_rows
    with open(os.path.join(tmp, "_lineage.json.tmp"), "w") as f:
        json.dump(
            {
                "round": round_no,
                "config_hash": config_hash,
                "n_shards": len(shards),
                "counts": counts,
                "metrics": metrics,
                **(
                    {"partial": True, "attempt": partial_attempt}
                    if partial_attempt is not None
                    else {}
                ),
            },
            f,
        )
    os.rename(
        os.path.join(tmp, "_lineage.json.tmp"), os.path.join(tmp, "_lineage.json")
    )
    # overwrite via rename-aside: the previous copy of this round stays
    # recoverable until the new one is fully in place (a crash between a
    # delete and the rename must never lose the round's only copy)
    old = final + ".old"
    if os.path.exists(final):
        shutil.rmtree(old, ignore_errors=True)
        os.rename(final, old)
    os.rename(tmp, final)
    shutil.rmtree(old, ignore_errors=True)
    return final


def latest_complete_round(ckpt_dir: str) -> int | None:
    """Highest round number whose _lineage.json exists, else None."""
    if not os.path.isdir(ckpt_dir):
        return None
    best = None
    for name in os.listdir(ckpt_dir):
        if not name.startswith("round=") or "." in name:
            # skip round=N.tmp / round=N.old transients
            continue
        if os.path.exists(os.path.join(ckpt_dir, name, "_lineage.json")):
            r = int(name.split("=", 1)[1])
            best = r if best is None or r > best else best
    return best


def read_lineage(ckpt_dir: str, round_no: int) -> dict:
    with open(os.path.join(_round_dir(ckpt_dir, round_no), "_lineage.json")) as f:
        return json.load(f)


def partial_round(ckpt_dir: str) -> tuple[int, dict] | None:
    """Newest committed round=N.partial salvage, as (round, lineage);
    None when no salvage exists. Resume prefers a partial NEWER than
    the last complete round (the kill interrupted round N = last+1)."""
    if not os.path.isdir(ckpt_dir):
        return None
    best: tuple[int, dict] | None = None
    for name in os.listdir(ckpt_dir):
        if not name.startswith("round=") or not name.endswith(".partial"):
            continue
        lpath = os.path.join(ckpt_dir, name, "_lineage.json")
        if not os.path.exists(lpath):
            continue
        r = int(name.split("=", 1)[1].split(".", 1)[0])
        if best is None or r > best[0]:
            with open(lpath) as f:
                best = (r, json.load(f))
    return best


def clear_partial(ckpt_dir: str, round_no: int) -> None:
    """Drop a salvage checkpoint once its round has completed for real."""
    shutil.rmtree(
        _round_dir(ckpt_dir, round_no) + ".partial", ignore_errors=True
    )


def load_checkpoint(
    ckpt_dir: str, round_no: int, shards: list, partial: bool = False
) -> None:
    """Restore every shard from a complete round's dump: every
    parquet file in a shard dir is one table of its ``load`` dict."""
    rdir = _round_dir(ckpt_dir, round_no) + (".partial" if partial else "")
    loads = []
    for i, shard in enumerate(shards):
        sdir = os.path.join(rdir, f"shard={i:04d}")
        tables = {
            name[: -len(".parquet")]: pq.read_table(os.path.join(sdir, name))
            for name in os.listdir(sdir)
            if name.endswith(".parquet")
        }
        loads.append(shard.load.remote(tables))
    ray.get(loads)


def append_metrics(ckpt_dir: str, rows: list[dict]) -> None:
    """Per-round/partition throughput-and-lag metric rows (north_rule)."""
    os.makedirs(os.path.join(ckpt_dir, "metrics"), exist_ok=True)
    if not rows:
        return
    table = pa.Table.from_pylist(rows)
    path = os.path.join(
        ckpt_dir, "metrics", f"round={rows[0]['round']:06d}.parquet"
    )
    pq.write_table(table, path)
