"""Per-round Parquet checkpoints, one file per shard, with lineage
metadata.

Replaces the reference's append-only scraped/pending/errored files and
full-file pending rewrites (goldie_playwright_parallel.py:514-645) with
the layout the north_rule asks for:

    ckpt_dir/
      round=000003/
        shard=0000.parquet   <- written BY shard 0, inside its
        shard=0001.parquet      finish_round call: its whole dump()
        ...                     table dict as one row (pack_tables)
        _lineage.json        <- written LAST by the driver via
                                temp+rename: the commit marker
                                {round, config_hash, n_shards, counts}
      round=000004.tmp/      <- the round being written; begin_round
                                empties it before any shard writes

A round directory without ``_lineage.json`` is incomplete and ignored
by resume (atomicity); the driver renames ``round=N.tmp`` to
``round=N`` only after every shard returned its file's row counts.
A round cut by a graceful stop commits the same way, renamed to
``round=N.partial`` instead when some shard deferred a URL. The driver
never holds shard state: shards write their own files inside
``FrontierShard.finish_round(..., ckpt_path)``, stopped rounds
included, and read them back (``FrontierShard.restore``). This module
is the one place that knows the file format: :func:`write_shard_state`
/ :func:`read_shard_state` over the ``dump()`` dict.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray

# the lineage counts: row counts of these dump() tables, summed over shards
_COUNTED = ("seen", "pending", "errored")


def _round_dir(ckpt_dir: str, round_no: int, partial: bool = False) -> str:
    return os.path.join(
        ckpt_dir, f"round={round_no:06d}" + (".partial" if partial else "")
    )


def shard_file(rdir: str, shard_id: int) -> str:
    return os.path.join(rdir, f"shard={shard_id:04d}.parquet")


def begin_round(ckpt_dir: str, round_no: int) -> str:
    """Empty and create the round's ``.tmp`` directory (a stale one
    from a crashed or wider crawl must not leak into the commit) and
    return it: the shards write their files there."""
    tmp = _round_dir(ckpt_dir, round_no) + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return tmp


def write_shard_state(path: str, tables: dict[str, pa.Table]) -> dict:
    """Write one shard's ``dump()`` dict as ONE parquet file: one row,
    one ``list<struct>`` column per table. One file per shard and round
    because a parquet write costs mostly per file, not per byte.
    Returns the lineage row counts."""
    cols = {}
    for name, t in tables.items():
        rows = pa.StructArray.from_arrays(
            [c.combine_chunks() for c in t.columns], fields=list(t.schema)
        )
        cols[name] = pa.ListArray.from_arrays(pa.array([0, len(rows)], pa.int32()), rows)
    pq.write_table(pa.table(cols), path)
    return {name: tables[name].num_rows for name in _COUNTED}


def read_shard_state(path: str) -> dict[str, pa.Table]:
    """The ``dump()`` dict a :func:`write_shard_state` file holds."""
    row = pq.read_table(path)
    return {
        name: pa.Table.from_struct_array(row[name].combine_chunks().flatten())
        for name in row.column_names
    }


def write_checkpoint(
    ckpt_dir: str,
    round_no: int,
    shards: list,
    config_hash: str,
    metrics: dict,
    partial_attempt: int | None = None,
    *,
    shard_counts: list[dict],
) -> str:
    """Commit a round: sum the shards' row counts, write _lineage.json
    last, rename :func:`begin_round`'s ``.tmp`` directory into place.

    ``shard_counts`` are the counts ``finish_round(..., ckpt_path)``
    returned: the shards already wrote their files into the ``.tmp``
    directory.

    ``partial_attempt`` marks a round a graceful stop cut with URLs
    still deferred: it commits to ``round=N.partial`` — invisible to
    latest_complete_round (the '.' transient filter) but discovered by
    partial_round() — and resume re-runs round N over the shards'
    stashed remainder, tagging its outputs with attempt+1."""
    partial = partial_attempt is not None
    final = _round_dir(ckpt_dir, round_no, partial)
    tmp = _round_dir(ckpt_dir, round_no) + ".tmp"
    counts = {name: sum(c[name] for c in shard_counts) for name in _COUNTED}
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
                    if partial
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
    shutil.rmtree(_round_dir(ckpt_dir, round_no, partial=True), ignore_errors=True)


def load_checkpoint(
    ckpt_dir: str, round_no: int, shards: list, partial: bool = False
) -> None:
    """Restore every shard from a committed round: each shard reads its
    own file. Only a ``partial`` round restores the shards' stash (a
    stop after every delivery commits a complete round whose files
    hold an empty one). A round in the per-table layout
    (``shard=iiii/`` directories) is refused before any shard is
    touched."""
    rdir = _round_dir(ckpt_dir, round_no, partial)
    old = sorted(
        n for n in os.listdir(rdir)
        if n.startswith("shard=") and os.path.isdir(os.path.join(rdir, n))
    )
    if old:
        raise ValueError(
            f"checkpoint {rdir} holds per-table shard directories "
            f"({old[0]}/...): that layout was replaced by one "
            "shard=iiii.parquet file per shard; it cannot be resumed "
            "(start a new crawl in a fresh checkpoint_dir)"
        )
    ray.get(
        [s.restore.remote(shard_file(rdir, i), partial) for i, s in enumerate(shards)]
    )


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
