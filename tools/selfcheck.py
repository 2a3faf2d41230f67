"""Self-check harness mirroring the driver's correctness gate: run each
queries() entry AND its oracle_sql() on the same sf_dir, compare
row-count, column names, and an order-insensitive value hash (columns
sorted by name, rows sorted by all columns, values stringified).

Each batch of BATCH names runs in its own child process (one Ray
session per child): a child that dies (a Ray abort takes the whole
process) costs only the query it was running, which is reported as
FAIL with the child's stderr tail, and the rest run in a new child.
The summary always prints; any failure exits 1.

Usage:
    python tools/selfcheck.py [--sf SF_DIR] [--oracled] [names...]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

# the checkout this file belongs to (not whichever one is installed)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# query names per child process: a Ray start is paid once per batch,
# so the 178 oracled names take two (a dead child's rest goes to a new
# child whatever the size, so a smaller batch buys no isolation)
BATCH = 90
_RESULT = ("OK   ", "ok   ", "FAIL ")


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    payload = df.to_csv(index=False, float_format="%.12g").encode()
    return hashlib.md5(payload).hexdigest()


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rowcount ray={len(ray_df)} sql={len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(
            f"columns ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
        )
        return problems
    a, b = canonical(ray_df), canonical(sql_df)
    if value_hash(a) != value_hash(b):
        problems.append("value hash mismatch")
        if len(a) == len(b):
            for c in a.columns:
                ac, bc = a[c], b[c]
                try:
                    if ac.dtype.kind == "f":
                        import numpy as np

                        if not np.allclose(ac, bc, rtol=1e-9, equal_nan=True):
                            problems.append(f"  col {c} differs (float)")
                    elif not ac.equals(bc):
                        problems.append(f"  col {c} differs")
                except Exception as e:  # noqa: BLE001
                    problems.append(f"  col {c} compare error: {e}")
    return problems


def _catalog():
    sys.path.insert(0, REPO)
    import __ray_entry__ as entrymod

    return entrymod.queries(), entrymod.oracle_sql()


def run_batch(sf: str, names: list[str]) -> None:
    """Child side: check ``names`` in one Ray session, one result line
    per name, in order, flushed as it lands."""
    import ray

    ray.init(
        address="local",
        num_cpus=8,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    queries, oracles = _catalog()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    for name in names:
        print(check(name, sf, queries, oracles, con), flush=True)
    ray.shutdown()


def check(name: str, sf: str, queries: dict, oracles: dict, con) -> str:
    """One query against its oracle, as a result line."""
    try:
        ray_df = to_pandas(queries[name](sf))
    except Exception as e:  # noqa: BLE001
        return f"FAIL {name}: query raised {type(e).__name__}: {e}"
    if name not in oracles:
        return f"ok   {name}: rows={len(ray_df)} (rows-only, no oracle)"
    try:
        sql_df = con.sql(oracles[name]).df()
    except Exception as e:  # noqa: BLE001
        return f"FAIL {name}: oracle raised {type(e).__name__}: {e}"
    problems = compare(name, ray_df, sql_df)
    if problems:
        return f"FAIL {name}: " + "; ".join(problems)
    return f"OK   {name}: rows={len(ray_df)} hash match"


def _run_child(sf: str, names: list[str]) -> tuple[list[str], int, str]:
    """Run one batch in a child, echoing its output; returns the result
    lines it printed (in ``names`` order), its exit code and its
    stderr tail."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--sf", sf, *names]
    results: list[str] = []
    with tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=REPO
        )
        for line in proc.stdout:
            line = line.rstrip("\n")
            print(line, flush=True)
            nxt = names[len(results)] if len(results) < len(names) else None
            if line.startswith(_RESULT) and line.split()[1] == f"{nxt}:":
                results.append(line)
        rc = proc.wait()
        err.seek(0)
        tail = "".join(err.readlines()[-20:])
    return results, rc, tail


def run_batches(sf: str, names: list[str]) -> dict[str, str]:
    """Check ``names`` in child processes of BATCH names each; returns
    each name's result line. A child that dies inside a query fails that
    query, with the child's stderr tail in its line, and the rest of
    the batch goes to a new child."""
    lines: dict[str, str] = {}
    todo = list(names)
    while todo:
        batch, todo = todo[:BATCH], todo[BATCH:]
        results, rc, tail = _run_child(sf, batch)
        lines.update(zip(batch, results))
        if len(results) < len(batch):
            dead = batch[len(results)]
            lines[dead] = (
                f"FAIL {dead}: child process exited {rc} while running it; "
                f"stderr tail:\n{tail}"
            )
            print(lines[dead], flush=True)
            todo = batch[len(results) + 1 :] + todo
    return lines


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.001")
    ap.add_argument(
        "--oracled",
        action="store_true",
        help="run every query that HAS an oracle (the full exact gate)",
    )
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("names", nargs="*")
    args = ap.parse_args()
    if args.child:
        run_batch(args.sf, args.names)
        return 0

    queries, oracles = _catalog()
    if args.oracled:
        names = [n for n in queries if n in oracles] + (args.names or [])
    else:
        names = args.names or list(queries)
    lines = run_batches(args.sf, names)
    failed = [n for n in names if lines[n].startswith("FAIL")]
    print(
        f"summary: {len(names) - len(failed)}/{len(names)} passed"
        + (f"; FAIL: {' '.join(failed)}" if failed else ""),
        flush=True,
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
