"""Join/lookup stages (SURVEY §2.4).

Two scale regimes, chosen explicitly by the caller:

* **Broadcast** (small side fits in memory): materialize the small
  side's key column once, ship it to every task via Ray's closure
  serialization (the function is pickled once into the object store and
  referenced by every task — effectively ``ray.put`` + per-worker read),
  and filter each Arrow batch with a vectorized ``pc.is_in``. No shuffle.
  This covers the reference's J1 (chunks ∖ embeddings anti-join,
  db.py:686-703) and J4 (seen-membership) at lookup-table sizes.

* **Partitioned hash join** (both sides large): add ``bucket =
  hash(key) % B`` to both sides, group by bucket, and join pairwise
  within buckets via ``map_groups``. Used by the frontier→pages fetch
  join when the frontier round is too big to broadcast. Skew: pick B
  >> num_cpus; salt a hot key by spreading the probe side over
  ``(bucket, salt)`` and replicating the build side per salt.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _collect_key_set(ds: ray.data.Dataset, key: str) -> pa.Array:
    """Materialize one key column of a SMALL dataset on the driver."""
    chunks = [
        batch[key] for batch in ds.select_columns([key]).iter_batches(batch_format="pyarrow")
    ]
    if not chunks:
        return pa.array([], pa.string())
    arr = pa.concat_tables(
        [pa.table({key: c}) for c in chunks]
    )[key]
    return arr.combine_chunks().unique()


def broadcast_anti_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
) -> ray.data.Dataset:
    """Rows of ``left`` whose key does NOT appear in ``right`` (small).

    Reference J1: SELECT c.id FROM chunk_items c LEFT JOIN embedding_items
    e ON c.id=e.token_id WHERE e.token_id IS NULL (db.py:686-703).
    """
    keys = _collect_key_set(right, right_key)

    def f(batch: pa.Table) -> pa.Table:
        if len(keys) == 0:
            return batch
        mask = pc.is_in(batch[left_key], value_set=keys)
        return batch.filter(pc.invert(mask.fill_null(False)))

    return left.map_batches(f, batch_format="pyarrow")


def broadcast_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
) -> ray.data.Dataset:
    """Rows of ``left`` whose key appears in ``right`` (small side)."""
    keys = _collect_key_set(right, right_key)

    def f(batch: pa.Table) -> pa.Table:
        if len(keys) == 0:
            return batch.slice(0, 0)
        return batch.filter(pc.is_in(batch[left_key], value_set=keys).fill_null(False))

    return left.map_batches(f, batch_format="pyarrow")


def broadcast_lookup_join(
    left: ray.data.Dataset,
    right_table: pa.Table,
    left_key: str,
    right_key: str,
    take_cols: list[str],
) -> ray.data.Dataset:
    """Inner join against a small in-memory build side: for each left
    row with a match, append the requested right columns (first match
    wins — build keys are expected unique). Vectorized via Arrow
    index_in + take."""
    right_keys = right_table[right_key].combine_chunks()

    def f(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch[left_key], value_set=right_keys)
        mask = pc.is_valid(idx)
        batch = batch.filter(mask)
        idx = idx.filter(mask)
        for col in take_cols:
            batch = batch.append_column(col, right_table[col].take(idx))
        return batch

    return left.map_batches(f, batch_format="pyarrow")


def partitioned_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    num_buckets: int = 64,
    how: str = "inner",
    bucket_post=None,
) -> ray.data.Dataset:
    """Explicit bucketed hash join for two LARGE sides: pad both sides
    to a common schema with a side marker, tag ``bucket = hash(key) %
    B``, union, group by bucket, and merge within each group with
    pandas. One all-to-all shuffle; B sized >> parallelism so straggler
    buckets split across workers. Non-key column names must be disjoint
    between the two sides.

    ``bucket_post``: optional pandas -> pandas transform applied to
    each bucket's MERGED rows inside the same task. Because a bucket
    owns every row of its join keys, any per-join-key aggregation is
    EXACT here — fusing it avoids a second all-to-all on the join
    output (the classic join+groupby-same-key fusion).

    Prefer ``Dataset.join`` when the Ray in use exposes it; this is
    the portable fallback (ray_guide: explicit partitioned hash join).
    """
    import pandas as pd

    # normalize to Arrow blocks so schema().types are pa.DataType even
    # when an input comes from a pandas map_groups stage
    left = left.map_batches(lambda b: b, batch_format="pyarrow")
    right = right.map_batches(lambda b: b, batch_format="pyarrow")
    lschema, rschema = left.schema(), right.schema()
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    overlap = (set(lcols) & set(rcols)) - {left_key, right_key}
    if overlap:
        raise ValueError(f"non-key column collision: {sorted(overlap)}")
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    all_fields = [(n, ltypes[n]) for n in lcols] + [
        (n, rtypes[n]) for n in rcols if n not in lcols
    ]

    def tag(side: str, key: str):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {}
            for name, typ in all_fields:
                if name in batch.column_names:
                    cols[name] = batch[name]
                else:
                    cols[name] = pa.nulls(n, typ)
            out = pa.table(cols)
            hashed = pd.util.hash_pandas_object(
                batch[key].to_pandas(), index=False
            ).to_numpy() % num_buckets
            out = out.append_column("__bucket", pa.array(hashed.astype("int32")))
            return out.append_column("__side", pa.array([side] * n, pa.string()))

        return f

    lt = left.map_batches(tag("l", left_key), batch_format="pyarrow")
    rt = right.map_batches(tag("r", right_key), batch_format="pyarrow")
    both = lt.union(rt)

    # emit Arrow with the target schema pinned: empty or NaN-bearing
    # pandas merge results otherwise float-ify int columns per group and
    # the dataset ends up with mixed block schemas
    target_fields = all_fields

    def join_group(g: pd.DataFrame) -> pa.Table:
        lg = g[g["__side"] == "l"][lcols]
        rg = g[g["__side"] == "r"][rcols]
        m = lg.merge(rg, left_on=left_key, right_on=right_key, how=how)
        if bucket_post is not None:
            m = bucket_post(m)
            return pa.Table.from_pandas(
                m, preserve_index=False
            ).replace_schema_metadata(None)
        return pa.table(
            {
                name: pa.array(m[name], type=typ, from_pandas=True)
                for name, typ in target_fields
            }
        )

    return both.groupby("__bucket").map_groups(join_group, batch_format="pandas")


def broadcast_interval_join(
    ds: ray.data.Dataset,
    starts_us: list[int],
    ends_us: list[int],
    ts_col: str = "ts",
    out_col: str = "interval_start_us",
) -> ray.data.Dataset:
    """Non-equi range join against a SMALL interval table: emit one row
    per (event, containing interval) — events matching several
    overlapping intervals are duplicated, events matching none drop.

    Scale shape: the interval list is broadcast via closure capture
    (pickled once to the object store) and membership is a vectorized
    per-interval mask — no shuffle, no per-row Python. For a LARGE
    interval side, pre-bucket both sides by coarse time range and run
    this per bucket."""
    import numpy as np

    iv = sorted(zip(starts_us, ends_us))
    s_arr = np.array([s for s, _ in iv], dtype=np.int64)
    e_arr = np.array([e for _, e in iv], dtype=np.int64)

    def match(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch[ts_col], pa.int64()).to_numpy()
        idx_parts, iv_parts = [], []
        for i in range(len(s_arr)):
            hit = np.flatnonzero((ts_us >= s_arr[i]) & (ts_us < e_arr[i]))
            idx_parts.append(hit)
            iv_parts.append(np.full(hit.size, s_arr[i], dtype=np.int64))
        if not idx_parts:
            idx = np.empty(0, dtype=np.int64)
            ivs = np.empty(0, dtype=np.int64)
        else:
            idx = np.concatenate(idx_parts)
            ivs = np.concatenate(iv_parts)
        taken = batch.take(pa.array(idx, pa.int64()))
        return taken.append_column(out_col, pa.array(ivs, pa.int64()))

    return ds.map_batches(match, batch_format="pyarrow")


def snapshot_delta(
    old: ray.data.Dataset,
    new: ray.data.Dataset,
    key_col: str,
    content_col: str,
) -> ray.data.Dataset:
    """Incremental-recrawl diff of two crawl snapshots keyed by URL:
    each key is classified ``added`` / ``deleted`` / ``changed`` /
    ``same`` by comparing an md5 content fingerprint across sides (the
    delta a re-crawl scheduler feeds on; the reference's upsert sink,
    db.py:506-516, only ever sees the "changed implies overwrite" half
    of this).

    Scale shape: each side is reduced IN ITS BLOCKS to (key, h_old) /
    (key, h_new) fingerprint rows — the content column never leaves
    the map task — then ONE union + groupby(key) merges sides with
    null-ignoring min aggregates. The shuffle carries two int64
    fingerprints per key (stages/recrawl.py's content_fp64 — same
    ~2^-64 collision trust model as the exact-dedup hash column), not
    the payloads."""
    from ray.data.aggregate import Count, Min

    from .recrawl import content_fp64

    def fp_side(side: str):
        other = "h_new" if side == "h_old" else "h_old"

        def fp(b: pa.Table) -> pa.Table:
            hs = content_fp64(b[content_col].to_pylist())
            return pa.table(
                {
                    key_col: b[key_col],
                    side: pa.array(hs, pa.int64()),
                    other: pa.array([None] * len(hs), pa.int64()),
                }
            )

        return fp

    tagged = old.map_batches(fp_side("h_old"), batch_format="pyarrow").union(
        new.map_batches(fp_side("h_new"), batch_format="pyarrow")
    )
    agg = tagged.groupby(key_col).aggregate(
        Min("h_old", alias_name="h_old", ignore_nulls=True),
        Min("h_new", alias_name="h_new", ignore_nulls=True),
        Count(alias_name="n"),
    )

    def classify(b: pa.Table) -> pa.Table:
        ho, hn = b["h_old"], b["h_new"]
        status = pc.if_else(
            pc.is_null(hn),
            pa.scalar("deleted"),
            pc.if_else(
                pc.is_null(ho),
                pa.scalar("added"),
                pc.if_else(
                    pc.equal(ho, hn), pa.scalar("same"), pa.scalar("changed")
                ),
            ),
        )
        return pa.table({key_col: b[key_col], "status": status})

    return agg.map_batches(classify, batch_format="pyarrow")
