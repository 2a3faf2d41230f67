"""Operator catalog for the driver's correctness gate.

One entry per implemented operator/pipeline from SURVEY §2 plus the
training-data operators, each as ``fn(sf_dir) -> Dataset | pa.Table |
DataFrame``, with a matching ANSI-SQL oracle in :data:`ORACLE_SQL`
where the semantics are SQL-expressible (non-SQL ops — stateful
streaming/model scoring/LSH — are rows-only checked by the driver).

Float discipline: oracled outputs carry NO order-of-summation-dependent
floats — money aggregates are emitted as bigint cents
(round(x*100)), similarity queries emit ranks/ids, and ratio columns
are single IEEE divisions of exact integers (bit-identical between
numpy and DuckDB). Column names match the SQL aliases exactly.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ray.data.aggregate import Count, Max, Min, Sum

from ..sources.pages import (
    SITE,
    build_once,
    lang_segment,
    page_url,
    pages_from_documents,
    write_pages_parquet,
)
from ..stages import dedup as dd
from ..stages import textstats as ts
from ..stages.ann import brute_force_topk, lsh_topk
from ..stages.extract import extract_batch

# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _docs_table(sf_dir: str) -> pa.Table:
    return pq.read_table(f"{sf_dir}/documents.parquet")


def _corpus_path(key: str) -> str:
    """The /tmp directory a derived corpus is cached under, keyed by
    its input identity."""
    tag = hashlib.blake2b(key.encode(), digest_size=6).hexdigest()
    return f"/tmp/louis_pages_{tag}"


def _pages_corpus(key: str, make_pages) -> str:
    """Write the pages table ``make_pages()`` returns once per ``key``
    (sources.pages.build_once) and return its directory."""
    return build_once(
        _corpus_path(key),
        lambda tmp: write_pages_parquet(make_pages(), tmp, rows_per_file=4096),
    )


def pages_corpus_dir(sf_dir: str, pad_bytes: int = 0) -> str:
    """Build (once per sf_dir) the synthetic pages corpus derived from
    the documents table; cached under /tmp keyed by input identity."""
    return _pages_corpus(
        f"{sf_dir}|{pad_bytes}",
        lambda: pages_from_documents(_docs_table(sf_dir), pad_bytes=pad_bytes),
    )


def _doc_id_from_url(url: str) -> int:
    m = re.search(r"doc(\d+)$", url)
    return int(m.group(1)) if m else -1


def _rewrite_html(pages: pa.Table, rewrite) -> pa.Table:
    """``pages`` with each page's html replaced by ``rewrite(doc_id,
    html)``; a ``None`` return keeps the page's bytes as they are."""
    htmls = pages["html"].to_pylist()
    for i, u in enumerate(pages["url"].to_pylist()):
        new = rewrite(_doc_id_from_url(u), htmls[i].decode())
        if new is not None:
            htmls[i] = new.encode()
    return pages.set_column(
        pages.schema.get_field_index("html"), "html", pa.array(htmls, pa.binary())
    )


def _host_rows(b: pa.Table) -> pa.Table:
    """(host, url, doc_id) per corpus url: the grouping input of the
    per-host sitemap / feed / robots documents."""
    urls = b["url"].to_pylist()
    return pa.table(
        {
            "host": pa.array(
                [u.split("//", 1)[1].split("/", 1)[0] for u in urls],
                pa.string(),
            ),
            "url": b["url"],
            "doc_id": pa.array(
                [int(u.rsplit("doc", 1)[1]) for u in urls], pa.int64()
            ),
        }
    )


def _cents(arr) -> pa.Array:
    """round(x*100) -> int64, matching DuckDB CAST(round(x*100) AS BIGINT).
    DuckDB round() is half-away-from-zero; numpy's is banker's — use
    floor(x*100 + 0.5) on non-negative money values for parity."""
    return pc.cast(
        pc.floor(pc.add(pc.multiply(arr, pa.scalar(100.0)), pa.scalar(0.5))),
        pa.int64(),
    )


# --------------------------------------------------------------------------
# TPC-H-ish relational operators (groupby/sort/limit/joins — SURVEY §2.5/2.6)
# --------------------------------------------------------------------------

def q_q1_pricing_summary(sf_dir: str):
    """Grouped aggregate (the bench headline relational query): lineitem
    pricing summary; money sums as bigint cents."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table) -> pa.Table:
        # per-block combiner: the shuffle carries <= groups x blocks
        # partial rows instead of every lineitem (the canonical Q1
        # shape at scale; the row-level groupby paid a full-table
        # string-key sort shuffle)
        disc_price = pc.multiply(
            b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"])
        )
        df = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "l_quantity": b["l_quantity"],
                "l_extendedprice": b["l_extendedprice"],
                "disc_price": disc_price,
            }
        ).to_pandas()
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                sum_qty_raw=("l_quantity", "sum"),
                sum_base_raw=("l_extendedprice", "sum"),
                sum_disc_raw=("disc_price", "sum"),
                count_order=("l_quantity", "size"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(
            g, preserve_index=False
        ).replace_schema_metadata(None)

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = (
        parts.to_pandas()  # <= groups x blocks tiny rows
        .groupby(["l_returnflag", "l_linestatus"], sort=True)
        .agg(
            sum_qty_raw=("sum_qty_raw", "sum"),
            sum_base_raw=("sum_base_raw", "sum"),
            sum_disc_raw=("sum_disc_raw", "sum"),
            count_order=("count_order", "sum"),
        )
        .reset_index()
    )
    t = pa.Table.from_pandas(out, preserve_index=False)
    return pa.table(
        {
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty_c": _cents(t["sum_qty_raw"]),
            "sum_base_price_c": _cents(t["sum_base_raw"]),
            "sum_disc_price_c": _cents(t["sum_disc_raw"]),
            "count_order": t["count_order"].cast(pa.int64()),
        }
    )


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty_c,
       CAST(round(sum(l_extendedprice) * 100) AS BIGINT) AS sum_base_price_c,
       CAST(round(sum(l_extendedprice * (1 - l_discount)) * 100) AS BIGINT) AS sum_disc_price_c,
       count(*) AS count_order
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


def q_segment_revenue(sf_dir: str):
    """Join + grouped aggregate: order revenue per customer market
    segment (broadcast dimension join, no shuffle join)."""
    from ..stages.joins import broadcast_lookup_join

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    out = (
        broadcast_lookup_join(orders, cust, "o_custkey", "c_custkey", ["c_mktsegment"])
        .groupby("c_mktsegment")
        .aggregate(Sum("o_totalprice", alias_name="rev_raw"), Count(alias_name="n_orders"))
    )
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)
    return pa.table(
        {
            "c_mktsegment": t["c_mktsegment"],
            "revenue_c": _cents(t["rev_raw"]),
            "n_orders": t["n_orders"].cast(pa.int64()),
        }
    )


SQL_SEGMENT_REVENUE = """
SELECT c_mktsegment,
       CAST(round(sum(o_totalprice) * 100) AS BIGINT) AS revenue_c,
       count(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_order_lineitem_join(sf_dir: str):
    """Large-large partitioned hash join (the explicit bucketed shuffle
    join, ray_guide pattern): orders x lineitem, then grouped revenue
    per order priority — both sides too big to broadcast by policy."""
    from ..stages.joins import partitioned_hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        rev = pc.multiply(
            b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"])
        )
        return pa.table({"l_orderkey": b["l_orderkey"], "rev": rev})

    li2 = li.map_batches(prep, batch_format="pyarrow")

    def partial_by_priority(m: "pd.DataFrame") -> "pd.DataFrame":
        # per-bucket PARTIAL aggregate fused into the join task: the
        # full joined row set (every lineitem x its priority) never
        # materializes — 5 rows per bucket reach the final fold
        return (
            m.groupby("o_orderpriority", sort=False)
            .agg(rev_raw=("rev", "sum"), n_lines=("rev", "size"))
            .reset_index()
        )

    parts = partitioned_hash_join(
        orders, li2, "o_orderkey", "l_orderkey", num_buckets=32, how="inner",
        bucket_post=partial_by_priority,
    )
    out = (
        parts.to_pandas()
        .groupby("o_orderpriority", sort=True)
        .agg(rev_raw=("rev_raw", "sum"), n_lines=("n_lines", "sum"))
        .reset_index()
    )
    t = pa.Table.from_pandas(out, preserve_index=False)
    return pa.table(
        {
            "o_orderpriority": t["o_orderpriority"],
            "revenue_c": _cents(t["rev_raw"]),
            "n_lines": t["n_lines"].cast(pa.int64()),
        }
    )


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: 3-table composition — broadcast semi-join of
    orders against the filtered customer segment (small side captured
    once, is_in per batch), date-pruned scans on both fact tables,
    partitioned hash join orders x lineitem, 3-key grouped revenue,
    deterministic top-10. Money as integer cents for oracle parity."""
    from ..stages.joins import partitioned_hash_join

    from datetime import datetime as _dt

    cutoff = pa.scalar(_dt(1998, 6, 1), pa.timestamp("us"))
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.filter(
        pc.equal(cust["c_mktsegment"], pa.scalar("BUILDING"))
    )["c_custkey"].combine_chunks()

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    )

    def o_prep(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.and_(
                pc.less(b["o_orderdate"], cutoff),
                pc.is_in(b["o_custkey"], value_set=keys),
            )
        )
        # the date rides the join + groupby shuffle as PLAIN INT64
        # epoch-us: datetime-typed group keys trip numpy datetime
        # conversions inside Ray's shuffle sort ('D'->'s' precision
        # warning spam in every map task — VERDICT r3 #9) and buy
        # nothing mid-pipeline; the timestamp is rebuilt once on the
        # 10-row result
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "o_odate_us": b["o_orderdate"]
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
                "o_orderpriority": b["o_orderpriority"],
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"]
    )

    def l_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b["l_shipdate"], cutoff))
        rev = pc.multiply(
            b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"])
        )
        return pa.table({"l_orderkey": b["l_orderkey"], "rev": rev})

    def agg_bucket(m: "pd.DataFrame") -> "pd.DataFrame":
        # the join buckets by o_orderkey, so every order's lineitems
        # are in THIS bucket: the revenue groupby is exact here and the
        # second all-to-all the old groupby paid disappears
        # (join+groupby-same-key fusion; 5.7 -> ~2 s at sf0.1)
        return (
            m.groupby(
                ["o_orderkey", "o_odate_us", "o_orderpriority"], sort=False
            )
            .agg(rev_raw=("rev", "sum"))
            .reset_index()
        )

    out = partitioned_hash_join(
        orders.map_batches(o_prep, batch_format="pyarrow"),
        li.map_batches(l_prep, batch_format="pyarrow"),
        "o_orderkey",
        "l_orderkey",
        num_buckets=32,
        how="inner",
        bucket_post=agg_bucket,
    )
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)
    t = pa.table(
        {
            "l_orderkey": t["o_orderkey"].cast(pa.int64()),
            "revenue_c": _cents(t["rev_raw"]),
            "o_orderdate": t["o_odate_us"].cast(pa.int64()).cast(
                pa.timestamp("us")
            ),
            "o_orderpriority": t["o_orderpriority"],
        }
    )
    return t.sort_by(
        [
            ("revenue_c", "descending"),
            ("o_orderdate", "ascending"),
            ("l_orderkey", "ascending"),
        ]
    ).slice(0, 10)


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape: the 6-table join — revenue by nation where the
    CUSTOMER and the SUPPLIER sit in the same ASIA nation, orders in
    1996. Plan: region/nation/supplier are dimension tables (broadcast
    once — supplier key -> nationkey, asia nation keys + names);
    customer x orders is a partitioned hash join (both corpus-scale at
    100 TB); lineitem attaches s_nationkey map-side, then the big
    lineitem x orders join buckets by orderkey with the same-nation
    filter AND the per-nation revenue pre-aggregation fused into the
    bucket task. Revenue is EXACT: cents x (100 - discount cents)
    int64 units (1e-4 dollars) — a float sum over a nation's thousands
    of lineitems would be order-dependent and could never hash-match."""
    from datetime import datetime as _dt

    from ..stages.joins import partitioned_hash_join

    lo = pa.scalar(_dt(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt(1997, 1, 1), pa.timestamp("us"))

    region = pq.read_table(f"{sf_dir}/region.parquet")
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    asia_key = region.filter(pc.equal(region["r_name"], "ASIA"))[
        "r_regionkey"
    ][0].as_py()
    nat = nation.filter(pc.equal(nation["n_regionkey"], asia_key))
    asia_nations = {
        int(k): n
        for k, n in zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist())
    }
    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    supp_nation = {
        int(s): int(n)
        for s, n in zip(
            supplier["s_suppkey"].to_pylist(),
            supplier["s_nationkey"].to_pylist(),
        )
        if int(n) in asia_nations
    }
    supp_ref = ray.put(supp_nation)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def c_prep(b: pa.Table) -> pa.Table:
        keys = pa.array(list(asia_nations), pa.int64())
        b = b.filter(pc.is_in(b["c_nationkey"].cast(pa.int64()), value_set=keys))
        return pa.table(
            {
                "c_custkey": b["c_custkey"].cast(pa.int64()),
                "c_nationkey": b["c_nationkey"].cast(pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def o_prep(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.and_(
                pc.greater_equal(b["o_orderdate"], lo),
                pc.less(b["o_orderdate"], hi),
            )
        )
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                "o_custkey": b["o_custkey"].cast(pa.int64()),
            }
        )

    ord_nat = partitioned_hash_join(
        orders.map_batches(o_prep, batch_format="pyarrow"),
        cust.map_batches(c_prep, batch_format="pyarrow"),
        "o_custkey",
        "c_custkey",
        num_buckets=32,
    )

    li = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def l_prep(b: pa.Table) -> pa.Table:
        sn = ray.get(supp_ref)
        snk = [sn.get(int(s)) for s in b["l_suppkey"].to_pylist()]
        mask = pa.array([v is not None for v in snk])
        b = b.filter(mask)
        price_c = _cents(b["l_extendedprice"])
        disc_c = _cents(b["l_discount"])
        rev = pc.multiply(
            price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c)
        )
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"].cast(pa.int64()),
                "s_nationkey": pa.array(
                    [v for v in snk if v is not None], pa.int64()
                ),
                "rev_e4": rev,
            }
        )

    def agg_bucket(m: "pd.DataFrame") -> "pd.DataFrame":
        m = m[m["c_nationkey"] == m["s_nationkey"]]
        return (
            m.groupby("s_nationkey", sort=False)
            .agg(rev_e4=("rev_e4", "sum"))
            .reset_index()
        )

    joined = partitioned_hash_join(
        ord_nat.map_batches(
            lambda b: pa.table(
                {"o_orderkey": b["o_orderkey"], "c_nationkey": b["c_nationkey"]}
            ),
            batch_format="pyarrow",
        ),
        li.map_batches(l_prep, batch_format="pyarrow"),
        "o_orderkey",
        "l_orderkey",
        num_buckets=32,
        bucket_post=agg_bucket,
    )
    out = (
        joined.groupby("s_nationkey")
        .aggregate(Sum("rev_e4", alias_name="revenue_e4"))
        .take_all()
    )
    t = pa.table(
        {
            "n_name": pa.array(
                [asia_nations[int(r["s_nationkey"])] for r in out], pa.string()
            ),
            "revenue_e4": pa.array(
                [int(r["revenue_e4"]) for r in out], pa.int64()
            ),
        }
    )
    return t.sort_by([("revenue_e4", "descending"), ("n_name", "ascending")])


SQL_LOCAL_SUPPLIER_VOLUME = """
SELECT n_name,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT)
         AS revenue_e4
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n_name
ORDER BY revenue_e4 DESC, n_name
"""


def q_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape: customer order-count distribution through a
    LEFT OUTER join — the gate that catches inner-join shortcuts,
    because customers with ZERO qualifying orders must survive into
    the c_count = 0 bucket. Orders are pre-filtered (urgent excluded —
    the filter belongs to the JOIN side, not a post-join WHERE), the
    partitioned hash join runs how='left' with the per-customer count
    fused into the bucket task (count of non-null orderkeys), and the
    tiny distribution groupby finishes it."""
    from ..stages.joins import partitioned_hash_join

    cust = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: pa.table({"c_custkey": b["c_custkey"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderpriority"])

    def o_prep(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.invert(pc.equal(b["o_orderpriority"], pa.scalar("1-URGENT")))
        )
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                "o_custkey": b["o_custkey"].cast(pa.int64()),
            }
        )

    def agg_bucket(m: "pd.DataFrame") -> "pd.DataFrame":
        # bucket owns every row of its custkeys; count() skips the
        # NaN orderkeys unmatched LEFT rows carry -> exact c_count 0
        r = (
            m.groupby("c_custkey", sort=False)["o_orderkey"]
            .count()
            .reset_index(name="c_count")
        )
        return r[["c_custkey", "c_count"]]

    per_cust = partitioned_hash_join(
        cust,
        orders.map_batches(o_prep, batch_format="pyarrow"),
        "c_custkey",
        "o_custkey",
        num_buckets=32,
        how="left",
        bucket_post=agg_bucket,
    )
    return (
        per_cust.map_batches(
            lambda b: pa.table(
                {"c_count": b["c_count"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .groupby("c_count")
        .aggregate(Count(alias_name="custdist"))
    )


SQL_CUSTOMER_DISTRIBUTION = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (
  SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
  FROM customer LEFT OUTER JOIN orders
    ON c_custkey = o_custkey AND o_orderpriority <> '1-URGENT'
  GROUP BY c_custkey) c_orders
GROUP BY c_count
"""


SQL_SHIPPING_PRIORITY = """
SELECT CAST(l_orderkey AS BIGINT) AS l_orderkey,
       CAST(round(sum(l_extendedprice * (1 - l_discount)) * 100) AS BIGINT)
         AS revenue_c,
       o_orderdate, o_orderpriority
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-06-01'
  AND l_shipdate > TIMESTAMP '1998-06-01'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_c DESC, o_orderdate, l_orderkey
LIMIT 10
"""


SQL_ORDER_LINEITEM_JOIN = """
SELECT o_orderpriority,
       CAST(round(sum(l_extendedprice * (1 - l_discount)) * 100) AS BIGINT) AS revenue_c,
       count(*) AS n_lines
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
GROUP BY o_orderpriority
"""


def q_anti_join_unused_parts(sf_dir: str):
    """Anti-join (reference J1 shape, db.py:686-703): parts that never
    appear in a high-quantity (>45) order line. (Every part appears in
    SOME line at these scale factors, so the right side is filtered to
    keep the result non-empty.)"""
    from ..stages.joins import broadcast_anti_join

    parts = _read(sf_dir, "part", ["p_partkey", "p_name"])
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"]).map_batches(
        lambda b: b.filter(pc.greater(b["l_quantity"], pa.scalar(45.0))).select(
            ["l_partkey"]
        ),
        batch_format="pyarrow",
    )
    return broadcast_anti_join(parts, li, "p_partkey", "l_partkey")


SQL_ANTI_JOIN_UNUSED_PARTS = """
SELECT p_partkey, p_name FROM part
WHERE p_partkey NOT IN (SELECT l_partkey FROM lineitem WHERE l_quantity > 45)
"""


def q_recency_top10(sf_dir: str):
    """Sort + limit (reference O2 recency listing, db.py:224)."""
    ev = _read(sf_dir, "events", ["event_id", "ts"])
    out = ev.sort(["ts", "event_id"], descending=[True, True]).limit(10)
    return out


SQL_RECENCY_TOP10 = """
SELECT event_id, ts FROM events ORDER BY ts DESC, event_id DESC LIMIT 10
"""


def q_frontier_order_topk(sf_dir: str):
    """Priority-queue order semantics (reference O1: sort by depth then
    take batch): lineitem by (shipdate, orderkey, linenumber) limit 100."""
    li = _read(sf_dir, "lineitem", ["l_shipdate", "l_orderkey", "l_linenumber"])
    return li.sort(["l_shipdate", "l_orderkey", "l_linenumber"]).limit(100)


SQL_FRONTIER_ORDER_TOPK = """
SELECT l_shipdate, l_orderkey, l_linenumber FROM lineitem
ORDER BY l_shipdate, l_orderkey, l_linenumber LIMIT 100
"""


def q_event_type_histogram(sf_dir: str):
    """Counter aggregation (reference A2/A3 duplicate/extension
    counters)."""
    ev = _read(sf_dir, "events", ["event_type"])
    return ev.groupby("event_type").aggregate(Count(alias_name="cnt"))


SQL_EVENT_TYPE_HISTOGRAM = """
SELECT event_type, count(*) AS cnt FROM events GROUP BY event_type
"""


def q_distinct_users_per_type(sf_dir: str):
    """Exact grouped COUNT DISTINCT: per-block distinct (type, user)
    pairs are the combiner (the shuffle carries distinct pairs, never
    raw events), one two-key groupby dedups globally, then a per-type
    count — the standard exact-cardinality-by-group shape beside the
    HLL approximate one (approx_distinct_users)."""
    ev = _read(sf_dir, "events", ["event_type", "user_id"])

    def pair_partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        from ..stages import from_pandas_clean

        return from_pandas_clean(
            b.to_pandas().drop_duplicates(["event_type", "user_id"])
        )

    pairs = ev.map_batches(pair_partial, batch_format="pyarrow")
    dedup = pairs.groupby(["event_type", "user_id"]).aggregate(
        Count(alias_name="_n")
    )
    out = dedup.groupby("event_type").aggregate(
        Count(alias_name="n_users")
    )
    return out.sort("event_type")


SQL_DISTINCT_USERS_PER_TYPE = """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


def q_storage_stats(sf_dir: str):
    """Corpus stats (reference A1, storage_manager.py:171-227)."""
    counts = {
        f"{t}_count": _read(sf_dir, t).count()
        for t in ("documents", "embeddings", "events", "lineitem", "orders")
    }
    return pa.table({k: pa.array([v], pa.int64()) for k, v in sorted(counts.items())})


SQL_STORAGE_STATS = """
SELECT (SELECT count(*) FROM documents) AS documents_count,
       (SELECT count(*) FROM embeddings) AS embeddings_count,
       (SELECT count(*) FROM events)    AS events_count,
       (SELECT count(*) FROM lineitem)  AS lineitem_count,
       (SELECT count(*) FROM orders)    AS orders_count
"""


def q_log_durations(sf_dir: str):
    """Per-task log analytics (reference A6, log_analyzer.py:46-100):
    per user, event count and first/last timestamps + span."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    out = ev.groupby("user_id").aggregate(
        Count(alias_name="n_events"),
        Min("ts", alias_name="first_ts"),
        Max("ts", alias_name="last_ts"),
    )

    def span(b: pa.Table) -> pa.Table:
        dur = pc.cast(
            pc.subtract(
                pc.cast(b["last_ts"], pa.int64()), pc.cast(b["first_ts"], pa.int64())
            ),
            pa.int64(),
        )
        return b.append_column("span_us", dur)

    return out.map_batches(span, batch_format="pyarrow").map_batches(
        lambda b: pa.table(
            {
                "user_id": b["user_id"],
                "n_events": b["n_events"].cast(pa.int64()),
                "first_ts": b["first_ts"],
                "last_ts": b["last_ts"],
                "span_us": b["span_us"],
            }
        ),
        batch_format="pyarrow",
    )


SQL_LOG_DURATIONS = """
SELECT user_id, count(*) AS n_events, min(ts) AS first_ts, max(ts) AS last_ts,
       date_diff('microsecond', min(ts), max(ts)) AS span_us
FROM events GROUP BY user_id
"""


def q_upsert_latest_event(sf_dir: str):
    """Last-write-wins upsert semantics (reference S5/D5, db.py:506-516):
    latest event per user, tie-broken by event_id.

    Pre-aggregated: each batch first reduces to one candidate row per
    user (vectorized sort + drop_duplicates), so the shuffle carries at
    most users x blocks rows instead of every event — the partial/
    combiner shape for keep-latest at scale."""
    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    def partial_latest(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(
            ["ts", "event_id"], ascending=[False, False]
        ).drop_duplicates("user_id", keep="first")
        # strip the pandas schema metadata or the downstream groupby
        # falls off Ray's schema-dedup fast path (stages.from_pandas_clean)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    ev = ev.map_batches(partial_latest, batch_format="pyarrow")

    def latest2(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], ascending=[False, False]).head(1)
        return pd.DataFrame(
            {
                "user_id": g["user_id"].values,
                "last_event_id": g["event_id"].values,
                "last_ts": g["ts"].values,
            }
        )

    out = ev.groupby("user_id").map_groups(latest2, batch_format="pandas")
    # pandas datetimes come back as ns — restore the us unit the oracle emits
    return out.map_batches(
        lambda b: pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "last_event_id": b["last_event_id"].cast(pa.int64()),
                "last_ts": b["last_ts"].cast(pa.timestamp("us")),
            }
        ),
        batch_format="pyarrow",
    )


SQL_UPSERT_LATEST_EVENT = """
SELECT user_id, event_id AS last_event_id, ts AS last_ts FROM events
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
"""


def q_edges_dedup(sf_dir: str):
    """Link-graph edge dedup (reference D3, db.py:479-481): distinct
    (orderkey, partkey) pairs."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    out = li.groupby(["l_orderkey", "l_partkey"]).aggregate(Count(alias_name="n"))
    return out.select_columns(["l_orderkey", "l_partkey"])


SQL_EDGES_DEDUP = """
SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
"""


def q_union_dedup(sf_dir: str):
    """Union-of-files dedup (reference D4): distinct keys across two
    sources."""
    a = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda b: pa.table({"key": b["o_custkey"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    b = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda t: pa.table({"key": t["c_custkey"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    return a.union(b).groupby("key").aggregate(Count(alias_name="n")).select_columns(["key"])


SQL_UNION_DEDUP = """
SELECT DISTINCT key FROM (
  SELECT CAST(o_custkey AS BIGINT) AS key FROM orders
  UNION ALL SELECT CAST(c_custkey AS BIGINT) FROM customer)
"""


# --------------------------------------------------------------------------
# URL / page kernels over the synthesized pages corpus (SURVEY §2.2)
# --------------------------------------------------------------------------

def q_url_canonicalize(sf_dir: str):
    """fix_vhost (M1) + /fra/ language rule (M8) over a synthesized URL
    column."""
    from ..functions.urls import detect_language, fix_vhost

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def f(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        langs = b["lang"].to_pylist()
        srcs = b["source"].to_pylist()
        urls = []
        for i, lang, src in zip(ids, langs, srcs):
            seg = lang_segment(lang)
            base = (
                "https://inspection.gc.ca"
                if i % 3 == 0
                else "https://www.inspection.gc.ca"
                if i % 3 == 1
                else "http://other.example.ca"
            )
            urls.append(f"{base}/{seg}/{src}/doc{i}")
        canon = [fix_vhost(u) for u in urls]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "url": pa.array(urls),
                "canon_url": pa.array(canon),
                "url_lang": pa.array([detect_language(u) for u in canon]),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


SQL_URL_CANONICALIZE = """
WITH u AS (
  SELECT doc_id,
         (CASE WHEN doc_id % 3 = 0 THEN 'https://inspection.gc.ca'
               WHEN doc_id % 3 = 1 THEN 'https://www.inspection.gc.ca'
               ELSE 'http://other.example.ca' END)
         || '/' || (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END)
         || '/' || source || '/doc' || doc_id AS url
  FROM documents)
SELECT doc_id, url,
       replace(replace(url, 'https://inspection.gc.ca', 'http://inspection.canada.ca'),
               'https://www.inspection.gc.ca', 'http://inspection.canada.ca') AS canon_url,
       CASE WHEN replace(replace(url, 'https://inspection.gc.ca', 'http://inspection.canada.ca'),
               'https://www.inspection.gc.ca', 'http://inspection.canada.ca') LIKE '%/fra/%'
            THEN 'fr' ELSE 'en' END AS url_lang
FROM u
"""


def q_filter_en(sf_dir: str):
    """URL-substring pruning filter (M11, scripts/pruner.py:9): keep
    English-path docs."""
    out = q_url_canonicalize(sf_dir)
    return out.map_batches(
        lambda b: b.filter(
            pc.match_substring(b["canon_url"], "/en/")
        ).select(["doc_id", "canon_url"]),
        batch_format="pyarrow",
    )


SQL_FILTER_EN = f"""
WITH c AS ({SQL_URL_CANONICALIZE.replace('%', '%')})
SELECT doc_id, canon_url FROM c WHERE canon_url LIKE '%/en/%'
"""


def q_whitespace_normalize(sf_dir: str):
    """M10 whitespace normalizer over documents.text."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    rx = re.compile(r"\s+")
    return docs.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "norm_text": pa.array(
                    [rx.sub(" ", (t or "")).strip() for t in b["text"].to_pylist()]
                ),
            }
        ),
        batch_format="pyarrow",
    )


SQL_WHITESPACE_NORMALIZE = r"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       trim(regexp_replace(text, '\s+', ' ', 'g')) AS norm_text
FROM documents
"""


# the SQL fragment shared by the extraction-parity oracles: documents
# joined to their two heap-children with url/path/title/body columns
_SQL_PAGE_CTE = r"""
WITH nn AS (SELECT count(*) AS n FROM documents),
base AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS body, lang, source,
         (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END) AS seg
  FROM documents),
pg AS (
  SELECT d.doc_id, d.body, d.lang, d.source, d.seg,
         'Doc ' || d.doc_id || ' ' || d.source AS title,
         '2024-01-' || lpad(CAST((d.doc_id % 28) + 1 AS VARCHAR), 2, '0') AS pdate,
         'http://inspection.canada.ca/' || d.seg || '/' || d.source || '/doc' || d.doc_id AS url,
         '/' || c1.seg || '/' || c1.source || '/doc' || c1.doc_id AS c1_path,
         '/' || c2.seg || '/' || c2.source || '/doc' || c2.doc_id AS c2_path
  FROM base d, nn
  JOIN base c1 ON c1.doc_id = (2 * d.doc_id + 1) % nn.n
  JOIN base c2 ON c2.doc_id = (2 * d.doc_id + 2) % nn.n)
"""


def _extracted_items(sf_dir: str) -> ray.data.Dataset:
    """pages corpus -> real extract stage (the byte-identity kernel run
    through Ray Data, tagged back to doc_id)."""
    import functools

    pages = ray.data.read_parquet(
        f"{pages_corpus_dir(sf_dir)}", columns=["url", "html"]
    )
    items = pages.map_batches(
        functools.partial(extract_batch, now_us=0),
        batch_format="pyarrow",
        batch_size=256,
    )

    def tag(b: pa.Table) -> pa.Table:
        ids = [_doc_id_from_url(u) for u in b["url"].to_pylist()]
        return b.append_column("doc_id", pa.array(ids, pa.int64()))

    return items.map_batches(tag, batch_format="pyarrow")


def q_extract_text(sf_dir: str):
    """The goldie extraction profile (M4-M8) over the synthetic pages
    corpus; the oracle computes the expected cleaned HTML by
    construction (SURVEY §7.1 step 2 golden invariant)."""
    items = _extracted_items(sf_dir)
    return items.select_columns(["doc_id", "url", "title", "lang", "html_content"])


SQL_EXTRACT_TEXT = (
    _SQL_PAGE_CTE
    + """
SELECT doc_id, url, title,
       CASE WHEN lang = 'fr' THEN 'fr' ELSE 'en' END AS lang,
       '<html><body><main class="container"><h1>' || title || '</h1><p>' || body
       || '</p><time>' || pdate || '</time><a href="' || c1_path || '">next</a><a href="'
       || c2_path || '">more</a><a href="#top">top</a><a href="mailto:info@example.ca">mail</a>'
       || '<a href="/files/report.pdf">pdf</a><a href="' || c1_path || '?ref=nav">dup</a></main></body></html>'
       AS html_content
FROM pg
"""
)


def q_extract_children(sf_dir: str):
    """Children extractor (M3): ordered, deduped child URLs per page."""
    items = _extracted_items(sf_dir)

    def explode(b: pa.Table) -> pa.Table:
        ids, poss, childs = [], [], []
        for i, ch in zip(b["doc_id"].to_pylist(), b["children"].to_pylist()):
            for p, c in enumerate(ch):
                ids.append(i)
                poss.append(p)
                childs.append(c)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
                "child_url": pa.array(childs),
            }
        )

    return items.select_columns(["doc_id", "children"]).map_batches(
        explode, batch_format="pyarrow"
    )


SQL_EXTRACT_CHILDREN = (
    _SQL_PAGE_CTE
    + f"""
SELECT doc_id, CAST(0 AS BIGINT) AS pos, '{SITE}' || c1_path AS child_url FROM pg
UNION ALL SELECT doc_id, CAST(1 AS BIGINT), '{SITE}' || c2_path FROM pg
UNION ALL SELECT doc_id, CAST(2 AS BIGINT), '{SITE}' || '/files/report.pdf' FROM pg
UNION ALL SELECT doc_id, CAST(3 AS BIGINT), '{SITE}' || c1_path || '?ref=nav' FROM pg
"""
)


def q_link_edges(sf_dir: str):
    """M2 link filter + D3 edge dedup over the pages corpus."""
    items = _extracted_items(sf_dir)
    from .ingest import extract_edges

    edges = extract_edges(items.select_columns(["url", "depth", "links"]))
    return edges.select_columns(["src", "dst"])


SQL_LINK_EDGES = (
    _SQL_PAGE_CTE
    + f"""
SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
UNION ALL SELECT url, '{SITE}' || c2_path FROM pg
"""
)


def q_crawl_pages_bfs(sf_dir: str):
    """The full frontier engine (seen-shards, politeness scaffolding,
    rounds) over the synthetic pages corpus, seeded at doc 0; oracle =
    recursive BFS min-depth over the constructed link graph."""
    from .crawl import CrawlConfig, run_crawl

    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16)
    res = run_crawl(pages_corpus_dir(sf_dir), [seed], cfg)
    return res.order.select(["url", "depth"])


SQL_CRAWL_PAGES_BFS = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6)
SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url
"""
)


def q_crawl_metrics(sf_dir: str):
    """The frontier's own per-round throughput/lag metrics rows under
    the correctness gate: for a BFS with no caps, round r's counters
    are pure graph theory — selected(r) = fetched(r) = |{min-depth ==
    r}|, new_candidates(r) = pending_lag(r) = |{min-depth == r+1}|
    (depth-bounded), errored(r) = 0 — so the DuckDB oracle recomputes
    the engine's METRICS from the recursive walk and hash-checks them."""
    from .crawl import CrawlConfig, run_crawl

    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16)
    res = run_crawl(pages_corpus_dir(sf_dir), [seed], cfg)
    return res.metrics_table()


SQL_CRAWL_METRICS = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6),
d AS (SELECT url, min(depth) AS depth FROM walk GROUP BY url),
per AS (SELECT depth, count(*) AS n FROM d GROUP BY depth)
SELECT CAST(p.depth AS BIGINT) AS round,
       CAST(p.n AS BIGINT) AS selected,
       CAST(p.n AS BIGINT) AS fetched,
       CAST(0 AS BIGINT) AS errored,
       CAST(coalesce(nx.n, 0) AS BIGINT) AS new_candidates,
       CAST(coalesce(nx.n, 0) AS BIGINT) AS pending_lag
FROM per p LEFT JOIN per nx ON nx.depth = p.depth + 1
ORDER BY round
"""
)


def q_crawl_pages_bfs_404(sf_dir: str):
    """The 404/quarantine path under the correctness gate (VERDICT r1
    next-10): seeds include a URL with no page in the corpus. The
    frontier must quarantine it in `errored` and exclude it from the
    crawl order, so the oracle is the SAME recursive walk over only
    the pages that exist."""
    from .crawl import CrawlConfig, run_crawl

    seed = _site_seed(sf_dir)
    bogus = seed.rsplit("/", 1)[0] + "/does-not-exist-404"
    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16)
    res = run_crawl(pages_corpus_dir(sf_dir), [seed, bogus], cfg)
    assert res.counts["errored"] >= 1, "missing seed must be quarantined"
    return res.order.select(["url", "depth"])


def q_crawl_pages_bfs_budget(sf_dir: str):
    """Politeness-budget crawl ordering under the correctness gate
    (BASELINE north_rule: "same crawl ordering and URL-seen set under
    the same seed list and politeness budget"; VERDICT r2 next-3): a
    token-bucket crawl (per_host_budget=5, burst 2x, banked carry —
    state/seen.py take) whose FULL (round, depth, url) schedule is
    recomputed by a DuckDB round-by-round simulation. The synthetic
    corpus is single-host, so the per-host bucket is the global
    schedule: cap_r = min(burst, banked+refill), banked' = cap - used,
    selection = the cap_r smallest (depth, url) pending keys. The
    oracle's recursive CTE carries the crawl STATE per round (url rows
    + a sentinel row whose depth column banks the tokens) and the
    engine's order table must hash-match every round transition —
    burst-up, carry-down and the steady-state tail."""
    from .crawl import CrawlConfig, run_crawl

    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=64,
        per_host_budget=5,
        politeness="token_bucket",
    )
    res = run_crawl(pages_corpus_dir(sf_dir), [seed], cfg)
    return res.order


SQL_CRAWL_PAGES_BFS_BUDGET = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6),
mind AS (SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url),
sim(round, url, depth, done) AS (
  SELECT * FROM (
    SELECT 0 AS round, url, CAST(0 AS INTEGER) AS depth, FALSE AS done
    FROM pg WHERE doc_id = 0
    UNION ALL
    SELECT 0, '', CAST(0 AS INTEGER), TRUE)
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  cap AS (SELECT least(10, depth + 5) AS cap FROM prev WHERE url = ''),
  pending AS (SELECT url, depth FROM prev WHERE NOT done AND url <> ''),
  ranked AS (SELECT p.url, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE (q.depth, q.url) <= (p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT url, depth FROM ranked, cap WHERE rn <= cap.cap),
  used AS (SELECT count(*) AS u FROM sel),
  kids AS (SELECT DISTINCT e.dst AS url, m.depth
           FROM sel s JOIN edges e ON e.src = s.url
           JOIN mind m ON m.url = e.dst
           WHERE NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = e.dst)),
  nstate AS (
    SELECT p.url, p.depth, (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p WHERE p.url <> ''
    UNION ALL
    SELECT url, depth, FALSE FROM kids
    UNION ALL
    SELECT '', CAST(cap.cap - used.u AS INTEGER), TRUE FROM cap, used)
  SELECT r0.round + 1, n.url, n.depth, n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 64
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done AND url <> ''
GROUP BY depth, url
"""
)


def q_crawl_ttl_recrawl(sf_dir: str):
    """TTL re-crawl end-to-end under the correctness gate (VERDICT r2
    next-7; reference re-crawls stale pages): pass 1 = full BFS crawl
    with the DELETABLE cuckoo seen-front (mode='cuckoo'); then every
    fetched URL with doc_id % 3 != 2 has its TTL lapse —
    Frontier.expire() forgets it shard-side (exact set AND cuckoo
    front, state/seen.py expire) — and pass 2 re-seeds the same seed
    over the LIVE frontier state. Pass 2 can only re-reach a page via
    a path of expired pages (non-expired pages are still seen, so
    their children are never re-admitted), so the oracle is a second
    recursive walk over the expired-only subgraph. Returns the
    combined (pass, round, depth, url) schedule — both passes must
    hash-match."""
    from .crawl import CrawlConfig, Frontier, pages_expand, run_frontier

    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16, mode="cuckoo")
    frontier = Frontier(cfg)
    try:
        expand = pages_expand(pages_corpus_dir(sf_dir), cfg, None, 0)
        r1 = run_frontier(expand, [seed], cfg, frontier=frontier)
        expired = [
            u
            for u in r1.order["url"].to_pylist()
            if int(u.rsplit("doc", 1)[1]) % 3 != 2
        ]
        n = frontier.expire(expired)
        assert n == len(expired), (n, len(expired))
        r2 = run_frontier(expand, [seed], cfg, frontier=frontier)
    finally:
        frontier.release()

    def tag(res, p):
        t = res.order
        return t.append_column(
            "pass", pa.array([p] * t.num_rows, pa.int32())
        ).select(["pass", "round", "depth", "url"])

    return pa.concat_tables([tag(r1, 1), tag(r2, 2)])


SQL_CRAWL_TTL_RECRAWL = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6),
walk2(url, depth) AS (
  -- pass 2: only pages whose TTL lapsed (doc_id % 3 <> 2) were
  -- forgotten, so the re-crawl propagates only through them
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1
  FROM walk2 w JOIN edges e ON e.src = w.url
  JOIN pg pd ON pd.url = e.dst
  WHERE w.depth < 6 AND pd.doc_id % 3 <> 2)
SELECT CAST(1 AS INTEGER) AS pass, CAST(min(depth) AS INTEGER) AS round,
       CAST(min(depth) AS INTEGER) AS depth, url
FROM walk GROUP BY url
UNION ALL
SELECT CAST(2 AS INTEGER), CAST(min(depth) AS INTEGER),
       CAST(min(depth) AS INTEGER), url
FROM walk2 GROUP BY url
"""
)


def q_sitemap_recrawl(sf_dir: str):
    """Sitemap ``<changefreq>`` driving the TTL recrawl machinery —
    the composition webmasters actually intend the tag for: a site
    sitemap declares each page's change cadence (hourly/daily/monthly,
    deterministic CF[doc_id%3] — a 2/3 fast fraction keeps the
    expired subgraph supercritical, so pass 2 genuinely propagates);
    after a full pass-1 crawl, exactly the pages declared
    fast-changing (hourly | daily) have their TTL lapse via
    Frontier.expire() (cuckoo seen-front — blooms can't delete), and
    pass 2 re-reaches a page only through a path of expired pages.
    The changefreq -> expire set resolves FROM THE PARSED SITEMAP
    (sources/sitemaps.py), not from arithmetic; only the oracle uses
    the doc_id%3 shortcut."""
    import ray.data as _rd

    from ..sources.sitemaps import sitemap_seeds
    from .crawl import CrawlConfig, Frontier, pages_expand, run_frontier

    corpus = pages_corpus_dir(sf_dir)
    cf_names = ["hourly", "daily", "monthly"]

    def build_xml(b: pa.Table) -> pa.Table:
        urls = sorted(b["url"].to_pylist())
        parts = ['<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">']
        for u in urls:
            d = int(u.rsplit("doc", 1)[1])
            parts.append(
                f"<url><loc>{u}</loc>"
                f"<changefreq>{cf_names[d % 3]}</changefreq></url>"
            )
        parts.append("</urlset>")
        return pa.table({"xml": pa.array(["".join(parts)], pa.string())})

    # single-host site -> one sitemap document (protocol-capped at 50k
    # urls; a bigger site would shard into a sitemapindex)
    sitemap = (
        _rd.read_parquet(corpus, columns=["url"])
        .repartition(1)
        .map_batches(build_xml, batch_format="pyarrow", batch_size=None)
    )
    fast = {
        r["url"]
        for r in sitemap_seeds(sitemap).take_all()
        if r["kind"] == "url" and r["changefreq"] in ("hourly", "daily")
    }

    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16, mode="cuckoo")
    frontier = Frontier(cfg)
    try:
        expand = pages_expand(corpus, cfg, None, 0)
        r1 = run_frontier(expand, [seed], cfg, frontier=frontier)
        expired = [u for u in r1.order["url"].to_pylist() if u in fast]
        n = frontier.expire(expired)
        assert n == len(expired), (n, len(expired))
        r2 = run_frontier(expand, [seed], cfg, frontier=frontier)
    finally:
        frontier.release()

    def tag(res, p):
        t = res.order
        return t.append_column(
            "pass", pa.array([p] * t.num_rows, pa.int32())
        ).select(["pass", "round", "depth", "url"])

    return pa.concat_tables([tag(r1, 1), tag(r2, 2)])


SQL_SITEMAP_RECRAWL = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6),
walk2(url, depth) AS (
  -- pass 2: only pages whose sitemap changefreq was hourly|daily
  -- (CF[doc_id mod 3] with CF[0]=hourly, CF[1]=daily) were expired,
  -- so the re-crawl propagates only through them
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1
  FROM walk2 w JOIN edges e ON e.src = w.url
  JOIN pg pd ON pd.url = e.dst
  WHERE w.depth < 6 AND pd.doc_id % 3 IN (0, 1))
SELECT CAST(1 AS INTEGER) AS pass, CAST(min(depth) AS INTEGER) AS round,
       CAST(min(depth) AS INTEGER) AS depth, url
FROM walk GROUP BY url
UNION ALL
SELECT CAST(2 AS INTEGER), CAST(min(depth) AS INTEGER),
       CAST(min(depth) AS INTEGER), url
FROM walk2 GROUP BY url
"""
)


_MH_HOSTS = 7  # multi-host corpus: host = h{doc_id % 7}.example.ca


def multihost_corpus_dir(sf_dir: str) -> str:
    """Multi-HOST pages corpus (pages_from_documents(n_hosts=7),
    absolute cross-host links): the frontier shape where host-sharded
    state, per-host politeness and shard routing actually distribute —
    the single-site corpus exercises none of that spread."""
    return _pages_corpus(
        f"{sf_dir}|mh{_MH_HOSTS}",
        lambda: pages_from_documents(_docs_table(sf_dir), n_hosts=_MH_HOSTS),
    )


def multihost3_corpus_dir(sf_dir: str) -> str:
    """Multi-host corpus with FANOUT 3 (pages_from_documents
    n_children=3 — ternary-heap links (3d+1, 3d+2, 3d+3) mod n). The
    OPIC gate needs it: on the fanout-2 corpus every page's cash is a
    power of two determined by its depth, so cash order degenerates to
    citation-count order and the gate couldn't tell OPIC from
    backlink_desc; C//3 splits break that symmetry."""
    return _pages_corpus(
        f"{sf_dir}|mh{_MH_HOSTS}k3",
        lambda: pages_from_documents(
            _docs_table(sf_dir), n_hosts=_MH_HOSTS, n_children=3
        ),
    )


# the multi-host pg CTE: same page derivation, host keyed by doc_id % 7
_SQL_MH_CTE = r"""
WITH nn AS (SELECT count(*) AS n FROM documents),
base AS (
  SELECT doc_id, lang, source,
         (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END) AS seg,
         'http://h' || (doc_id % 7) || '.example.ca' AS origin
  FROM documents),
pg AS (
  SELECT d.doc_id,
         'h' || (d.doc_id % 7) || '.example.ca' AS host,
         d.origin || '/' || d.seg || '/' || d.source || '/doc' || d.doc_id AS url,
         c1.origin || '/' || c1.seg || '/' || c1.source || '/doc' || c1.doc_id AS c1_url,
         c2.origin || '/' || c2.seg || '/' || c2.source || '/doc' || c2.doc_id AS c2_url
  FROM base d, nn
  JOIN base c1 ON c1.doc_id = (2 * d.doc_id + 1) % nn.n
  JOIN base c2 ON c2.doc_id = (2 * d.doc_id + 2) % nn.n)
"""


# fanout-3 variant: children (3d+1, 3d+2, 3d+3) mod n
_SQL_MH3_CTE = r"""
WITH nn AS (SELECT count(*) AS n FROM documents),
base AS (
  SELECT doc_id, lang, source,
         (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END) AS seg,
         'http://h' || (doc_id % 7) || '.example.ca' AS origin
  FROM documents),
pg AS (
  SELECT d.doc_id,
         'h' || (d.doc_id % 7) || '.example.ca' AS host,
         d.origin || '/' || d.seg || '/' || d.source || '/doc' || d.doc_id AS url,
         c1.origin || '/' || c1.seg || '/' || c1.source || '/doc' || c1.doc_id AS c1_url,
         c2.origin || '/' || c2.seg || '/' || c2.source || '/doc' || c2.doc_id AS c2_url,
         c3.origin || '/' || c3.seg || '/' || c3.source || '/doc' || c3.doc_id AS c3_url
  FROM base d, nn
  JOIN base c1 ON c1.doc_id = (3 * d.doc_id + 1) % nn.n
  JOIN base c2 ON c2.doc_id = (3 * d.doc_id + 2) % nn.n
  JOIN base c3 ON c3.doc_id = (3 * d.doc_id + 3) % nn.n)
"""


def _mh_url(doc_id: int, lang: str, source: str) -> str:
    """A page url of the multi-host corpus (host h{doc_id % 7})."""
    return (
        f"http://h{doc_id % _MH_HOSTS}.example.ca/{lang_segment(lang)}/"
        f"{source}/doc{doc_id}"
    )


def _doc0(sf_dir: str) -> tuple[str, str]:
    """(lang, source) of the documents table's first row, doc 0."""
    docs = _docs_table(sf_dir)
    return docs["lang"][0].as_py(), docs["source"][0].as_py()


def _site_seed(sf_dir: str) -> str:
    """doc 0's url on the single-site corpus: every single-site crawl's
    seed."""
    return page_url(0, *_doc0(sf_dir))


def _mh_seed(sf_dir: str) -> str:
    return _mh_url(0, *_doc0(sf_dir))


def q_crawl_multihost_bfs(sf_dir: str):
    """Plain BFS over the MULTI-host corpus: seen/pending state and
    link edges genuinely spread across host-hashed shards (previously
    every crawl oracle was single-host, so shard routing was exercised
    by exactly one shard). Oracle = recursive min-depth walk over the
    cross-host edges."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16)
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order.select(["url", "depth"])


SQL_CRAWL_MULTIHOST_BFS = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6)
SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url
"""
)


def q_crawl_host_discovery(sf_dir: str):
    """Frontier-expansion telemetry: the host-discovery curve — per
    round, how many NEW hosts the crawl reached for the first time and
    the cumulative distinct-host count (the classic frontier coverage
    plot). Derived from the engine's streamed order parts with two
    dimension-sized aggregates (groupby(host).Min(round) →
    groupby(round) count + a running sum over the tiny per-round
    table); the oracle aggregates the same recursive min-depth walk."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16)
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)

    def host_round(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": pa.array(
                    [
                        u.split("//", 1)[1].split("/", 1)[0]
                        for u in b["url"].to_pylist()
                    ],
                    pa.string(),
                ),
                "round": b["round"].cast(pa.int64()),
            }
        )

    first = (
        res.order_dataset()
        .map_batches(host_round, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Min("round", alias_name="first_round"))
    )
    rows = sorted(
        (r["first_round"], 1) for r in first.take_all()
    )  # dimension-sized: one row per HOST
    per_round: dict[int, int] = {}
    for rnd, _ in rows:
        per_round[rnd] = per_round.get(rnd, 0) + 1
    out_r, out_new, out_cum = [], [], []
    cum = 0
    for rnd in sorted(per_round):
        cum += per_round[rnd]
        out_r.append(rnd)
        out_new.append(per_round[rnd])
        out_cum.append(cum)
    return pa.table(
        {
            "round": pa.array(out_r, pa.int64()),
            "new_hosts": pa.array(out_new, pa.int64()),
            "cum_hosts": pa.array(out_cum, pa.int64()),
        }
    )


SQL_CRAWL_HOST_DISCOVERY = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6),
ud AS (SELECT url, min(depth) AS depth FROM walk GROUP BY url),
hf AS (SELECT split_part(split_part(url, '//', 2), '/', 1) AS host,
              min(depth) AS first_round
       FROM ud GROUP BY 1),
pr AS (SELECT first_round AS round, CAST(count(*) AS BIGINT) AS new_hosts
       FROM hf GROUP BY 1)
SELECT CAST(round AS BIGINT) AS round, new_hosts,
       CAST(sum(new_hosts) OVER (ORDER BY round) AS BIGINT) AS cum_hosts
FROM pr
"""
)


def q_crawl_multihost_budget(sf_dir: str):
    """Per-HOST token-bucket politeness across a multi-host frontier
    under the exact gate: 7 hosts × (refill 2, burst 4, banked carry),
    host state colocated in the owning shard. The schedule is richer
    than the single-host case — hosts drain at different rates, so
    parents of DIFFERENT depths fetch in the same round and can
    rediscover a shared still-pending child; the frontier's
    min-depth-wins enqueue keeps that deterministic, and the oracle
    simulation carries one token-sentinel row per host plus the same
    min-depth update for pending rediscoveries. The engine's full
    (round, depth, url) order must hash-match every transition."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=2,
        politeness="token_bucket",
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order


_SQL_MH_BUDGET_SIM = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
hosts AS (SELECT DISTINCT host FROM pg),
sim(round, url, host, depth, done) AS (
  SELECT * FROM (
    SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth, FALSE AS done
    FROM pg WHERE doc_id = 0
    UNION ALL
    SELECT 0, '', host, CAST(0 AS INTEGER), TRUE FROM hosts)
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  caps AS (SELECT p.host, least(4, p.depth + 2) AS cap
           FROM prev p WHERE p.url = ''),
  pending AS (SELECT url, host, depth FROM prev WHERE NOT done AND url <> ''),
  ranked AS (SELECT p.url, p.host, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE q.host = p.host
                       AND (q.depth, q.url) <= (p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT r.url, r.host, r.depth
          FROM ranked r JOIN caps c ON c.host = r.host
          WHERE r.rn <= c.cap),
  used AS (SELECT host, count(*) AS u FROM sel GROUP BY host),
  pend_hosts AS (SELECT DISTINCT host FROM pending),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth AS depth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    WHERE p.url <> ''
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.depth, FALSE
    FROM kids k
    UNION ALL
    SELECT '', p.host,
           CASE WHEN p.host IN (SELECT host FROM pend_hosts)
                THEN (SELECT c.cap FROM caps c WHERE c.host = p.host)
                     - coalesce((SELECT u.u FROM used u WHERE u.host = p.host), 0)
                ELSE p.depth END,
           TRUE
    FROM prev p WHERE p.url = '')
  SELECT r0.round + 1, n.url, n.host, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
"""
)

SQL_CRAWL_MULTIHOST_BUDGET = (
    _SQL_MH_BUDGET_SIM
    + """
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done AND url <> ''
GROUP BY depth, url
"""
)

_FAIR_ROUNDS = 5  # fairness window: rounds 0..4, while the budgets bind


def q_crawl_fairness(sf_dir: str):
    """Politeness-fairness telemetry: Jain's fairness index over the
    per-host fetch counts of the throttled crawl's FIRST 5 rounds —
    the window where the token buckets (refill 2, burst 4) decide who
    gets served, before the frontier exhausts and counts converge to
    the corpus distribution. J = (Σx)²/(n·Σx²): numerator and
    denominator are exact int64 (order-independent), the index itself
    is ONE IEEE division — deterministic on both sides. Composes the
    same engine run as crawl_multihost_budget; the oracle aggregates
    the same recursive token-sentinel simulation."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=2,
        politeness="token_bucket",
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)

    def host_of(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.less(b["round"].cast(pa.int64()), pa.scalar(_FAIR_ROUNDS, pa.int64()))
        )
        return pa.table(
            {
                "host": pa.array(
                    [
                        u.split("//", 1)[1].split("/", 1)[0]
                        for u in b["url"].to_pylist()
                    ],
                    pa.string(),
                )
            }
        )

    counts = (
        res.order_dataset()
        .map_batches(host_of, batch_format="pyarrow")
        .groupby("host")
        .count()
    )
    rows = counts.take_all()  # dimension-sized: one row per host
    xs = sorted((r["host"], int(r["count()"])) for r in rows)
    n = len(xs)
    s = sum(c for _, c in xs)
    ss = sum(c * c for _, c in xs)
    jain_num, jain_den = s * s, n * ss
    jain = jain_num / jain_den
    return pa.table(
        {
            "host": pa.array([h for h, _ in xs], pa.string()),
            "fetched": pa.array([c for _, c in xs], pa.int64()),
            "jain_num": pa.array([jain_num] * n, pa.int64()),
            "jain_den": pa.array([jain_den] * n, pa.int64()),
            "jain": pa.array([jain] * n, pa.float64()),
        }
    )


SQL_CRAWL_FAIRNESS = (
    _SQL_MH_BUDGET_SIM
    + f"""
, fetched AS (
  SELECT split_part(split_part(url, '//', 2), '/', 1) AS host,
         CAST(count(*) AS BIGINT) AS fetched
  FROM (SELECT url, min(round) - 1 AS r FROM sim
        WHERE done AND url <> '' GROUP BY url) f
  WHERE r < {_FAIR_ROUNDS}
  GROUP BY 1),
tot AS (SELECT count(*) AS n, sum(fetched) AS s,
               sum(fetched * fetched) AS ss
        FROM fetched)
SELECT f.host, f.fetched,
       CAST(tot.s * tot.s AS BIGINT) AS jain_num,
       CAST(tot.n * tot.ss AS BIGINT) AS jain_den,
       CAST(tot.s * tot.s AS DOUBLE) / (tot.n * tot.ss) AS jain
FROM fetched f CROSS JOIN tot
"""
)


# per-round telemetry derived from the SAME simulation: sim state at
# round r+1 reflects engine round r (done deltas = fetched, first
# appearance = admitted candidates, not-done rows = pending lag)
SQL_CRAWL_METRICS_BUDGET = (
    _SQL_MH_BUDGET_SIM
    + """,
state AS (SELECT round, url, done FROM sim WHERE url <> ''),
per AS (
  SELECT round,
         count(*) FILTER (done) AS n_done,
         count(*) FILTER (NOT done) AS n_pend
  FROM state GROUP BY round),
first_seen AS (SELECT url, min(round) AS r0 FROM state GROUP BY url)
SELECT CAST(p.round - 1 AS BIGINT) AS round,
       CAST(p.n_done - coalesce(pp.n_done, 0) AS BIGINT) AS selected,
       CAST(p.n_done - coalesce(pp.n_done, 0) AS BIGINT) AS fetched,
       CAST(0 AS BIGINT) AS errored,
       CAST((SELECT count(*) FROM first_seen fs WHERE fs.r0 = p.round)
            AS BIGINT) AS new_candidates,
       CAST(p.n_pend AS BIGINT) AS pending_lag
FROM per p LEFT JOIN per pp ON pp.round = p.round - 1
WHERE p.round > 0
ORDER BY round
"""
)


def q_crawl_metrics_budget(sf_dir: str):
    """The frontier's per-round telemetry under THROTTLED multi-host
    politeness, hash-checked: crawl_metrics proved the counters for
    pure BFS by graph theory; here the token-bucket schedule's
    selected/fetched/new_candidates/pending_lag per round must match
    the same round-by-round simulation that crawl_multihost_budget
    pins (state deltas: done-count delta = fetched, first-appearance
    = admitted candidates, not-done rows = pending lag)."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=2,
        politeness="token_bucket",
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.metrics_table()


def q_crawl_delay_budget(sf_dir: str):
    """robots.txt ``Crawl-delay``-driven politeness under the exact
    gate: three of the seven hosts PUBLISH delay directives (15/30/60 s
    -> 4/2/1 fetches per 60 s round via the same round_seconds/delay
    mapping PolitenessPolicy uses for AutoThrottle, state/politeness.py
    budgets_from_delays); the other four hosts stay unbounded. The
    derived per-host budgets override the flat cap inside each owning
    shard's take (host state colocated — north_rule), so throttled and
    unthrottled hosts drain at different rates within the same rounds.
    The oracle is the flat per-host-cap round simulation with caps
    {h0:4, h1:2, h2:1, others: unbounded}."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        obey_robots=True,
        honor_crawl_delay=True,
        robots_txt_by_host={
            "h0.example.ca": "User-agent: *\nCrawl-delay: 15\n",
            "h1.example.ca": "User-agent: *\nCrawl-delay: 30\n",
            "h2.example.ca": "User-agent: *\nCrawl-delay: 60\n",
        },
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_DELAY_BUDGET = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
caps(chost, cap) AS (VALUES
  ('h0.example.ca', 4), ('h1.example.ca', 2), ('h2.example.ca', 1)),
sim(round, url, host, depth, done) AS (
  SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, host, depth FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.host, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE q.host = p.host
                       AND (q.depth, q.url) <= (p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT r.url, r.host, r.depth
          FROM ranked r LEFT JOIN caps c ON c.chost = r.host
          WHERE r.rn <= coalesce(c.cap, 1000000000)),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.ddepth, FALSE
    FROM kids k)
  SELECT r0.round + 1, n.url, n.host, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_crawl_traps(sf_dir: str):
    """Crawler-trap detection — the URL-pattern-explosion heuristic
    production crawlers run to avoid calendar/session-id/faceted-nav
    traps (Heritrix path-pattern caps, StormCrawler's url filters):
    mask digit runs in the URL path to a pattern, count URLs per
    (host, pattern), and flag patterns whose fan-out crosses the trap
    threshold so the frontier can quarantine or down-prioritize them.
    Per-block Counter partials mean the groupby shuffle carries
    distinct (host, pattern) pairs per block, never page URLs — at
    10^10 URLs the exchanged rows stay O(hosts x templates)."""
    import collections

    import ray.data as _rd

    corpus = multihost_corpus_dir(sf_dir)
    thresh = 20

    def partial(b: pa.Table) -> pa.Table:
        ex = pc.extract_regex(
            b["url"], r"^[a-z]+://(?P<host>[^/]+)(?P<path>/.*)$"
        )
        hosts = pc.struct_field(ex, "host").to_pylist()
        pats = pc.replace_substring_regex(
            pc.struct_field(ex, "path"), r"[0-9]+", "#"
        ).to_pylist()
        c: collections.Counter = collections.Counter(zip(hosts, pats))
        keys = list(c.keys())
        return pa.table(
            {
                "host": pa.array([k[0] for k in keys], pa.string()),
                "pattern": pa.array([k[1] for k in keys], pa.string()),
                "n": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    def flag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": b["host"],
                "pattern": b["pattern"],
                "n_urls": b["n_urls"],
                "trapped": pc.cast(
                    pc.greater_equal(b["n_urls"], thresh), pa.int32()
                ),
            }
        )

    return (
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["host", "pattern"])
        .aggregate(Sum("n", alias_name="n_urls"))
        .map_batches(flag, batch_format="pyarrow")
        .sort(["host", "pattern"])
    )


SQL_CRAWL_TRAPS = (
    _SQL_MH_CTE
    + """
SELECT host,
       regexp_replace(regexp_replace(url, '^http://[^/]+', ''),
                      '[0-9]+', '#', 'g') AS pattern,
       CAST(count(*) AS BIGINT) AS n_urls,
       CAST(CASE WHEN count(*) >= 20 THEN 1 ELSE 0 END AS INTEGER) AS trapped
FROM pg
GROUP BY host, pattern
ORDER BY host, pattern
"""
)


def q_crawl_trap_guard(sf_dir: str):
    """The trap guard under the exact gate: deny_url_patterns
    quarantines matching candidates at admission (terminal, like a
    robots disallow) — the consumer side of crawl_traps, where flagged
    URL templates are fed back to the frontier so the crawl never
    descends into the trap. Denied subtrees stay reachable only
    through non-matching paths; oracle = the recursive multi-host walk
    restricted to seg <> 'de'."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=16,
        deny_url_patterns=[r"/de/"],
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    assert res.counts["errored"] > 0, "trap quarantine must fire"
    return res.order.select(["url", "depth"])


SQL_CRAWL_TRAP_GUARD = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1
  FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6 AND e.dst NOT LIKE '%/de/%')
SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url
"""
)


def q_crawl_retry_backoff(sf_dir: str):
    """Transient-failure retry with exponential backoff under the
    exact gate: a shared flaky origin (stages/fetch.py
    FlakyOriginServer — pages with doc_id % 5 == 3 return nothing
    until their 3rd fetch attempt) drives the scheduler's retry path:
    failure #f re-schedules the URL for round + 2**f inside its owning
    shard, so a flaky page discovered at round r fetches at r+6
    (fail, +2, fail, +4, success) and its subtree's discovery shifts
    with it. The oracle simulation carries (attempts, avail_round) per
    URL through the same recursion. max_retries=3 bounds escalation;
    rounds where only backoff slots are pending idle forward without
    an order part."""
    import ray as _ray

    from ..stages.fetch import FlakyClient, FlakyOriginServer
    from .crawl import CrawlConfig, run_crawl_with_fetcher

    corpus = multihost_corpus_dir(sf_dir)
    server = _ray.remote(FlakyOriginServer).options(num_cpus=0).remote(corpus)
    try:
        cfg = CrawlConfig(
            n_shards=4,
            max_depth=6,
            max_rounds=96,
            max_retries=3,
            backoff_base=2,
        )
        res = run_crawl_with_fetcher(
            lambda: FlakyClient(server), [_mh_seed(sf_dir)], cfg
        )
        assert any(m.get("retried") for m in res.metrics), "retries must fire"
        assert res.counts["errored"] == 0, "every flaky page recovers"
        order = res.order
    finally:
        _ray.kill(server)
    return order


_SQL_RETRY_SIM = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
sim(round, url, depth, att, avail, done) AS (
  SELECT 0 AS round, url, CAST(0 AS INTEGER) AS depth,
         0 AS att, 0 AS avail, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  cur AS (SELECT max(round) AS r FROM prev),
  sel AS (SELECT p.url, p.depth, p.att, g.doc_id
          FROM prev p JOIN pg g ON g.url = p.url, cur
          WHERE NOT p.done AND p.avail <= cur.r),
  oc AS (SELECT url, depth, att + 1 AS att2,
                ((doc_id % 5) <> 3 OR att + 1 >= 3) AS succ
         FROM sel),
  disc AS (SELECT e.dst AS url, min(o.depth + 1) AS ddepth
           FROM oc o JOIN edges e ON e.src = o.url
           WHERE o.succ GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT o.url, o.depth, o.att2 AS att,
           CASE WHEN o.succ THEN 0
                ELSE cur.r + CAST(power(2, o.att2) AS INTEGER) END AS avail,
           o.succ AS done
    FROM oc o, cur
    UNION ALL
    SELECT p.url, p.depth, p.att, p.avail, p.done
    FROM prev p, cur
    WHERE p.done OR p.avail > cur.r
    UNION ALL
    SELECT k.url, k.ddepth, 0, 0, FALSE FROM kids k)
  SELECT cur.r + 1, n.url, CAST(n.depth AS INTEGER), n.att, n.avail, n.done
  FROM nstate n, cur
  WHERE EXISTS (SELECT 1 FROM prev WHERE NOT done) AND cur.r < 96
  )
)
"""
)

SQL_CRAWL_RETRY_BACKOFF = (
    _SQL_RETRY_SIM
    + """
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)

# per-round telemetry from the SAME retry simulation: state at sim
# round r holds what engine round r is about to select (not done,
# backoff elapsed); done-count delta to r+1 = fetched, the rest of the
# selection failed and re-entered backoff = retried. Idle rounds
# (only waiting backoff slots eligible later) have selected = 0 and
# emit no row, exactly like the engine's metrics list.
SQL_CRAWL_METRICS_RETRY = (
    _SQL_RETRY_SIM
    + """,
per AS (
  SELECT round AS r,
         count(*) FILTER (WHERE NOT done AND avail <= round) AS selected,
         count(*) FILTER (WHERE done) AS n_done
  FROM sim GROUP BY round)
SELECT CAST(p.r AS BIGINT) AS round,
       CAST(p.selected AS BIGINT) AS selected,
       CAST(coalesce(p2.n_done, 0) - p.n_done AS BIGINT) AS fetched,
       CAST(p.selected - (coalesce(p2.n_done, 0) - p.n_done) AS BIGINT)
         AS retried
FROM per p LEFT JOIN per p2 ON p2.r = p.r + 1
WHERE p.selected > 0
ORDER BY round
"""
)


def q_crawl_capped_budget(sf_dir: str):
    """Per-host politeness UNDER the distributed global round cap —
    the r3 control plane's k-th-key truncation composed with r4's
    per-host budgets: each round every host yields at most 3 URLs,
    then the 8 globally smallest (depth, url) keys of that capped pool
    survive the iterative threshold selection; the overflow requeues
    shard-locally and competes again. The oracle ranks twice in the
    same recursion (per-host rn, then global rank over the capped
    pool) and carries the pending min-depth update for everything
    handed back."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=3,
        round_limit=8,
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    sel = [m["selected"] for m in res.metrics]
    assert max(sel) == 8, sel  # the global cap must bind
    return res.order


SQL_CRAWL_CAPPED_BUDGET = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
sim(round, url, host, depth, done) AS (
  SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, host, depth FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.host, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE q.host = p.host
                       AND (q.depth, q.url) <= (p.depth, p.url)) AS rn
             FROM pending p),
  pool AS (SELECT url, host, depth FROM ranked WHERE rn <= 3),
  g AS (SELECT s.url, s.host, s.depth,
               (SELECT count(*) FROM pool q
                WHERE (q.depth, q.url) <= (s.depth, s.url)) AS rng
        FROM pool s),
  sel AS (SELECT url, host, depth FROM g WHERE rng <= 8),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.ddepth, FALSE
    FROM kids k)
  SELECT r0.r + 1, n.url, n.host, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS r FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.r < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


_IP_GROUPS = {
    # vhosts bound to one origin server (Heritrix ip-based queues):
    # 3 hosts share srv-a's budget, 2 share srv-b's; h5/h6 stay
    # per-host. Grouped hosts also ROUTE by group (one shard owns a
    # server's whole queue), exercised because n_shards=4 < 7 hosts.
    "h0.example.ca": "srv-a",
    "h2.example.ca": "srv-a",
    "h4.example.ca": "srv-a",
    "h1.example.ca": "srv-b",
    "h3.example.ca": "srv-b",
}


def q_crawl_ip_groups(sf_dir: str):
    """Shared politeness budgets for vhosts on ONE origin server
    (Heritrix's ip-based frontier queues; reference's per-host
    courtesy generalized): CrawlConfig.ip_groups binds h0/h2/h4 to
    server group srv-a and h1/h3 to srv-b, so each GROUP — not each
    host — gets the token bucket's refill-2/burst-4/banked-carry
    allowance, and the three srv-a vhosts compete in one (depth, url)
    queue. Routing keys grouped hosts by the group, so the shared
    bucket is enforced inside a single owning shard with no
    cross-shard coordination. The oracle re-runs the token-sentinel
    round simulation with budget keys = coalesce(group, host)."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=2,
        politeness="token_bucket",
        ip_groups=dict(_IP_GROUPS),
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_IP_GROUPS = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
gmap(host, grp) AS (VALUES
  ('h0.example.ca', 'srv-a'), ('h2.example.ca', 'srv-a'),
  ('h4.example.ca', 'srv-a'), ('h1.example.ca', 'srv-b'),
  ('h3.example.ca', 'srv-b')),
bkeys AS (SELECT DISTINCT coalesce(g.grp, h.host) AS k
          FROM (SELECT DISTINCT host FROM pg) h
          LEFT JOIN gmap g ON g.host = h.host),
sim(round, url, host, depth, done) AS (
  SELECT * FROM (
    SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth, FALSE AS done
    FROM pg WHERE doc_id = 0
    UNION ALL
    SELECT 0, '', k, CAST(0 AS INTEGER), TRUE FROM bkeys)
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  caps AS (SELECT p.host AS k, least(4, p.depth + 2) AS cap
           FROM prev p WHERE p.url = ''),
  pending AS (SELECT p.url, p.host, p.depth, coalesce(g.grp, p.host) AS k
              FROM prev p LEFT JOIN gmap g ON g.host = p.host
              WHERE NOT p.done AND p.url <> ''),
  ranked AS (SELECT p.url, p.host, p.depth, p.k,
                    (SELECT count(*) FROM pending q
                     WHERE q.k = p.k
                       AND (q.depth, q.url) <= (p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT r.url, r.host, r.depth, r.k
          FROM ranked r JOIN caps c ON c.k = r.k
          WHERE r.rn <= c.cap),
  used AS (SELECT k, count(*) AS u FROM sel GROUP BY k),
  pend_keys AS (SELECT DISTINCT k FROM pending),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth AS depth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    WHERE p.url <> ''
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.depth, FALSE
    FROM kids k
    UNION ALL
    SELECT '', p.host,
           CASE WHEN p.host IN (SELECT k FROM pend_keys)
                THEN (SELECT c.cap FROM caps c WHERE c.k = p.host)
                     - coalesce((SELECT u.u FROM used u WHERE u.k = p.host), 0)
                ELSE p.depth END,
           TRUE
    FROM prev p WHERE p.url = '')
  SELECT r0.round + 1, n.url, n.host, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done AND url <> ''
GROUP BY depth, url
"""
)


# hosts of the domain-mapped corpus: three registered domains with two
# vhosts each (grouped by the PSL kernel) plus one standalone host
_DOM_HOSTS = (
    "a.example.ca",
    "b.example.ca",
    "news.sample.on.ca",
    "shop.sample.on.ca",
    "www.demo.co.uk",
    "blog.demo.co.uk",
    "solo.net",
)


def domains_corpus_dir(sf_dir: str) -> str:
    """Multi-host corpus variant whose 7 vhosts live under FOUR
    registered domains (example.ca / sample.on.ca / demo.co.uk x2
    vhosts each, solo.net alone) — the shape where per-HOST politeness
    over-fetches an origin and Heritrix-style queue-by-registered-
    domain is the fix. Same page/link arithmetic as the multihost
    corpus, hosts string-mapped in urls and html."""

    def make_pages() -> pa.Table:
        pages = pages_from_documents(_docs_table(sf_dir), n_hosts=_MH_HOSTS)
        mapping = [
            (f"h{k}.example.ca", _DOM_HOSTS[k]) for k in range(_MH_HOSTS)
        ]
        urls = pages["url"].to_pylist()
        htmls = pages["html"].to_pylist()
        for i in range(len(urls)):
            u, h = urls[i], htmls[i].decode()
            for old, new in mapping:
                u = u.replace(old, new)
                h = h.replace(old, new)
            urls[i] = u
            htmls[i] = h.encode()
        pages = pages.set_column(
            pages.schema.get_field_index("url"), "url", pa.array(urls, pa.string())
        )
        return pages.set_column(
            pages.schema.get_field_index("html"), "html", pa.array(htmls, pa.binary())
        )

    return _pages_corpus(f"{sf_dir}|domains", make_pages)


def q_crawl_domain_budget(sf_dir: str):
    """Queue-by-REGISTERED-DOMAIN politeness (Heritrix's default queue
    assignment): the PSL kernel (functions/urls.py registered_domain)
    derives the budget grouping from the hostnames themselves — the 6
    vhosts under example.ca / sample.on.ca / demo.co.uk collapse into
    3 shared token buckets (refill 2, burst 4, banked carry) while
    solo.net, its own eTLD+1, keeps a private queue. Composition gate:
    PSL extraction -> ip_groups routing (shared allowance enforced
    inside ONE owning shard) -> token-bucket schedule, all under the
    exact (round, depth, url) hash. Oracle re-runs the token-sentinel
    round simulation with budget keys = the PSL expectations."""
    from ..functions.urls import registered_domain
    from .crawl import CrawlConfig, run_crawl

    groups = {}
    for h in _DOM_HOSTS:
        rd = registered_domain(h)
        if rd != h:  # a host that IS its own eTLD+1 keeps a private queue
            groups[h] = rd
    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=2,
        politeness="token_bucket",
        ip_groups=groups,
    )
    seed = _mh_seed(sf_dir).replace("h0.example.ca", _DOM_HOSTS[0])
    res = run_crawl(domains_corpus_dir(sf_dir), [seed], cfg)
    return res.order


_SQL_DOM_HOST_CASE = (
    "CASE doc_id % 7 "
    + " ".join(f"WHEN {i} THEN '{h}'" for i, h in enumerate(_DOM_HOSTS))
    + " END"
)


_SQL_DOM_CTE = f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
base AS (
  SELECT doc_id, lang, source,
         (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END) AS seg,
         {_SQL_DOM_HOST_CASE} AS host0,
         'http://' || {_SQL_DOM_HOST_CASE} AS origin
  FROM documents),
pg AS (
  SELECT d.doc_id, d.host0 AS host,
         d.origin || '/' || d.seg || '/' || d.source || '/doc' || d.doc_id AS url,
         c1.origin || '/' || c1.seg || '/' || c1.source || '/doc' || c1.doc_id AS c1_url,
         c2.origin || '/' || c2.seg || '/' || c2.source || '/doc' || c2.doc_id AS c2_url
  FROM base d, nn
  JOIN base c1 ON c1.doc_id = (2 * d.doc_id + 1) % nn.n
  JOIN base c2 ON c2.doc_id = (2 * d.doc_id + 2) % nn.n)
"""


SQL_CRAWL_DOMAIN_BUDGET = (
    "WITH RECURSIVE "
    + _SQL_DOM_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
gmap(host, grp) AS (VALUES
  ('a.example.ca', 'example.ca'), ('b.example.ca', 'example.ca'),
  ('news.sample.on.ca', 'sample.on.ca'), ('shop.sample.on.ca', 'sample.on.ca'),
  ('www.demo.co.uk', 'demo.co.uk'), ('blog.demo.co.uk', 'demo.co.uk')),
bkeys AS (SELECT DISTINCT coalesce(g.grp, h.host) AS k
          FROM (SELECT DISTINCT host FROM pg) h
          LEFT JOIN gmap g ON g.host = h.host),
sim(round, url, host, depth, done) AS (
  SELECT * FROM (
    SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth, FALSE AS done
    FROM pg WHERE doc_id = 0
    UNION ALL
    SELECT 0, '', k, CAST(0 AS INTEGER), TRUE FROM bkeys)
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  caps AS (SELECT p.host AS k, least(4, p.depth + 2) AS cap
           FROM prev p WHERE p.url = ''),
  pending AS (SELECT p.url, p.host, p.depth, coalesce(g.grp, p.host) AS k
              FROM prev p LEFT JOIN gmap g ON g.host = p.host
              WHERE NOT p.done AND p.url <> ''),
  ranked AS (SELECT p.url, p.host, p.depth, p.k,
                    (SELECT count(*) FROM pending q
                     WHERE q.k = p.k
                       AND (q.depth, q.url) <= (p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT r.url, r.host, r.depth, r.k
          FROM ranked r JOIN caps c ON c.k = r.k
          WHERE r.rn <= c.cap),
  used AS (SELECT k, count(*) AS u FROM sel GROUP BY k),
  pend_keys AS (SELECT DISTINCT k FROM pending),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth AS depth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    WHERE p.url <> ''
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.depth, FALSE
    FROM kids k
    UNION ALL
    SELECT '', p.host,
           CASE WHEN p.host IN (SELECT k FROM pend_keys)
                THEN (SELECT c.cap FROM caps c WHERE c.k = p.host)
                     - coalesce((SELECT u.u FROM used u WHERE u.k = p.host), 0)
                ELSE p.depth END,
           TRUE
    FROM prev p WHERE p.url = '')
  SELECT r0.round + 1, n.url, n.host, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done AND url <> ''
GROUP BY depth, url
"""
)


def q_crawl_backlink_priority(sf_dir: str):
    """ADAPTIVE importance-ordered crawl under the exact gate: the
    Cho/Garcia-Molina/Page 1998 backlink-count ordering metric computed
    ONLINE — every admission or pending rediscovery bumps the URL's
    citation count inside its owning shard, and the frontier re-ranks
    by (-citations, depth, url) as counts accumulate (vs
    crawl_priority_indegree's STATIC precomputed scores). Per-host
    budget 2 throttles the drain so the adaptive re-ranking actually
    changes the schedule. The oracle simulation carries per-URL scores
    through the recursion: +1 per same-round parent edge for pending
    URLs, frozen at selection."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=2,
        priority="backlink_desc",
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_BACKLINK_PRIORITY = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
sim(round, url, host, depth, score, done) AS (
  SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth,
         CAST(1 AS BIGINT) AS score, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, host, depth, score FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.host, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE q.host = p.host
                       AND (-q.score, q.depth, q.url)
                           <= (-p.score, p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT url, host, depth FROM ranked WHERE rn <= 2),
  selg AS (SELECT s.url, s.depth, g.c1_url, g.c2_url
           FROM sel s JOIN pg g ON g.url = s.url),
  contrib AS (
    SELECT c1_url AS url, depth + 1 AS d FROM selg
    UNION ALL SELECT c2_url, depth + 1 FROM selg),
  disc AS (SELECT url, min(d) AS ddepth, count(*) AS nb
           FROM contrib
           WHERE d <= 6  -- the task drops deeper candidates BEFORE the
                         -- shard, so they never bump a citation count
           GROUP BY url),
  kids AS (SELECT d.url, d.ddepth, d.nb FROM disc d
           WHERE NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.score
                ELSE p.score + coalesce(d.nb, 0) END AS score,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.ddepth, k.nb, FALSE
    FROM kids k)
  SELECT r0.r + 1, n.url, n.host, CAST(n.depth AS INTEGER),
         CAST(n.score AS BIGINT), n.done
  FROM nstate n, (SELECT max(round) AS r FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.r < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_crawl_opic(sf_dir: str):
    """OPIC-ordered crawl under the exact gate: Abiteboul/Preda/Cobena
    2003 Online Page Importance Computation, greedy drain. Seeds start
    with integer cash 2^20; a fetched page's FROZEN cash splits over
    its distinct out-links in first-occurrence order (link j of n gets
    cash//n, +1 for the first cash%n links — exact integer shares, no
    float accumulation), shares sum into the owning shard's live
    accounts, and the frontier drains (-cash, depth, url). Runs on the
    FANOUT-3 multi-host corpus: on the fanout-2 graph every page's
    cash is a power of two fixed by its depth, so the schedule
    collapses onto crawl_backlink_priority's (verified by simulation)
    — C//3 splits break that symmetry, and 411 of 500 URLs schedule
    differently from citation counting. The oracle simulation carries
    per-URL cash through the recursion, frozen at selection."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=5,
        max_rounds=96,
        per_host_budget=2,
        priority="opic",
    )
    res = run_crawl(multihost3_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_OPIC = (
    "WITH RECURSIVE "
    + _SQL_MH3_CTE.replace("WITH ", "", 1)
    + """,
sim(round, url, host, depth, score, done) AS (
  SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth,
         CAST(1048576 AS BIGINT) AS score, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, host, depth, score FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.host, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE q.host = p.host
                       AND (-q.score, q.depth, q.url)
                           <= (-p.score, p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT url, host, depth FROM ranked WHERE rn <= 2),
  selg AS (SELECT s.url, s.depth, g.c1_url, g.c2_url, g.c3_url, p.score
           FROM sel s JOIN pg g ON g.url = s.url
           JOIN prev p ON p.url = s.url),
  contrib AS (
    -- the page's frozen cash splits score//3 over (c1, c2, c3) with
    -- the remainder's +1s landing on the EARLIEST links — the control
    -- builder's first-occurrence-rank convention
    SELECT c1_url AS url, depth + 1 AS d, (score + 2) // 3 AS sh
    FROM selg
    UNION ALL SELECT c2_url, depth + 1, (score + 1) // 3 FROM selg
    UNION ALL SELECT c3_url, depth + 1, score // 3 FROM selg),
  disc AS (SELECT url, min(d) AS ddepth, sum(sh) AS nb
           FROM contrib
           WHERE d <= 5  -- deep candidates drop BEFORE the shard, so
                         -- their cash share vanishes with them
           GROUP BY url),
  kids AS (SELECT d.url, d.ddepth, d.nb FROM disc d
           WHERE NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.score
                ELSE p.score + coalesce(d.nb, 0) END AS score,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.ddepth, k.nb, FALSE
    FROM kids k)
  SELECT r0.r + 1, n.url, n.host, CAST(n.depth AS INTEGER),
         CAST(n.score AS BIGINT), n.done
  FROM nstate n, (SELECT max(round) AS r FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.r < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_crawl_relevance_priority(sf_dir: str):
    """FOCUSED crawl under the exact gate (shark-search-lite —
    Hersovici et al. 1998 / Chakrabarti et al.'s focused crawling,
    composed into the distributed control plane): every round task
    scores its fetched pages by `relevance_keyword` occurrences in the
    extracted html_content (one vectorized count_substring pass —
    content analysis INSIDE the data plane), each surviving out-link
    candidate inherits its parent's score, and the owning shard
    MAX-combines scores into the URL's account (commutative AND
    idempotent, so RPC landing order and rediscoveries are moot). The
    frontier drains (-score, depth, url) under per-host budget 2, so
    links cited by on-topic pages fetch first. Unlike opic/backlink,
    the score is a pure function of fetched CONTENT — nothing rides
    selections, nothing needs freezing. The oracle simulation carries
    per-URL best-parent keyword counts through the recursion."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=2,
        priority="relevance_desc",
        relevance_keyword="merge",
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_RELEVANCE_PRIORITY = r"""
WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
base AS (
  SELECT doc_id, lang, source,
         (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END) AS seg,
         'http://h' || (doc_id % 7) || '.example.ca' AS origin,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS body
  FROM documents),
pg AS (
  SELECT d.doc_id,
         'h' || (d.doc_id % 7) || '.example.ca' AS host,
         d.origin || '/' || d.seg || '/' || d.source || '/doc' || d.doc_id AS url,
         c1.origin || '/' || c1.seg || '/' || c1.source || '/doc' || c1.doc_id AS c1_url,
         c2.origin || '/' || c2.seg || '/' || c2.source || '/doc' || c2.doc_id AS c2_url,
         CAST((length(d.body) - length(replace(d.body, 'merge', '')))
              // length('merge') AS BIGINT) AS kwc
  FROM base d, nn
  JOIN base c1 ON c1.doc_id = (2 * d.doc_id + 1) % nn.n
  JOIN base c2 ON c2.doc_id = (2 * d.doc_id + 2) % nn.n),
sim(round, url, host, depth, score, done) AS (
  SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth,
         CAST(0 AS BIGINT) AS score, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, host, depth, score FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.host, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE q.host = p.host
                       AND (-q.score, q.depth, q.url)
                           <= (-p.score, p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT url, host, depth FROM ranked WHERE rn <= 2),
  selg AS (SELECT s.url, s.depth, g.c1_url, g.c2_url, g.kwc
           FROM sel s JOIN pg g ON g.url = s.url),
  contrib AS (
    -- each fetched parent endorses both heap children with its OWN
    -- keyword count; a child keeps the BEST endorsement (max)
    SELECT c1_url AS url, depth + 1 AS d, kwc AS sc FROM selg
    UNION ALL SELECT c2_url, depth + 1, kwc FROM selg),
  disc AS (SELECT url, min(d) AS ddepth, max(sc) AS ms
           FROM contrib
           WHERE d <= 6  -- the task drops deeper candidates BEFORE the
                         -- shard, so they never carry a score
           GROUP BY url),
  kids AS (SELECT d.url, d.ddepth, d.ms FROM disc d
           WHERE NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.score
                ELSE greatest(p.score, coalesce(d.ms, 0)) END AS score,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.ddepth, k.ms, FALSE
    FROM kids k)
  SELECT r0.r + 1, n.url, n.host, CAST(n.depth AS INTEGER),
         CAST(n.score AS BIGINT), n.done
  FROM nstate n, (SELECT max(round) AS r FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.r < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""


def q_crawl_metrics_retry(sf_dir: str):
    """The retry scheduler's per-round telemetry, hash-checked: the
    same flaky-origin crawl as crawl_retry_backoff, but the gate is
    the metrics stream — selected (eligible incl. due retries),
    fetched (survived the flaky origin), and the new ``retried``
    counter (failed this round, re-entered backoff) per round, with
    idle all-waiting rounds emitting no row. The oracle derives all
    three from the same recursive retry simulation's state deltas."""
    import ray as _ray

    from ..stages.fetch import FlakyClient, FlakyOriginServer
    from .crawl import CrawlConfig, run_crawl_with_fetcher

    corpus = multihost_corpus_dir(sf_dir)
    server = _ray.remote(FlakyOriginServer).options(num_cpus=0).remote(corpus)
    try:
        cfg = CrawlConfig(
            n_shards=4,
            max_depth=6,
            max_rounds=96,
            max_retries=3,
            backoff_base=2,
        )
        res = run_crawl_with_fetcher(
            lambda: FlakyClient(server), [_mh_seed(sf_dir)], cfg
        )
        m = res.metrics
        assert sum(r.get("retried", 0) for r in m) > 0
        tbl = pa.table(
            {
                "round": pa.array([r["round"] for r in m], pa.int64()),
                "selected": pa.array([r["selected"] for r in m], pa.int64()),
                "fetched": pa.array([r["fetched"] for r in m], pa.int64()),
                "retried": pa.array(
                    [r.get("retried", 0) for r in m], pa.int64()
                ),
            }
        )
    finally:
        _ray.kill(server)
    return tbl


def redirect_corpus_dir(sf_dir: str) -> str:
    """Multi-host corpus variant where every doc_id % 9 == 5 page is a
    meta-refresh stub (the stored-corpus stand-in for an HTTP 301) to
    its FIRST heap child — the page serves no body and no links, just
    the redirect. Built once per sf_dir and cached like the other
    derived corpora."""

    def make_pages() -> pa.Table:
        docs = _docs_table(sf_dir)
        n = docs.num_rows
        langs = docs["lang"].to_pylist()
        sources = docs["source"].to_pylist()

        def stub(doc: int, html: str) -> str | None:
            if doc % 9 != 5:
                return None
            c = (2 * doc + 1) % n
            return (
                '<html><head><meta http-equiv="refresh" '
                f'content="0;url={_mh_url(c, langs[c], sources[c])}"></head>'
                "<body>Moved</body></html>"
            )

        return _rewrite_html(pages_from_documents(docs, n_hosts=_MH_HOSTS), stub)

    return _pages_corpus(f"{sf_dir}|mh{_MH_HOSTS}|redir9", make_pages)


def meta_robots_corpus_dir(sf_dir: str) -> str:
    """Multi-host corpus variant carrying page-level robots directives
    (the Robots Exclusion Protocol's HTML companion): doc_id % 9 == 4
    pages declare ``nofollow`` (their links stay IN the html — only an
    obeying crawler ignores them), doc_id % 5 == 2 pages declare
    ``noindex``, pages matching both carry both tokens. Cached like
    the other derived corpora."""

    def add_meta(doc: int, html: str) -> str | None:
        toks = []
        if doc % 5 == 2:
            toks.append("noindex")
        if doc % 9 == 4:
            toks.append("nofollow")
        if not toks:
            return None
        tag_html = f'<meta name="robots" content="{", ".join(toks)}">'
        return html.replace("<head>", "<head>" + tag_html, 1)

    return _pages_corpus(
        f"{sf_dir}|mh{_MH_HOSTS}|metarobots",
        lambda: _rewrite_html(
            pages_from_documents(_docs_table(sf_dir), n_hosts=_MH_HOSTS), add_meta
        ),
    )


def canonical_corpus_dir(sf_dir: str) -> str:
    """Single-host corpus variant where doc_id % 6 in (1, 2) pages
    declare ``<link rel="canonical" href="...">`` pointing at the
    group's base page doc_id - (doc_id %% 6) — the SEO-standard
    duplicate-consolidation hint (print/mobile/tracking variants of
    one canonical page). Cached like the other derived corpora."""

    def make_pages() -> pa.Table:
        docs = _docs_table(sf_dir)
        langs = docs["lang"].to_pylist()
        sources = docs["source"].to_pylist()

        def add_link(doc: int, html: str) -> str | None:
            if doc % 6 not in (1, 2):
                return None
            b = doc - doc % 6
            link = f'<link rel="canonical" href="{page_url(b, langs[b], sources[b])}">'
            return html.replace("<head>", "<head>" + link, 1)

        return _rewrite_html(pages_from_documents(docs), add_link)

    return _pages_corpus(f"{sf_dir}|canon6", make_pages)


def q_canonical_consolidate(sf_dir: str):
    """rel=canonical duplicate consolidation (the indexing-side
    companion to the crawl: canonical is a hint for what to KEEP, not
    what to fetch): extract surfaces each page's ``<link
    rel=canonical>`` target absolutized like a frontier link, pages
    group under coalesce(canonical, url), and each group reports its
    member count and representative (lexicographic min — deterministic
    on both sides). Streams extract -> key -> ONE string-key groupby;
    no driver materialization."""
    import functools

    pages = ray.data.read_parquet(
        canonical_corpus_dir(sf_dir), columns=["url", "html"]
    )
    items = pages.map_batches(
        functools.partial(extract_batch, now_us=0),
        batch_format="pyarrow",
        batch_size=256,
    )

    def key(b: pa.Table) -> pa.Table:
        canon = b["canonical"].combine_chunks()
        url = b["url"].combine_chunks()
        return pa.table(
            {
                "canonical_url": pc.if_else(canon.is_valid(), canon, url),
                "url": url,
            }
        )

    agg = (
        items.map_batches(key, batch_format="pyarrow")
        .groupby("canonical_url")
        .aggregate(Count(alias_name="n_pages"), Min("url", alias_name="rep_url"))
    )
    return agg


SQL_CANONICAL_CONSOLIDATE = (
    _SQL_PAGE_CTE
    + """,
canon AS (
  SELECT d.url,
         CASE WHEN d.doc_id % 6 IN (1, 2) THEN t.url ELSE d.url END
           AS canonical_url
  FROM pg d LEFT JOIN pg t ON t.doc_id = d.doc_id - (d.doc_id % 6))
SELECT canonical_url, CAST(count(*) AS BIGINT) AS n_pages,
       min(url) AS rep_url
FROM canon GROUP BY canonical_url
"""
)


# soft-404 fixture: the error body planted under a 200 response, and the
# phrase lexicon the detector counts. Shared verbatim with the SQL oracle.
_SOFT404_BODY = (
    "Error 404 page not found. The page you requested does not exist "
    "or is no longer available. Try the search."
)
_SOFT404_PHRASES = ("page not found", "does not exist", "no longer available")
_SOFT404_MOD = 13
_SOFT404_MIN_HITS = 2


def soft404_corpus_dir(sf_dir: str) -> str:
    """Single-host corpus variant where every doc_id % 13 == 0 page
    serves an ERROR-PAGE body under a 200 response — the soft-404
    shape (server misconfigured to return 200 for missing pages) that
    poisons an index unless detected content-side. Cached like the
    other derived corpora."""

    def error_body(doc: int, html: str) -> str | None:
        if doc % _SOFT404_MOD != 0:
            return None
        a = html.find("<p>")
        b = html.find("</p>")
        return html[:a] + "<p>" + _SOFT404_BODY + "</p>" + html[b + 4 :]

    return _pages_corpus(
        f"{sf_dir}|soft404",
        lambda: _rewrite_html(pages_from_documents(_docs_table(sf_dir)), error_body),
    )


def q_soft404(sf_dir: str):
    """Soft-404 detection (Bar-Yossef et al. 2004, "Sic Transit Gloria
    Telae": pages that answer 200 but are really error pages — a
    content-side classifier every production crawler runs because a
    misconfigured origin otherwise floods the index with 'not found'
    boilerplate). The REAL extract kernel runs over the variant
    corpus, the cleaned html is tag-stripped to page text, and a
    vectorized non-overlapping phrase count over the lowercased text
    (Arrow count_substring — no Python loop in the hot path) flags
    pages with >= 2 error-phrase hits. Oracle: identical
    replace-length phrase arithmetic over the reconstructed text."""
    import functools

    pages = ray.data.read_parquet(
        soft404_corpus_dir(sf_dir), columns=["url", "html"]
    )
    items = pages.map_batches(
        functools.partial(extract_batch, now_us=0),
        batch_format="pyarrow",
        batch_size=256,
    )

    def score(b: pa.Table) -> pa.Table:
        texts = [
            _WET_WS_RE.sub(" ", _WET_TAG_RE.sub(" ", h or "")).strip()
            for h in b["html_content"].to_pylist()
        ]
        low = pc.utf8_lower(pa.array(texts, pa.string()))
        n = pa.array([0] * len(texts), pa.int64())
        for p in _SOFT404_PHRASES:
            n = pc.add(n, pc.count_substring(low, p).cast(pa.int64()))
        return pa.table(
            {
                "url": b["url"],
                "n_err_phrases": n,
                "is_soft404": pc.greater_equal(
                    n, pa.scalar(_SOFT404_MIN_HITS, pa.int64())
                ),
            }
        )

    return items.select_columns(["url", "html_content"]).map_batches(
        score, batch_format="pyarrow"
    )


def _sql_phrase_count(expr: str, phrase: str) -> str:
    return (
        f"(length({expr}) - length(replace({expr}, '{phrase}', '')))"
        f" // {len(phrase)}"
    )


SQL_SOFT404 = (
    _SQL_PAGE_CTE
    + f""",
sbody AS (
  SELECT url,
         CASE WHEN doc_id % {_SOFT404_MOD} = 0 THEN '{_SOFT404_BODY}'
              ELSE body END AS body2, title, pdate, c1_path, c2_path
  FROM pg),
stext AS (
  SELECT url,
         lower(trim(regexp_replace(regexp_replace(
           '<html><body><main class="container"><h1>' || title || '</h1><p>' || body2
           || '</p><time>' || pdate || '</time><a href="' || c1_path || '">next</a><a href="'
           || c2_path || '">more</a><a href="#top">top</a><a href="mailto:info@example.ca">mail</a>'
           || '<a href="/files/report.pdf">pdf</a><a href="' || c1_path || '?ref=nav">dup</a></main></body></html>',
           '<[^>]*>', ' ', 'g'), '\\s+', ' ', 'g'))) AS t
  FROM sbody)
SELECT url,
       CAST({" + ".join(_sql_phrase_count("t", p) for p in _SOFT404_PHRASES)}
            AS BIGINT) AS n_err_phrases,
       ({" + ".join(_sql_phrase_count("t", p) for p in _SOFT404_PHRASES)})
         >= {_SOFT404_MIN_HITS} AS is_soft404
FROM stext
"""
)


def dust_corpus_dir(sf_dir: str) -> str:
    """Single-host corpus variant carrying DUST aliases: every
    doc_id % 5 == 2 page ALSO exists at url + '?print=1' and every
    doc_id % 5 == 3 page at the m.-prefixed host, with byte-identical
    html — the Different-URL-Same-Text shape rule discovery must
    learn. Cached like the other derived corpora."""

    def make_pages() -> pa.Table:
        pages = pages_from_documents(_docs_table(sf_dir))
        extra_idx, extra_url = [], []
        for i, u in enumerate(pages["url"].to_pylist()):
            doc = _doc_id_from_url(u)
            if doc % 5 == 2:
                extra_idx.append(i)
                extra_url.append(u + "?print=1")
            elif doc % 5 == 3:
                extra_idx.append(i)
                extra_url.append(
                    u.replace(
                        "http://inspection.canada.ca",
                        "http://m.inspection.canada.ca",
                        1,
                    )
                )
        extra = pages.take(extra_idx).set_column(
            pages.schema.get_field_index("url"),
            "url",
            pa.array(extra_url, pa.string()),
        )
        return pa.concat_tables([pages, extra])

    return _pages_corpus(f"{sf_dir}|dust", make_pages)


def q_dust_rules(sf_dir: str):
    """DUST rule discovery (Bar-Yossef et al. 2007) over the alias
    corpus: content-fingerprint grouping must surface EXACTLY the two
    planted rewrite rules — strip '?print=1' (support = #docs%5==2)
    and strip the 'm.' host prefix (support = #docs%5==3) — and
    nothing else (unique body texts make every other pair
    impossible). The oracle states the expected rule table by
    construction; a rule learner that over-generalizes the
    prefix/suffix diff or miscounts support hash-mismatches."""
    from ..stages.dedup import dust_rules

    pages = ray.data.read_parquet(dust_corpus_dir(sf_dir), columns=["url", "html"])
    return dust_rules(pages, url_col="url", content_col="html", min_support=3)


SQL_DUST_RULES = """
WITH c2 AS (SELECT count(*) AS n FROM documents WHERE doc_id % 5 = 2),
c3 AS (SELECT count(*) AS n FROM documents WHERE doc_id % 5 = 3)
SELECT '?print=1' AS rule_from, '' AS rule_to, CAST(c2.n AS BIGINT) AS support
FROM c2 WHERE c2.n >= 3
UNION ALL
SELECT 'm.', '', CAST(c3.n AS BIGINT) FROM c3 WHERE c3.n >= 3
"""


def hreflang_corpus_dir(sf_dir: str) -> str:
    """Single-host corpus variant where every page declares ``<link
    rel="alternate" hreflang>`` variants: docs cluster in groups of 4
    (doc_id // 4) and each member declares the other three with the
    TARGET's lang segment as hreflang — the rel-alternate-hreflang
    reciprocal-linking shape Google's guidelines prescribe. Cached like
    the other derived corpora."""

    def make_pages() -> pa.Table:
        docs = _docs_table(sf_dir)
        n = docs.num_rows
        langs = docs["lang"].to_pylist()
        sources = docs["source"].to_pylist()

        def add_links(doc: int, html: str) -> str:
            g0 = doc - doc % 4
            links = "".join(
                f'<link rel="alternate" hreflang="{lang_segment(langs[m])}" '
                f'href="{page_url(m, langs[m], sources[m])}">'
                for m in range(g0, min(g0 + 4, n))
                if m != doc
            )
            return html.replace("<head>", "<head>" + links, 1)

        return _rewrite_html(pages_from_documents(docs), add_links)

    return _pages_corpus(f"{sf_dir}|hreflang4", make_pages)


def q_hreflang_clusters(sf_dir: str):
    """rel-alternate-hreflang language-variant clustering (the
    indexing-side companion to canonical consolidation: canonical
    collapses duplicates, hreflang GROUPS translations): each page's
    alternate declarations are extracted with the frontier link rules
    (functions/html_kernels.py hreflang_alternates — multi-match scan),
    a page's cluster key is the lexicographic min of itself and its
    declared variants (identical on every member under the reciprocal
    scheme — no global connectivity pass needed), and ONE string-key
    groupby reports member count and distinct declared languages.
    Streams extract -> key -> groupby; no driver materialization."""
    import ray.data as _rd

    from ..functions.html_kernels import hreflang_alternates

    pages = _rd.read_parquet(
        hreflang_corpus_dir(sf_dir), columns=["url", "html"]
    )

    def key_batch(b: pa.Table) -> pa.Table:
        keys, langs = [], []
        for url, html in zip(b["url"].to_pylist(), b["html"].to_pylist()):
            alts = hreflang_alternates(url, html.decode())
            keys.append(min([url] + [u for _, u in alts]))
            langs.append(sorted({lg for lg, _ in alts}))
        return pa.table(
            {
                "cluster_url": pa.array(keys, pa.string()),
                "langs": pa.array(langs, pa.list_(pa.string())),
            }
        )

    def fold(df):
        import pandas as pd

        langs = sorted({lg for ls in df["langs"] for lg in ls})
        return pd.DataFrame(
            {
                "cluster_url": [df["cluster_url"].iloc[0]],
                "n_pages": [len(df)],
                "langs": [",".join(langs)],
            }
        )

    out = (
        pages.map_batches(key_batch, batch_format="pyarrow")
        .groupby("cluster_url")
        .map_groups(fold, batch_format="pandas")
    )
    return out


SQL_HREFLANG_CLUSTERS = (
    _SQL_PAGE_CTE
    + """,
mem AS (
  SELECT (d.doc_id - d.doc_id % 4) AS g, d.url, d.seg FROM pg d),
agg AS (
  SELECT g, min(url) AS cluster_url, CAST(count(*) AS BIGINT) AS n_pages,
         string_agg(DISTINCT seg, ',' ORDER BY seg) AS langs
  FROM mem GROUP BY g)
SELECT cluster_url, n_pages, langs FROM agg
"""
)


def q_crawl_meta_robots(sf_dir: str):
    """Page-level robots directives under the exact gate
    (obey_meta_robots — <meta name=robots>, the de-facto
    Googlebot/Scrapy semantics): ``nofollow`` pages are fetched but
    contribute NO frontier candidates, so their subtrees are reachable
    only through other paths (BFS depths shift; some pages drop out of
    reach entirely); ``noindex`` pages crawl normally but are flagged
    for export exclusion in the items output. The result joins the
    fetch order with the per-page indexed flag read back from the
    crawl_items parquet — gating the directive parse, the vectorized
    candidate suppression AND the items-side plumbing in one pass.
    Oracle = min-depth walk over edges from non-nofollow parents only,
    indexed = NOT noindex."""
    import tempfile

    import ray as _ray

    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4, max_depth=6, max_rounds=16, obey_meta_robots=True
    )
    out_dir = tempfile.mkdtemp(prefix="louis_metarobots_")
    res = run_crawl(
        meta_robots_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg, out_dir=out_dir
    )
    flags = pa.concat_tables(
        _ray.get(
            _ray.data.read_parquet(
                f"{out_dir}/crawl_items", columns=["url", "meta_robots"]
            ).to_arrow_refs()
        )
    ).combine_chunks()
    indexed = pc.invert(
        pc.match_substring(flags["meta_robots"].fill_null(""), "noindex")
    )
    flag_tbl = pa.table({"url": flags["url"], "indexed": indexed})
    order = res.order.select(["url", "depth"])
    return order.join(flag_tbl, keys="url", join_type="inner").sort_by("url")


SQL_CRAWL_META_ROBOTS = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg WHERE doc_id % 9 <> 4
  UNION ALL SELECT url, c2_url FROM pg WHERE doc_id % 9 <> 4),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6)
SELECT w.url, CAST(min(w.depth) AS INTEGER) AS depth,
       (g.doc_id % 5 <> 2) AS indexed
FROM walk w JOIN pg g ON g.url = w.url
GROUP BY w.url, g.doc_id
"""
)


def q_crawl_redirects(sf_dir: str):
    """Redirect following under the exact gate: doc_id % 9 == 5 pages
    serve a meta-refresh (the HTTP-3xx stand-in a stored corpus can
    express) to their first child, and with follow_redirects=True the
    target enqueues at the SOURCE's depth — a redirect hop costs a
    round but no depth, like Scrapy's redirect middleware re-requesting
    in place. Redirect stubs publish no links, so their second subtree
    is reachable only through other paths. The oracle is a round
    simulation whose edge weights are 0 for redirects and 1 for links,
    with per-round min over same-round discoveries."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4, max_depth=6, max_rounds=64, follow_redirects=True
    )
    res = run_crawl(redirect_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_REDIRECTS = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
sim(round, url, depth, done) AS (
  SELECT 0 AS round, url, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  cur AS (SELECT max(round) AS r FROM prev),
  sel AS (SELECT p.url, p.depth, g.doc_id, g.c1_url, g.c2_url
          FROM prev p JOIN pg g ON g.url = p.url WHERE NOT p.done),
  contrib AS (
    SELECT c1_url AS url,
           CASE WHEN doc_id % 9 = 5 THEN depth ELSE depth + 1 END AS d
    FROM sel
    UNION ALL
    SELECT c2_url, depth + 1 FROM sel WHERE doc_id % 9 <> 5),
  disc AS (SELECT url, min(d) AS ddepth FROM contrib GROUP BY url),
  kids AS (SELECT d.url, d.ddepth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.depth, TRUE AS done FROM prev p
    UNION ALL
    SELECT k.url, k.ddepth, FALSE FROM kids k)
  SELECT cur.r + 1, n.url, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, cur
  WHERE EXISTS (SELECT 1 FROM prev WHERE NOT done) AND cur.r < 64
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_crawl_full_policy(sf_dir: str):
    """The flagship POLICY COMPOSITION under one exact gate: a single
    multi-host crawl where (1) three hosts' robots publish Crawl-delay
    directives that become per-host budget caps (4/2/1 per round),
    (2) a fourth host's robots Disallow quarantines its /fra/ subtree,
    (3) a trap-guard deny pattern quarantines every /de/ URL at
    admission, and (4) meta-refresh redirect stubs hop at source
    depth — all four mechanisms interleave in the same rounds, so the
    schedule exercises capped ranked selection, pending min-depth
    rediscovery, admission filtering and 0-weight hops TOGETHER. The
    oracle is one recursive round simulation carrying all four rules."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=9,
        max_rounds=96,
        obey_robots=True,
        honor_crawl_delay=True,
        robots_txt_by_host={
            "h0.example.ca": "User-agent: *\nCrawl-delay: 15\n",
            "h1.example.ca": "User-agent: *\nCrawl-delay: 30\n",
            "h2.example.ca": "User-agent: *\nCrawl-delay: 60\n",
            "h3.example.ca": "User-agent: *\nDisallow: /fra/\n",
        },
        deny_url_patterns=[r"/de/"],
        follow_redirects=True,
    )
    res = run_crawl(redirect_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    assert res.counts["errored"] > 0, "policy quarantines must fire"
    return res.order


SQL_CRAWL_FULL_POLICY = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
caps(chost, cap) AS (VALUES
  ('h0.example.ca', 4), ('h1.example.ca', 2), ('h2.example.ca', 1)),
sim(round, url, host, depth, done) AS (
  SELECT 0 AS round, url, host, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, host, depth FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.host, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE q.host = p.host
                       AND (q.depth, q.url) <= (p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT r.url, r.host, r.depth
          FROM ranked r LEFT JOIN caps c ON c.chost = r.host
          WHERE r.rn <= coalesce(c.cap, 1000000000)),
  selg AS (SELECT s.url, s.depth, g.doc_id, g.c1_url, g.c2_url
           FROM sel s JOIN pg g ON g.url = s.url),
  contrib AS (
    SELECT c1_url AS url,
           CASE WHEN doc_id % 9 = 5 THEN depth ELSE depth + 1 END AS d
    FROM selg
    UNION ALL
    SELECT c2_url, depth + 1 FROM selg WHERE doc_id % 9 <> 5),
  disc AS (SELECT url, min(d) AS ddepth FROM contrib
           WHERE url NOT LIKE '%/de/%'
             AND NOT (url LIKE 'http://h3.example.ca/%'
                      AND url LIKE '%/fra/%')
           GROUP BY url),
  kids AS (SELECT d.url, d.ddepth FROM disc d
           WHERE d.ddepth <= 9
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url, p.host,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, split_part(split_part(k.url, '//', 2), '/', 1),
           k.ddepth, FALSE
    FROM kids k)
  SELECT r0.r + 1, n.url, n.host, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS r FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.r < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_crawl_multihost_capped(sf_dir: str):
    """The r3 DISTRIBUTED global round cap under the exact gate: a
    multi-host crawl with round_limit=9 makes every round select the 9
    globally smallest (depth, url) pending keys ACROSS the 4 shards —
    exercising the iterative k-th-key threshold selection + shard-local
    truncation/requeue (pipelines/crawl.py _global_threshold) on real
    host spread. Rounds split BFS levels, so later rounds mix depths
    and pending rediscovery depth-updates fire; the oracle simulation
    ranks pending globally and carries the same min-depth update."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=96, round_limit=9)
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    assert max(m["selected"] for m in res.metrics) <= 9
    return res.order


SQL_CRAWL_MULTIHOST_CAPPED = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
sim(round, url, depth, done) AS (
  SELECT 0 AS round, url, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, depth FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE (q.depth, q.url) <= (p.depth, p.url)) AS rn
             FROM pending p),
  sel AS (SELECT url, depth FROM ranked WHERE rn <= 9),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth AS depth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, k.depth, FALSE FROM kids k)
  SELECT r0.round + 1, n.url, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_crawl_multihost_domains(sf_dir: str):
    """allowed_domains at the frontier (M11 / reference's
    allowed_domains spider attribute) finally exercised against real
    host spread: only h0..h4 may be crawled, so the reachable set is
    the seed's component within those five hosts. Candidates to other
    hosts are dropped at link extraction; the oracle walk restricts
    dst's host the same way."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=16,
        allowed_domains=[
            "h0.example.ca", "h1.example.ca", "h2.example.ca",
            "h3.example.ca", "h4.example.ca",
        ],
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order.select(["url", "depth"])


SQL_CRAWL_MULTIHOST_DOMAINS = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1
  FROM walk w JOIN edges e ON e.src = w.url
  JOIN pg pd ON pd.url = e.dst
  WHERE w.depth < 6 AND (pd.doc_id % 7) IN (0, 1, 2, 3, 4))
SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url
"""
)


def q_crawl_priority_short(sf_dir: str):
    """Priority frontier beyond FIFO-BFS (reference O1 generalized):
    'short URLs first' — order key (depth, len(url), url), the classic
    shallow-page-first crawl heuristic — under a global cap of 9 per
    round on the 7-host corpus, so every round must select the nine
    key-smallest pending URLs across the shards with the new key. The
    oracle is the capped round simulation ranking by the same key."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        round_limit=9,
        priority="short_url_first",
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_PRIORITY_SHORT = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
sim(round, url, depth, done) AS (
  SELECT 0 AS round, url, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, depth FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.depth,
                    (SELECT count(*) FROM pending q
                     WHERE (q.depth, length(q.url), q.url)
                           <= (p.depth, length(p.url), p.url)) AS rn
             FROM pending p),
  sel AS (SELECT url, depth FROM ranked WHERE rn <= 9),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth AS depth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, k.depth, FALSE FROM kids k)
  SELECT r0.round + 1, n.url, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_crawl_priority_indegree(sf_dir: str):
    """Importance-ordered crawl (Cho, Garcia-Molina & Page 1998): the
    frontier order key is (depth, -in_degree(url), url) with in-degrees
    computed by a PRIOR Ray pass over the corpus — pages -> extract
    links (the same extract_batch kernel the crawl uses) -> one
    groupby(count). The score map rides CrawlConfig.priority_scores;
    the Frontier splits it by its URL->shard router so each shard holds only its
    own hash-range's slice. Global cap 9/round forces every round to
    pick the nine key-smallest URLs across shards under the new key —
    the distributed k-th-key selection machinery unchanged over
    3-tuple keys. Oracle = the capped round simulation ranking by the
    same (depth, -indeg, url) key."""
    import ray.data as _rd
    from ray.data.aggregate import Count as _Count

    from ..stages.extract import extract_batch
    from .crawl import CrawlConfig, run_crawl

    corpus = multihost_corpus_dir(sf_dir)

    def link_partial(b: pa.Table) -> pa.Table:
        # in-degree counts DISTINCT linking pages (a page linking the
        # same target twice — e.g. the corpus's ?ref=nav duplicate that
        # canonicalizes back to the first child — votes once)
        items = extract_batch(b)
        out: list[str] = []
        for links in items["links"].to_pylist():
            out.extend(dict.fromkeys(links))
        return pa.table({"url": pa.array(out, pa.string())})

    indeg = (
        _rd.read_parquet(corpus, columns=["url", "html"])
        .map_batches(link_partial, batch_format="pyarrow")
        .groupby("url")
        .aggregate(_Count(alias_name="c"))
    )
    # dimension-sized fold at gate scale; at 10^10 the score table
    # stays a Dataset and feeds the per-shard slices shard-wise
    scores = {r["url"]: int(r["c"]) for r in indeg.iter_rows()}
    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        round_limit=9,
        priority="score_desc",
        priority_scores=scores,
    )
    res = run_crawl(corpus, [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_PRIORITY_INDEGREE = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
indeg AS (SELECT dst AS url, count(*) AS c
          FROM (SELECT DISTINCT src, dst FROM edges) GROUP BY dst),
sim(round, url, depth, done) AS (
  SELECT 0 AS round, url, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, depth FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.depth,
                    (SELECT count(*) FROM pending q
                     LEFT JOIN indeg iq ON iq.url = q.url
                     WHERE (q.depth, -coalesce(iq.c, 0), q.url)
                           <= (p.depth, -coalesce(ip.c, 0), p.url)) AS rn
             FROM pending p LEFT JOIN indeg ip ON ip.url = p.url),
  sel AS (SELECT url, depth FROM ranked WHERE rn <= 9),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth AS depth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, k.depth, FALSE FROM kids k)
  SELECT r0.round + 1, n.url, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_crawl_pagerank_priority(sf_dir: str):
    """PageRank-ordered crawl — the full composition gate: a PRIOR Ray
    pass extracts the corpus's link graph (same extract_batch kernel
    the crawl uses) and runs stages/graph.py pagerank over it (exact
    int64, 3 iterations), the scaled ranks feed
    CrawlConfig.priority_scores (split per shard by the URL->shard router), and the
    frontier drains (depth, -rank, url) under the DISTRIBUTED global
    cap 9/round — the k-th-key selection machinery steering by
    1e12-scale score keys. Two flagship subsystems (iterative graph
    compute + the round control plane) under ONE oracle: the unrolled
    pagerank SQL composed into the capped recursive round simulation.

    Ranks run over the INDEXABLE subgraph: only pages passing the
    reference's M8 language rule (non-/fra/ urls) endorse — /fra/
    pages dangle. On the raw heap graph every node has in-degree
    exactly 2, so unfiltered pagerank is uniform and the schedule
    would collapse onto capped BFS; the indexable-endorsement filter
    makes in-degrees (and ranks) vary, so the gate actually
    discriminates rank-steering from BFS."""
    import ray.data as _rd

    from ..stages.extract import extract_batch
    from ..stages.graph import pagerank
    from .crawl import CrawlConfig, run_crawl

    corpus = multihost_corpus_dir(sf_dir)

    def edge_partial(b: pa.Table) -> pa.Table:
        # distinct out-links per ENDORSING page in first-occurrence
        # order (the ?ref=nav nav-dup never double-counts), as
        # (src_id, dst_id); /fra/ sources emit nothing (they dangle)
        items = extract_batch(b)
        src, dst = [], []
        for u, lang, links in zip(
            items["url"].to_pylist(),
            items["lang"].to_pylist(),
            items["links"].to_pylist(),
        ):
            if lang == "fr":
                continue
            s = _doc_id_from_url(u)
            for v in dict.fromkeys(links):
                src.append(s)
                dst.append(_doc_id_from_url(v))
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    edges = _rd.read_parquet(corpus, columns=["url", "html"]).map_batches(
        edge_partial, batch_format="pyarrow"
    )
    nodes = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda b: pa.table({"v": b["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    ranks = pagerank(edges, nodes, iterations=PAGERANK_ITERS)

    # id -> corpus URL (dimension-sized fold at gate scale; at 10^10
    # the rank table stays a Dataset and feeds the shard slices
    # shard-wise, like the indegree variant)
    docs = _docs_table(sf_dir)
    langs = docs["lang"].to_pylist()
    sources = docs["source"].to_pylist()

    scores = {}
    for r in ranks.iter_rows():
        d = int(r["v"])
        scores[_mh_url(d, langs[d], sources[d])] = int(r["r"])
    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        round_limit=9,
        priority="score_desc",
        priority_scores=scores,
    )
    res = run_crawl(corpus, [_mh_seed(sf_dir)], cfg)
    return res.order


def q_anchor_texts(sf_dir: str):
    """Anchor-text aggregation over the link graph (the classic
    describe-the-target web signal; the reference extracts hrefs only,
    goldie.py:23): per (target url, anchor text), how many link
    occurrences carry it. The Ray side PARSES the real page html
    (functions/html_kernels.py:extract_anchors — one DOM pass, frontier
    link rules); the oracle reconstructs the corpus generator's
    deterministic anchor layout (sources/pages.py:98-103: 'next' on c1,
    'more' on c2, 'dup' on the query-stripped c1 duplicate; #top /
    mailto / pdf dropped by the link rules). Bucketed int-key aggregate
    — distinct (url, anchor) rows only ever shuffle."""
    import ray.data as _rd
    from collections import Counter as _Counter

    from ..functions.html_kernels import extract_anchors

    corpus = multihost_corpus_dir(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        c: _Counter = _Counter()
        for url, html in zip(b["url"].to_pylist(), b["html"].to_pylist()):
            for dst, anchor in extract_anchors(url, html.decode()):
                c[(dst, anchor)] += 1
        keys = list(c.keys())
        buckets = [
            int.from_bytes(
                hashlib.blake2b(u.encode(), digest_size=4).digest(), "big"
            )
            % 32
            for u, _ in keys
        ]
        return pa.table(
            {
                "url": pa.array([u for u, _ in keys], pa.string()),
                "anchor": pa.array([a for _, a in keys], pa.string()),
                "n": pa.array([c[k] for k in keys], pa.int64()),
                "bucket": pa.array(buckets, pa.int32()),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        r = (
            g.groupby(["url", "anchor"], sort=False)
            .agg(n=("n", "sum"))
            .reset_index()
        )
        return r[["url", "anchor", "n"]]

    return (
        _rd.read_parquet(corpus, columns=["url", "html"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


SQL_ANCHOR_TEXTS = (
    _SQL_MH_CTE
    + """
SELECT dst AS url, anchor, CAST(count(*) AS BIGINT) AS n FROM (
  SELECT c1_url AS dst, 'next' AS anchor FROM pg
  UNION ALL SELECT c2_url, 'more' FROM pg
  UNION ALL SELECT c1_url, 'dup' FROM pg)
GROUP BY dst, anchor
"""
)


def q_crawl_robots(sf_dir: str):
    """robots.txt-obeying crawl under the exact gate (reference keeps
    ROBOTSTXT_OBEY=False, settings.py:19, but ships the toggle; our
    RobotsCache was pytest-only until now): Disallow: /fra/ — the
    reference's own language rule as a robots rule. Disallowed
    candidates are quarantined at enqueue (never fetched), so their
    subtrees are reachable only through non-French paths; the oracle
    is the recursive walk restricted to seg <> 'fra'."""
    from .crawl import CrawlConfig, run_crawl

    seed = _site_seed(sf_dir)
    assert "/fra/" not in seed, "seed must be allowed for the oracle shape"
    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=16,
        robots_txt_by_host={
            "inspection.canada.ca": "User-agent: *\nDisallow: /fra/\n"
        },
        obey_robots=True,
    )
    res = run_crawl(pages_corpus_dir(sf_dir), [seed], cfg)
    assert res.counts["errored"] > 0, "robots quarantine must fire"
    return res.order.select(["url", "depth"])


SQL_CRAWL_ROBOTS = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1
  FROM walk w JOIN edges e ON e.src = w.url
  JOIN pg pd ON pd.url = e.dst
  WHERE w.depth < 6 AND pd.seg <> 'fra')
SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url
"""
)


def q_crawl_salted(sf_dir: str):
    """Hot-host salting invariance under the exact gate: salting
    spreads one host's URLs over n_salt sub-queues/shards (a pure
    EXECUTION change for an uncapped crawl), so the crawl order and
    seen-set must be IDENTICAL to the unsalted BFS — same oracle SQL
    as crawl_pages_bfs."""
    from .crawl import CrawlConfig, run_crawl

    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(
        n_shards=5,
        max_depth=6,
        max_rounds=16,
        hot_host_salt={"inspection.canada.ca": 3},
    )
    res = run_crawl(pages_corpus_dir(sf_dir), [seed], cfg)
    return res.order.select(["url", "depth"])


def q_crawl_graph_bfs(sf_dir: str):
    """The frontier engine as a pure BFS over a typed-node graph built
    from the relational tables (customer->order->part->supplier->
    nation), seeds = customers 1..5; oracle = WITH RECURSIVE."""
    from .crawl import CrawlConfig, edges_expand, run_frontier

    def col(t, name):
        return pq.read_table(f"{sf_dir}/{t}.parquet", columns=[name])[name].to_pylist()

    srcs: list[str] = []
    dsts: list[str] = []
    o_cust = col("orders", "o_custkey")
    o_key = col("orders", "o_orderkey")
    srcs += [f"graph://customer/{c}" for c in o_cust]
    dsts += [f"graph://order/{o}" for o in o_key]
    l_ord = col("lineitem", "l_orderkey")
    l_part = col("lineitem", "l_partkey")
    l_supp = col("lineitem", "l_suppkey")
    srcs += [f"graph://order/{o}" for o in l_ord]
    dsts += [f"graph://part/{p}" for p in l_part]
    srcs += [f"graph://part/{p}" for p in l_part]
    dsts += [f"graph://supplier/{s}" for s in l_supp]
    s_key = col("supplier", "s_suppkey")
    s_nat = col("supplier", "s_nationkey")
    srcs += [f"graph://supplier/{s}" for s in s_key]
    dsts += [f"graph://nation/{n}" for n in s_nat]
    edges = pa.table({"src": pa.array(srcs), "dst": pa.array(dsts)})
    seeds = [f"graph://customer/{c}" for c in range(1, 6)]
    cfg = CrawlConfig(n_shards=4, max_depth=4, max_rounds=8)
    res = run_frontier(edges_expand(edges), seeds, cfg)
    return res.order.select(["url", "depth"])


SQL_CRAWL_GRAPH_BFS = """
WITH RECURSIVE edges AS (
  SELECT 'graph://customer/' || o_custkey AS src, 'graph://order/' || o_orderkey AS dst FROM orders
  UNION ALL SELECT 'graph://order/' || l_orderkey, 'graph://part/' || l_partkey FROM lineitem
  UNION ALL SELECT 'graph://part/' || l_partkey, 'graph://supplier/' || l_suppkey FROM lineitem
  UNION ALL SELECT 'graph://supplier/' || s_suppkey, 'graph://nation/' || s_nationkey FROM supplier),
dedges AS (SELECT DISTINCT src, dst FROM edges),
walk(url, depth) AS (
  SELECT 'graph://customer/' || c_custkey, 0 FROM customer WHERE c_custkey BETWEEN 1 AND 5
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN dedges e ON e.src = w.url WHERE w.depth < 4)
SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url
"""


# --------------------------------------------------------------------------
# text analysis (oracle-checked)
# --------------------------------------------------------------------------

def q_token_counts(sf_dir: str):
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.token_count_batch, batch_format="pyarrow"
    )


SQL_TOKEN_COUNTS = rf"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(len(regexp_extract_all(text, '{ts.TOKEN_PATTERN}')) AS BIGINT) AS token_count,
       CAST(len(regexp_extract_all(text, '{ts.WORD_PATTERN}')) AS BIGINT) AS word_count
FROM documents
"""


def q_quality_scores(sf_dir: str):
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.quality_batch, batch_format="pyarrow"
    )


SQL_QUALITY_SCORES = r"""
WITH f AS (
  SELECT doc_id, length(text) AS n_chars,
         len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_words,
         len(regexp_extract_all(text, '[^A-Za-z0-9\s]')) AS n_punct,
         len(regexp_extract_all(lower(text), '\b(the|a|and|of|to|in|is|it|that|for)\b')) AS n_stop
  FROM documents)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_chars AS BIGINT) AS n_chars, CAST(n_words AS BIGINT) AS n_words,
       CAST(n_punct AS BIGINT) AS n_punct, CAST(n_stop AS BIGINT) AS n_stop,
       CASE WHEN n_chars > 0 THEN CAST(n_punct AS DOUBLE) / n_chars ELSE 0.0 END AS punct_ratio,
       CAST(n_stop AS DOUBLE) / greatest(n_words, 1) AS stop_ratio,
       (n_words >= 10 AND CAST(n_stop AS DOUBLE) / greatest(n_words, 1) >= 0.01) AS keep
FROM f
"""


def q_lang_id(sf_dir: str):
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.lang_id_batch, batch_format="pyarrow"
    )


SQL_LANG_ID = r"""
WITH s AS (
  SELECT doc_id,
         len(regexp_extract_all(lower(text), '\b(the|and|of|to|in|is)\b')) AS score_en,
         len(regexp_extract_all(lower(text), '\b(le|la|les|et|une|est|dans)\b')) AS score_fr,
         len(regexp_extract_all(lower(text), '\b(el|los|las|y|una|es|en)\b')) AS score_es,
         len(regexp_extract_all(lower(text), '\b(der|die|das|und|ist|ein)\b')) AS score_de
  FROM documents)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(score_en AS BIGINT) AS score_en, CAST(score_fr AS BIGINT) AS score_fr,
       CAST(score_es AS BIGINT) AS score_es, CAST(score_de AS BIGINT) AS score_de,
       CASE WHEN score_en = 0 AND score_fr = 0 AND score_es = 0 AND score_de = 0 THEN 'und'
            WHEN score_en >= score_fr AND score_en >= score_es AND score_en >= score_de THEN 'en'
            WHEN score_fr >= score_es AND score_fr >= score_de THEN 'fr'
            WHEN score_es >= score_de THEN 'es'
            ELSE 'de' END AS predicted_lang
FROM s
"""


def q_fingerprints(sf_dir: str):
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.fingerprint_batch, batch_format="pyarrow"
    )


SQL_FINGERPRINTS = r"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       md5(trim(regexp_replace(text, '\s+', ' ', 'g'))) AS fingerprint
FROM documents
"""


# --------------------------------------------------------------------------
# dedup family
# --------------------------------------------------------------------------

def mirror_corpus_dir(sf_dir: str) -> str:
    """Mirrored-host fixture (url, text): every document at its base
    host h{doc_id%%7}; FULL mirrors m1/m4 of h1/h4; a PARTIAL mirror m2
    carrying h2's even doc_ids (a contained mirror must still flag); an
    aggregator x.example.ca carrying every 31st document across hosts
    — small coincidental overlap with each base host, the negative
    case the threshold must NOT flag."""

    def build(tmp: str) -> None:
        docs = _docs_table(sf_dir)
        urls: list[str] = []
        txts: list[str] = []
        for d, t, lang, src in zip(
            docs["doc_id"].to_pylist(),
            docs["text"].to_pylist(),
            docs["lang"].to_pylist(),
            docs["source"].to_pylist(),
        ):
            p = f"/{lang_segment(lang)}/{src}/doc{d}"
            urls.append(f"http://h{d % 7}.example.ca{p}")
            txts.append(t)
            if d % 7 in (1, 4):
                urls.append(f"http://m{d % 7}.example.ca{p}")
                txts.append(t)
            if d % 7 == 2 and d % 2 == 0:
                urls.append(f"http://m2.example.ca{p}")
                txts.append(t)
            if d % 31 == 0:
                urls.append(f"http://x.example.ca{p}")
                txts.append(t)
        pq.write_table(
            pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "text": pa.array(txts, pa.string()),
                }
            ),
            os.path.join(tmp, "part-00000.parquet"),
        )

    return build_once(_corpus_path(f"{sf_dir}|mirror"), build)


def q_mirror_hosts(sf_dir: str):
    """Mirror-host detection (Bharat/Broder 1999-style): host pairs
    ranked by shared distinct-content fingerprints, flagged is_mirror
    when the overlap covers >= half of the smaller host's distinct
    content (exact integer rule 2*shared >= min(n_a, n_b)). The
    mirrored fixture plants full mirrors (m1/m4), a contained partial
    mirror (m2) and a low-overlap aggregator host (x) that must stay
    unflagged."""
    ds = ray.data.read_parquet(
        mirror_corpus_dir(sf_dir), columns=["url", "text"]
    )
    return dd.mirror_host_pairs(ds)


SQL_MIRROR_HOSTS = """
WITH m AS (
  SELECT 'h' || (doc_id % 7) || '.example.ca' AS host, text FROM documents
  UNION ALL
  SELECT 'm' || (doc_id % 7) || '.example.ca', text FROM documents
  WHERE doc_id % 7 IN (1, 4)
  UNION ALL
  SELECT 'm2.example.ca', text FROM documents
  WHERE doc_id % 7 = 2 AND doc_id % 2 = 0
  UNION ALL
  SELECT 'x.example.ca', text FROM documents WHERE doc_id % 31 = 0),
hf AS (SELECT DISTINCT host, md5(text) AS fp FROM m),
tot AS (SELECT host, count(*) AS n FROM hf GROUP BY host),
pc AS (SELECT a.host AS host_a, b.host AS host_b, count(*) AS shared
       FROM hf a JOIN hf b ON a.fp = b.fp AND a.host < b.host
       GROUP BY a.host, b.host)
SELECT host_a, host_b, CAST(shared AS BIGINT) AS shared,
       (2 * shared >= least(ta.n, tb.n)) AS is_mirror
FROM pc JOIN tot ta ON ta.host = host_a JOIN tot tb ON tb.host = host_b
"""


def q_exact_dedup(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dd.exact_dedup_groups(docs)
    return out.map_batches(
        lambda b: pa.table(
            {
                "text_hash": b["text_hash"],
                "keep_id": b["keep_id"].cast(pa.int64()),
                "n": b["n"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_EXACT_DEDUP = """
SELECT md5(text) AS text_hash, CAST(min(doc_id) AS BIGINT) AS keep_id,
       count(*) AS n
FROM documents GROUP BY md5(text)
"""


def q_ngram_jaccard(sf_dir: str):
    """Exact word-3-gram Jaccard >= 0.5 pairs (integer threshold)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dd.ngram_jaccard_pairs(docs, k=3, tau_num=5, tau_den=10)
    return out.map_batches(
        lambda b: pa.table(
            {
                "doc_a": b["doc_a"].cast(pa.int64()),
                "doc_b": b["doc_b"].cast(pa.int64()),
                "inter": b["inter"].cast(pa.int64()),
                "uni": b["uni"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_NGRAM_JACCARD = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w FROM documents),
sh AS (
  SELECT DISTINCT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS shingle
  FROM toks, UNNEST(generate_series(1, len(w) - 2)) AS t(i)
  WHERE len(w) >= 3),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id)
SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b,
       CAST(inter AS BIGINT) AS inter,
       CAST(sa.n + sb.n - inter AS BIGINT) AS uni
FROM pairs JOIN sizes sa ON sa.doc_id = doc_a JOIN sizes sb ON sb.doc_id = doc_b
WHERE inter * 10 >= (sa.n + sb.n - inter) * 5
"""


def q_dedup_clusters(sf_dir: str):
    """Duplicate-cluster assignment: connected components (min-label
    propagation) over the exact n-gram-Jaccard >= 0.5 near-dup pairs;
    cluster_id = min doc_id of the component."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = dd.ngram_jaccard_pairs(docs, k=3, tau_num=5, tau_den=10)
    ids = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    return dd.connected_components(pairs, ids)


SQL_DEDUP_CLUSTERS = r"""
WITH RECURSIVE toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w FROM documents),
sh AS (
  SELECT DISTINCT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS shingle
  FROM toks, UNNEST(generate_series(1, len(w) - 2)) AS t(i)
  WHERE len(w) >= 3),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
cand AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id),
near AS (
  SELECT doc_a, doc_b FROM cand
  JOIN sizes sa ON sa.doc_id = doc_a JOIN sizes sb ON sb.doc_id = doc_b
  WHERE inter * 10 >= (sa.n + sb.n - inter) * 5),
edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM near
  UNION ALL SELECT doc_b, doc_a FROM near),
reach(node, label) AS (
  SELECT CAST(doc_id AS BIGINT), CAST(doc_id AS BIGINT) FROM documents
  UNION
  SELECT CAST(e.dst AS BIGINT), r.label FROM reach r JOIN edges e ON e.src = r.node)
SELECT node AS doc_id, min(label) AS cluster_id FROM reach GROUP BY node
"""


def _emb_matrix(sf_dir: str):
    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
    return m, ids


def q_cosine_near_pairs(sf_dir: str):
    """Embedding-cosine near-dup pairs (ids only; cosine values are
    summation-order-dependent floats, excluded from the hash)."""
    m, ids = _emb_matrix(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = dd.cosine_near_pairs(ds, m, ids, tau=0.42, id_col="vec_id")
    return out.select_columns(["doc_a", "doc_b"])


SQL_COSINE_NEAR_PAIRS = """
SELECT CAST(a.vec_id AS BIGINT) AS doc_a, CAST(b.vec_id AS BIGINT) AS doc_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.42
"""


def q_embedding_topk(sf_dir: str):
    """Brute-force cosine top-10 for the first 5 vectors as queries
    (ranks and ids only)."""
    m, ids = _emb_matrix(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = brute_force_topk(ds, m[:5], [0, 1, 2, 3, 4], k=10)
    return out.select(["query_id", "rank", "vec_id"])


SQL_EMBEDDING_TOPK = """
WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id < 5)
SELECT q.query_id,
       CAST(row_number() OVER (
         PARTITION BY q.query_id
         ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id
       ) AS BIGINT) AS rank,
       CAST(e.vec_id AS BIGINT) AS vec_id
FROM q CROSS JOIN embeddings e
QUALIFY rank <= 10
"""


def q_js_need(sf_dir: str):
    """M12 JS-need routing heuristic (base_playwright.py:225-272)."""
    from ..stages.jsneed import js_need_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        js_need_batch, batch_format="pyarrow"
    )


SQL_JS_NEED = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       length(text) < 500 AS minimal_content,
       (lower(text) LIKE '%loading...%' OR lower(text) LIKE '%please wait%'
        OR lower(text) LIKE '%javascript is required%'
        OR lower(text) LIKE '%enable javascript%'
        OR lower(text) LIKE '%<noscript>%') AS loading_pattern,
       (lower(text) LIKE '%data-reactroot%' OR lower(text) LIKE '%ng-app%'
        OR lower(text) LIKE '%v-app%') AS js_framework,
       (length(text) < 500
        OR lower(text) LIKE '%loading...%' OR lower(text) LIKE '%please wait%'
        OR lower(text) LIKE '%javascript is required%'
        OR lower(text) LIKE '%enable javascript%'
        OR lower(text) LIKE '%<noscript>%'
        OR lower(text) LIKE '%data-reactroot%' OR lower(text) LIKE '%ng-app%'
        OR lower(text) LIKE '%v-app%') AS needs_js
FROM documents
"""


def q_content_predicates(sf_dir: str):
    """A4 corpus content predicates (scripts/count_rdims_in_texts.py,
    count_pdf_links_in_texts.py shape): per-doc substring flags."""
    import functools

    from ..stages.jsneed import content_predicates_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        functools.partial(content_predicates_batch, needles=("query", "stream")),
        batch_format="pyarrow",
    )


SQL_CONTENT_PREDICATES = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       lower(text) LIKE '%query%' AS has_query,
       lower(text) LIKE '%stream%' AS has_stream
FROM documents
"""


def q_asof_last_order(sf_dir: str):
    """As-of join (custom operator the reference lacks, task brief):
    for each event, the latest order of the same customer at or before
    the event time. Orders deduped to one per (custkey, date) keeping
    max orderkey so ties are deterministic in both engines."""
    from ..stages.asof import asof_join_broadcast

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate", "o_orderkey"]
    ).to_pandas()
    orders = orders.rename(columns={"o_custkey": "user_id"})
    # explicit unit: event ts is timestamp[us]; align the right side
    orders["rts"] = orders["o_orderdate"].astype("datetime64[us]").astype("int64")
    out = asof_join_broadcast(
        ev, orders, "user_id", "ts", "rts", "o_orderkey", "last_orderkey"
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "event_id": b["event_id"].cast(pa.int64()),
                "user_id": b["user_id"].cast(pa.int64()),
                "last_orderkey": b["last_orderkey"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_ASOF_LAST_ORDER = """
WITH o AS (
  SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
  FROM orders GROUP BY o_custkey, o_orderdate)
SELECT CAST(e.event_id AS BIGINT) AS event_id,
       CAST(e.user_id AS BIGINT) AS user_id,
       CAST(o.o_orderkey AS BIGINT) AS last_orderkey
FROM events e ASOF LEFT JOIN o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


def q_asof_last_order_big(sf_dir: str):
    """The large-large as-of path: same semantics as asof_last_order but
    neither side is broadcast — both are bucketed by hash(user_id) in one
    shuffle and pd.merge_asof runs inside each bucket group (the scale
    shape for two corpus-sized sides; task-brief custom operator)."""
    from ..stages.asof import asof_join_partitioned

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey"]
    ).map_batches(
        lambda b: pa.table(
            {
                "user_id": b["o_custkey"].cast(pa.int64()),
                "rts": b["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64()),
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    out = asof_join_partitioned(
        ev, orders, "user_id", "ts", "rts", "o_orderkey", "last_orderkey"
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "event_id": b["event_id"].cast(pa.int64()),
                "user_id": b["user_id"].cast(pa.int64()),
                "last_orderkey": b["last_orderkey"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_approx_price_quantiles(sf_dir: str):
    """Mergeable quantile sketch (deterministic MRL/KLL compactors)
    over l_extendedprice — the scale path beside the exact
    histogram_quantiles for continuous high-cardinality columns, where
    the exact (key, value) histogram would ship every distinct value
    through the shuffle while the sketch folds k·log(n/k)-value blobs.
    Approximate by nature -> rows-only; the error bound vs the exact
    quantiles is pinned by pytest (test_asof_sketches.py)."""
    from ..stages.sketches import approx_quantiles

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])
    qs = [round(0.1 * i, 1) for i in range(1, 10)]
    t = approx_quantiles(li, "l_extendedprice", qs, k=200)
    # in-pipeline rank check (VERDICT r3 #5): one vectorized pass
    # counts rank(v) = #{x < v} per reported value; the distance to the
    # target rank ceil(q*n) must sit inside the documented
    # O(n*log2(n/k)/k) envelope — check_ok carries the verdict to the
    # driver's rows gate.
    import math as _math

    vals = np.asarray(t["value"].to_pylist(), dtype=np.float64)

    def rank_counts(b: pa.Table) -> pa.Table:
        x = b["l_extendedprice"].to_numpy(zero_copy_only=False).astype(np.float64)
        counts = np.array([(x < v).sum() for v in vals], dtype=np.int64)
        return pa.table(
            {
                "qi": pa.array(range(len(vals)), pa.int64()),
                "lt": pa.array(counts, pa.int64()),
            }
        )

    lt = (
        li.map_batches(rank_counts, batch_format="pyarrow")
        .groupby("qi")
        .aggregate(Sum("lt", alias_name="lt"))
        .to_pandas()
        .sort_values("qi")["lt"]
        .to_numpy()
    )
    n = int(t["n"][0].as_py())
    bound = max(1.0, n * _math.log2(max(2.0, n / 200)) / 200)
    ok = [
        abs(int(r) - _math.ceil(q * n)) <= bound
        for r, q in zip(lt, t["q"].to_pylist())
    ]
    return t.append_column(
        "rank_err",
        pa.array(
            [abs(int(r) - _math.ceil(q * n)) for r, q in zip(lt, t["q"].to_pylist())],
            pa.int64(),
        ),
    ).append_column("check_ok", pa.array(ok, pa.bool_()))


def q_approx_distinct_users(sf_dir: str):
    """HLL sketch approx COUNT(DISTINCT user_id) next to the exact
    count (mergeable-sketch pattern; approx by nature -> rows-only).
    ``check_ok`` is the in-pipeline pass/fail the rows gate can read
    (VERDICT r3 #5): relative error within 3 sigma of the HLL bound
    (1.04/sqrt(2^p))."""
    from ..stages.sketches import approx_distinct

    ev = _read(sf_dir, "events", ["user_id"])
    res = approx_distinct(ev, "user_id", p=12)
    exact = _read(sf_dir, "events", ["user_id"]).unique("user_id")
    n_exact = len(exact)
    rel_err = abs(res["estimate"] - n_exact) / max(1, n_exact)
    bound = 3 * 1.04 / (2 ** res["p"]) ** 0.5
    return pa.table(
        {
            "approx_distinct": pa.array([int(round(res["estimate"]))], pa.int64()),
            "exact_distinct": pa.array([n_exact], pa.int64()),
            "hll_p": pa.array([res["p"]], pa.int64()),
            "rel_err": pa.array([rel_err], pa.float64()),
            "check_ok": pa.array([rel_err <= bound], pa.bool_()),
        }
    )


_HOUR_US = 3_600_000_000


def q_tumbling_window(sf_dir: str):
    """Streaming-shaped tumbling-window aggregate (1h windows) over the
    events log — vectorized bucketing + pre-bucketed groupby."""
    from ..stages.windows import tumbling_window

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return tumbling_window(ev, _HOUR_US)


SQL_TUMBLING_WINDOW = f"""
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(floor(epoch_us(ts) / {_HOUR_US}.0) AS BIGINT) AS window_id,
       count(*) AS n_events,
       CAST(round(sum(value) * 100) AS BIGINT) AS sum_value_c
FROM events GROUP BY 1, 2
"""


def q_session_windows(sf_dir: str):
    """Sessionization (gap > 1h splits) — per-key map_groups
    gaps-and-islands over event time."""
    from ..stages.windows import session_windows

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return session_windows(ev, _HOUR_US)


SQL_SESSION_WINDOWS = f"""
WITH o AS (
  SELECT user_id, event_id, ts,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER
                (PARTITION BY user_id ORDER BY ts, event_id) > {_HOUR_US}
              THEN 1 ELSE 0 END AS new_s
  FROM events),
s AS (
  SELECT user_id, ts,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS session_id
  FROM o)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(session_id AS BIGINT) AS session_id,
       count(*) AS n_events, min(ts) AS start_ts, max(ts) AS end_ts
FROM s GROUP BY user_id, session_id
"""


# --------------------------------------------------------------------------
# rows-only queries (no SQL equivalent; driver records weaker check)
# --------------------------------------------------------------------------

def q_minhash_pairs(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dd.minhash_lsh_pairs(docs, verify_tau=0.5, verify_docs=docs)


def q_simhash_pairs(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dd.simhash_near_pairs(docs, max_hamming=6)


def q_rolling_fingerprints(sf_dir: str):
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.rolling_fingerprint_batch, batch_format="pyarrow"
    )


# -- md5/codepoint companion fingerprints: the EXACT-oracle twins of the
# rows-only hash operators (VERDICT r3 #5). Same pipeline shapes, a
# hash family DuckDB evaluates natively (md5_number_lower / unicode).

def _mod8_filter(b: pa.Table) -> pa.Table:
    return b.filter(
        pc.equal(pc.bit_wise_and(b["doc_id"].cast(pa.int64()), 7), 0)
    )


def _plant_copies(b: pa.Table) -> pa.Table:
    """Append one identical copy per doc at doc_id + 1_000_000 — the
    deterministic dup seeding the LSH/near-dup oracles rely on (random
    testdata alone may produce zero candidate pairs)."""
    ids = b["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate([ids, ids + 1_000_000]), pa.int64()),
            "text": pa.chunked_array([b["text"], b["text"]]),
        }
    )

def q_rolling_fp_cp(sf_dir: str):
    """Codepoint rolling fingerprint per document (Horner base-131 mod
    2^31-1 over the first 256 codepoints) — exact twin of
    rolling_fingerprints."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.rolling_fp_cp_batch, batch_format="pyarrow"
    )


SQL_ROLLING_FP_CP = """
SELECT doc_id,
  CASE WHEN length(coalesce(text, '')) = 0 THEN 0
  ELSE CAST(list_reduce(
     list_prepend(CAST(0 AS BIGINT),
       list_transform(string_split(substr(coalesce(text, ''), 1, 256), ''),
                      c -> CAST(unicode(c) AS BIGINT))),
     (h, b) -> (h * 131 + b) % 2147483647
  ) AS BIGINT) END AS rolling_fp_cp
FROM documents
"""


def q_minhash_md5_sigs(sf_dir: str):
    """MinHash signatures (8 hashes over first-32-word 3-shingles) with
    the md5 family, docs sampled doc_id % 8 = 0 — the signature stage
    of the LSH pipeline under an exact SQL oracle."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _mod8_filter, batch_format="pyarrow"
    )
    return docs.map_batches(dd.minhash_md5_sig_batch, batch_format="pyarrow")


_SQL_MINHASH_MD5_SIGS_CTE = """
WITH d AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+')[1:32] AS ws
  FROM {src}
),
sh AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS s
  FROM d, UNNEST(generate_series(1, greatest(len(ws) - 2, 0))) AS t(i)
),
h AS (
  SELECT doc_id, hi,
         CAST(min(md5_number_lower(CAST(hi AS VARCHAR) || ':' || s)
                  % 2147483648) AS BIGINT) AS sig
  FROM sh, UNNEST(generate_series(0, 7)) AS g(hi)
  GROUP BY doc_id, hi
)
"""

SQL_MINHASH_MD5_SIGS = (
    _SQL_MINHASH_MD5_SIGS_CTE.format(
        src="(SELECT doc_id, text FROM documents WHERE doc_id % 8 = 0)"
    )
    + "SELECT doc_id, CAST(hi AS BIGINT) AS h_idx, sig FROM h"
)


def q_minhash_md5_pairs(sf_dir: str):
    """LSH candidate pairs (4 bands x 2 rows, md5 family) over sampled
    docs plus one planted identical copy per doc (doc_id + 1_000_000) —
    exact-oracle twin of minhash_lsh_pairs' candidate generation:
    band explode -> bucketed self-pairs -> pair dedup. The planted
    copies guarantee a non-trivial pair set on random testdata."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _mod8_filter, batch_format="pyarrow"
    )
    aug = docs.map_batches(_plant_copies, batch_format="pyarrow")
    pairs = dd.minhash_md5_pairs(aug)
    return pairs.select_columns(["doc_a", "doc_b"])


SQL_MINHASH_MD5_PAIRS = (
    _SQL_MINHASH_MD5_SIGS_CTE.format(
        src="""(
  SELECT doc_id, text FROM documents WHERE doc_id % 8 = 0
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents WHERE doc_id % 8 = 0
)"""
    )
    + """,
bands AS (
  SELECT doc_id, hi // 2 AS band,
         min(CASE WHEN hi % 2 = 0 THEN sig END) AS k1,
         min(CASE WHEN hi % 2 = 1 THEN sig END) AS k2
  FROM h GROUP BY doc_id, hi // 2
)
SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
FROM bands x JOIN bands y
  ON x.band = y.band AND x.k1 = y.k1 AND x.k2 = y.k2
 AND x.doc_id < y.doc_id
"""
)


def q_lsh_components(sf_dir: str):
    """Near-dup CLUSTER IDs from LSH candidates: the md5-family band
    pairs (same planted-copy corpus as minhash_md5_pairs) fed into the
    distributed min-label-propagation connected components — the
    MinHash->LSH->cluster composition a 100 TB dedup actually runs
    (each cluster keeps one survivor), here end-to-end under ONE
    exact oracle (recursive min-reachable CTE over the same edges).
    Docs too short to sign stay singleton clusters."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _mod8_filter, batch_format="pyarrow"
    )
    aug = docs.map_batches(_plant_copies, batch_format="pyarrow")
    pairs = dd.minhash_md5_pairs(aug)
    ids = aug.map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    return dd.connected_components(pairs, ids)


SQL_LSH_COMPONENTS = (
    _SQL_MINHASH_MD5_SIGS_CTE.format(
        src="""(
  SELECT doc_id, text FROM documents WHERE doc_id % 8 = 0
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents WHERE doc_id % 8 = 0
)"""
    ).replace("WITH d AS", "WITH RECURSIVE d AS", 1)
    + """,
bands AS (
  SELECT doc_id, hi // 2 AS band,
         min(CASE WHEN hi % 2 = 0 THEN sig END) AS k1,
         min(CASE WHEN hi % 2 = 1 THEN sig END) AS k2
  FROM h GROUP BY doc_id, hi // 2
),
prs AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bands x JOIN bands y
    ON x.band = y.band AND x.k1 = y.k1 AND x.k2 = y.k2
   AND x.doc_id < y.doc_id
),
nodes AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id FROM documents WHERE doc_id % 8 = 0
  UNION ALL
  SELECT CAST(doc_id + 1000000 AS BIGINT) FROM documents WHERE doc_id % 8 = 0
),
edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM prs
  UNION ALL SELECT doc_b, doc_a FROM prs
),
reach(node, label) AS (
  SELECT doc_id, doc_id FROM nodes
  UNION
  SELECT CAST(e.dst AS BIGINT), r.label
  FROM reach r JOIN edges e ON e.src = r.node)
SELECT node AS doc_id, min(label) AS cluster_id FROM reach GROUP BY node
"""
)


def q_simhash_md5(sf_dir: str):
    """16-bit simhash fingerprints (md5 bit votes over the first 16
    word tokens) — exact-oracle twin of the 64-bit blake2b simhash."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        dd.simhash_md5_batch, batch_format="pyarrow"
    )


SQL_SIMHASH_MD5 = """
WITH d AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+')[1:16] AS ws
  FROM documents
),
tok AS (SELECT doc_id, unnest(ws) AS w FROM d),
b AS (
  SELECT doc_id, j,
         sum(CASE WHEN (md5_number_lower(w) >> j) & 1 = 1
                  THEN 1 ELSE -1 END) AS s
  FROM tok, UNNEST(generate_series(0, 15)) AS g(j)
  GROUP BY doc_id, j
)
SELECT doc_id,
       CAST(sum(CASE WHEN s >= 0 THEN 1 << j ELSE 0 END) AS BIGINT)
         AS simhash16
FROM b GROUP BY doc_id
"""


def _attach_recall_check(
    approx: pa.Table, sf_dir: str, queries_m, query_ids, k: int, bound: float
) -> pa.Table:
    """Per-query recall@k vs an in-pipeline EXACT brute-force pass over
    the same corpus/queries, appended as (recall, check_ok) columns —
    the driver-visible pass/fail for the approximate ANN paths
    (VERDICT r3 #5). At 100 TB a user samples queries for this check;
    at gate scale it runs on all of them."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    exact = brute_force_topk(ds, queries_m, query_ids, k=k)
    truth: dict[int, set] = {}
    for qid, vid in zip(
        exact["query_id"].to_pylist(), exact["vec_id"].to_pylist()
    ):
        truth.setdefault(qid, set()).add(vid)
    got: dict[int, set] = {}
    for qid, vid in zip(
        approx["query_id"].to_pylist(), approx["vec_id"].to_pylist()
    ):
        got.setdefault(qid, set()).add(vid)
    recall = {
        qid: len(got.get(qid, set()) & t) / max(1, len(t))
        for qid, t in truth.items()
    }
    rec = [recall.get(qid, 0.0) for qid in approx["query_id"].to_pylist()]
    return approx.append_column(
        "recall", pa.array(rec, pa.float64())
    ).append_column(
        "check_ok", pa.array([r >= bound for r in rec], pa.bool_())
    )


def q_lsh_topk(sf_dir: str):
    """Hyperplane-LSH ANN: probing covers ~(n_planes+1)/2^n_planes of
    the corpus, so recall@10 vs exact is LOW BY DESIGN on random
    embeddings — the recall column reports it; check_ok certifies the
    guarantee LSH actually makes here: each query (a corpus vector)
    recovers ITSELF at rank 1 with cosine ~1 (the pytest's bound)."""
    m, ids = _emb_matrix(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = lsh_topk(ds, m[:5], [0, 1, 2, 3, 4], dim=m.shape[1], k=10, n_planes=8)
    out = _attach_recall_check(out, sf_dir, m[:5], [0, 1, 2, 3, 4], 10, 0.0)
    # self-recovery certificate: rank-1 hit per query has cosine ~1
    top1 = {
        q: c
        for q, r, c in zip(
            out["query_id"].to_pylist(),
            out["rank"].to_pylist(),
            out["cosine"].to_pylist(),
        )
        if r == 1
    }
    ok = [top1.get(q, 0.0) >= 0.999 for q in out["query_id"].to_pylist()]
    return out.set_column(
        out.schema.get_field_index("check_ok"),
        "check_ok",
        pa.array(ok, pa.bool_()),
    )


def q_cosine_near_lsh(sf_dir: str):
    """Embedding near-dup SCALE path: hyperplane-band LSH candidates +
    exact-cosine verify (no corpus matrix broadcast). The random
    testdata has no high-similarity pairs, so the query plants one
    deterministic near-duplicate per vector (seeded unit noise,
    cos ≈ 0.99, copy id = vec_id + 1_000_000) and must recover the
    planted pairs. Approximate recall by design — rows-only."""
    import pyarrow.parquet as _pq

    from ..stages.dedup import cosine_near_pairs_lsh

    first = _pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    ).slice(0, 1)
    dim = len(first["embedding"][0].as_py())

    def plant(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["vec_id"].to_pylist(), dtype=np.int64)
        vecs = np.array(b["embedding"].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        pert = np.empty_like(unit)
        for i, vid in enumerate(ids):  # per-row seeded noise: deterministic
            n = np.random.RandomState(int(vid) + 1).normal(size=dim)
            n /= np.linalg.norm(n)
            pert[i] = unit[i] + 0.15 * n
        return pa.table(
            {
                "vec_id": pa.array(
                    np.concatenate([ids, ids + 1_000_000]), pa.int64()
                ),
                "embedding": pa.array(
                    np.concatenate([unit, pert]).tolist(),
                    pa.list_(pa.float64()),
                ),
            }
        )

    aug = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        plant, batch_format="pyarrow"
    )
    out = cosine_near_pairs_lsh(aug, dim=dim, tau=0.9)
    pairs = out.select_columns(["doc_a", "doc_b"]).materialize()
    # in-pipeline planted-pair recall (VERDICT r3 #5): every vec_id has
    # exactly one planted near-dup (vec_id + 1_000_000); the fraction
    # recovered is the driver-visible pass/fail (pytest pins >= 0.9)
    n_planted = _read(sf_dir, "embeddings", ["vec_id"]).count()

    def count_planted(b: pa.Table) -> pa.Table:
        hit = pc.equal(
            pc.subtract(b["doc_b"].cast(pa.int64()), b["doc_a"].cast(pa.int64())),
            pa.scalar(1_000_000, pa.int64()),
        )
        return pa.table(
            {"n": pa.array([int(pc.sum(hit).as_py() or 0)], pa.int64())}
        )

    found = sum(
        r["n"]
        for r in pairs.map_batches(count_planted, batch_format="pyarrow")
        .take_all()
    )
    recall = found / max(1, n_planted)

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column(
            "planted_recall", pa.array([recall] * b.num_rows, pa.float64())
        ).append_column(
            "check_ok", pa.array([recall >= 0.9] * b.num_rows, pa.bool_())
        )

    return pairs.map_batches(tag, batch_format="pyarrow")


def q_ivf_topk(sf_dir: str):
    """IVF-coarse-quantized ANN top-10 (the other scale path next to
    LSH: sampled k-means lists, nprobe probing; recall pytest vs the
    exact baseline — approximate by design, rows-only)."""
    from ..stages.ann import ivf_topk

    m, ids = _emb_matrix(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ivf_topk(ds, m[:5], [0, 1, 2, 3, 4], k=10, n_lists=16, nprobe=6)
    return _attach_recall_check(out, sf_dir, m[:5], [0, 1, 2, 3, 4], 10, 0.6)


def q_pq_topk(sf_dir: str):
    """Product-quantization ANN top-10 (Jégou et al. 2011: per-subspace
    codebooks, uint8 codes, asymmetric-distance scoring — the
    64x-compressed scale path next to LSH buckets and IVF lists;
    approximate by design, rows-only). check_ok carries the
    in-pipeline recall@10 vs the exact pass."""
    from ..stages.ann import pq_topk

    m, ids = _emb_matrix(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = pq_topk(ds, m[:5], [0, 1, 2, 3, 4], k=10, m_sub=16, n_codes=256)
    return _attach_recall_check(out, sf_dir, m[:5], [0, 1, 2, 3, 4], 10, 0.7)


def q_ivfpq_topk(sf_dir: str):
    """IVF-PQ ANN top-10 (FAISS's standard index composition: coarse
    lists prune the corpus, PQ codes score the survivors — the 10^10-
    vector serving shape; approximate by design, rows-only). check_ok
    carries the in-pipeline recall@10 vs the exact pass."""
    from ..stages.ann import ivfpq_topk

    m, ids = _emb_matrix(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ivfpq_topk(
        ds, m[:5], [0, 1, 2, 3, 4], k=10, n_lists=16, nprobe=6,
        m_sub=16, n_codes=256,
    )
    return _attach_recall_check(out, sf_dir, m[:5], [0, 1, 2, 3, 4], 10, 0.5)


def q_chunk_documents(sf_dir: str):
    """hawn chunker over the synthetic pages corpus (token ids from the
    stand-in encoder — not SQL-expressible). Task-pool variant of the
    chunker: identical kernel and per-process memo cache as the
    ChunkerActor stage (kept as the documented heavyweight-tokenizer
    shape), but plain tasks skip the actor-pool spin-up that was
    measured to dominate this stage's wall (UDF 18 CPU-s at only ~5
    effective cores with a fresh 16-actor pool per run)."""
    from ..stages.chunk import chunk_batch

    items = _extracted_items(sf_dir)
    # batch_size 32 (was 128): chunking cost varies ~10x per page, and
    # coarse batches left a 2 s straggler task dominating the stage wall
    # (ds.stats(): UDF 216 ms min / 2.02 s max over 17 tasks) — finer
    # batches balance the skew
    return items.select_columns(["url", "html_content", "last_crawled"]).map_batches(
        chunk_batch,
        batch_format="pyarrow",
        batch_size=32,
    )


def q_embed_chunks(sf_dir: str):
    """kurt embedder (stub model parity: zeros x1536)."""
    from .embed import embed_chunks

    chunks = q_chunk_documents(sf_dir)
    return embed_chunks(chunks, mode="stub", concurrency=2)


def q_top_orders_per_customer(sf_dir: str):
    """Group-wise top-k: each customer's 3 priciest orders with a
    1-based rank (stages/sample.py:grouped_topk — per-batch combiner
    keeps k per key before the shuffle)."""
    from ..stages.sample import grouped_topk

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(b["o_totalprice"], pa.scalar(100.0)), pa.scalar(0.5)
                )
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "o_custkey": b["o_custkey"].cast(pa.int64()),
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                "price_c": c,
            }
        )

    out = grouped_topk(
        orders.map_batches(cents, batch_format="pyarrow"),
        key_col="o_custkey",
        order_col="price_c",
        k=3,
        tiebreak_col="o_orderkey",
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "o_custkey": b["o_custkey"].cast(pa.int64()),
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                "price_c": b["price_c"].cast(pa.int64()),
                "rank": b["rank"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_TOP_ORDERS_PER_CUSTOMER = """
SELECT o_custkey, o_orderkey, price_c, rank FROM (
  SELECT CAST(o_custkey AS BIGINT) AS o_custkey,
         CAST(o_orderkey AS BIGINT) AS o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_c,
         row_number() OVER (
           PARTITION BY o_custkey
           ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC, o_orderkey
         ) AS rank
  FROM orders) WHERE rank <= 3
"""


def q_price_quantiles(sf_dir: str):
    """Exact distributed discrete quantiles (p25/p50/p75) of
    l_extendedprice cents per returnflag via a (key, value) histogram
    (stages/sketches.py:histogram_quantiles — the shuffle carries
    distinct values per block, never raw rows)."""
    from ..stages.sketches import histogram_quantiles

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(b["l_extendedprice"], pa.scalar(100.0)),
                    pa.scalar(0.5),
                )
            ),
            pa.int64(),
        )
        return pa.table({"l_returnflag": b["l_returnflag"], "price_c": c})

    out = histogram_quantiles(
        li.map_batches(cents, batch_format="pyarrow"),
        key_col="l_returnflag",
        value_col="price_c",
        qs=[0.25, 0.5, 0.75],
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "q_pct": b["q_pct"].cast(pa.int64()),
                "price_c": b["price_c"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_PRICE_QUANTILES = """
WITH c AS (
  SELECT l_returnflag, CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c
  FROM lineitem)
SELECT l_returnflag, CAST(25 AS BIGINT) AS q_pct,
       quantile_disc(price_c, 0.25) AS price_c FROM c GROUP BY l_returnflag
UNION ALL
SELECT l_returnflag, CAST(50 AS BIGINT), quantile_disc(price_c, 0.50)
FROM c GROUP BY l_returnflag
UNION ALL
SELECT l_returnflag, CAST(75 AS BIGINT), quantile_disc(price_c, 0.75)
FROM c GROUP BY l_returnflag
"""


def q_duplicate_ngrams(sf_dir: str):
    """Substring-level dup signal (Lee et al. 2022 at word granularity):
    5-grams shared by >= 2 docs with doc/occurrence counts
    (stages/dedup.py:duplicate_ngrams — per-block Counter partials)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dd.duplicate_ngrams(docs, k=5, min_docs=2)


SQL_DUPLICATE_NGRAMS = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w FROM documents),
g AS (
  SELECT doc_id,
         w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3] || ' ' || w[i+4] AS gram
  FROM toks, UNNEST(generate_series(1, len(w) - 4)) AS t(i)
  WHERE len(w) >= 5)
SELECT gram, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_occurrences
FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
"""


def q_dedup_span_removal(sf_dir: str):
    """Exact-substring REMOVAL (Lee et al. 2022 applied as a cleaner,
    word granularity): tokens covered by any cross-doc duplicated
    5-gram are dropped and docs reassemble from survivors —
    duplicate_ngrams reports the spans, this removes them
    (stages/dedup.py remove_duplicate_spans: bucketed dup-gram
    aggregation broadcast once, one stateless removal pass)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dd.remove_duplicate_spans(docs, k=5, min_docs=2)


SQL_DEDUP_SPAN_REMOVAL = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w FROM documents),
g AS (
  SELECT doc_id, i,
         w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3] || ' ' || w[i+4] AS gram
  FROM toks, UNNEST(generate_series(1, len(w) - 4)) AS t(i)
  WHERE len(w) >= 5),
dup AS (SELECT gram FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2),
cov AS (
  SELECT DISTINCT g.doc_id, j
  FROM g JOIN dup ON dup.gram = g.gram,
       UNNEST(generate_series(g.i, g.i + 4)) AS t2(j)),
tokpos AS (
  SELECT doc_id, w[j] AS tok, j
  FROM toks, UNNEST(generate_series(1, len(w))) AS t(j)),
kept AS (
  SELECT tp.doc_id, tp.tok, tp.j
  FROM tokpos tp LEFT JOIN cov c ON c.doc_id = tp.doc_id AND c.j = tp.j
  WHERE c.doc_id IS NULL),
agg AS (
  SELECT doc_id, count(*) AS n_kept,
         string_agg(tok, ' ' ORDER BY j) AS clean_text
  FROM kept GROUP BY doc_id)
SELECT t.doc_id,
       CAST(len(t.w) - coalesce(a.n_kept, 0) AS BIGINT) AS n_removed,
       coalesce(a.clean_text, '') AS clean_text
FROM toks t LEFT JOIN agg a ON a.doc_id = t.doc_id
"""


_DAY_US = 86_400_000_000


def q_sliding_window(sf_dir: str):
    """Sliding/hopping windowed aggregate: 1h windows every 15min over
    events, counted per event_type (stages/windows.py:sliding_window —
    vectorized 4x fan-out before the single groupby)."""
    from ..stages.windows import sliding_window

    ev = _read(sf_dir, "events", ["ts", "event_type"])
    out = sliding_window(ev, window_us=_HOUR_US, hop_us=_HOUR_US // 4)
    return out.map_batches(
        lambda b: pa.table(
            {
                "window_id": b["window_id"].cast(pa.int64()),
                "event_type": b["event_type"],
                "n_events": b["n_events"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_SLIDING_WINDOW = f"""
SELECT CAST(epoch_us(ts) // {_HOUR_US // 4} - i AS BIGINT) AS window_id,
       event_type, CAST(count(*) AS BIGINT) AS n_events
FROM events CROSS JOIN UNNEST(generate_series(0, 3)) AS t(i)
GROUP BY 1, 2
"""


def q_interval_join(sf_dir: str):
    """Non-equi range join: events against the 6 earliest event days'
    2-day promo intervals (overlapping, so events can match twice) —
    broadcast small side + vectorized interval masks, no shuffle
    (stages/joins.py:broadcast_interval_join)."""
    from ..stages.joins import broadcast_interval_join

    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def day_of(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64())
        day = pc.multiply(pc.divide(us, _DAY_US), _DAY_US)
        return pa.table({"day_us": day})

    days = (
        ev.map_batches(day_of, batch_format="pyarrow")
        .groupby("day_us")
        .aggregate(Count(alias_name="n"))
        .sort("day_us")
        .limit(6)
        .take_all()
    )  # 6 rows — the small side a real pipeline would broadcast
    starts = [int(r["day_us"]) for r in days]
    ends = [s + 2 * _DAY_US for s in starts]
    joined = broadcast_interval_join(ev, starts, ends)
    return (
        joined.groupby(["interval_start_us", "event_type"])
        .aggregate(Count(alias_name="n_events"))
        .map_batches(
            lambda b: pa.table(
                {
                    "interval_start_us": b["interval_start_us"].cast(pa.int64()),
                    "event_type": b["event_type"],
                    "n_events": b["n_events"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


SQL_INTERVAL_JOIN = f"""
WITH d AS (
  SELECT DISTINCT (epoch_us(ts) // {_DAY_US}) * {_DAY_US} AS day_us
  FROM events ORDER BY day_us LIMIT 6)
SELECT CAST(d.day_us AS BIGINT) AS interval_start_us, e.event_type,
       CAST(count(*) AS BIGINT) AS n_events
FROM events e JOIN d
  ON epoch_us(e.ts) >= d.day_us AND epoch_us(e.ts) < d.day_us + {2 * _DAY_US}
GROUP BY 1, 2
"""


def q_c4_line_filter(sf_dir: str):
    """C4-style line-level cleaning (Raffel et al. 2020 §2.2, the
    SQL-expressible core): drop lines that lack terminal punctuation
    or carry < 3 words; emit cleaned text + per-doc line accounting."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.c4_line_filter_batch, batch_format="pyarrow"
    )


SQL_C4_LINE_FILTER = rf"""
WITH l AS (
  SELECT doc_id, string_split(text, chr(10)) AS lines FROM documents),
k AS (
  SELECT doc_id, len(lines) AS n_lines,
         list_filter(lines, x -> regexp_matches(x, '{ts.C4_LINE_END_PATTERN}')
                     AND len(regexp_extract_all(x, '{ts.WORD_PATTERN}')) >= {ts.C4_MIN_LINE_WORDS}) AS kept
  FROM l)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_lines AS BIGINT) AS n_lines,
       CAST(len(kept) AS BIGINT) AS n_kept,
       array_to_string(kept, chr(10)) AS clean_text,
       len(kept) > 0 AS keep
FROM k
"""


def q_stratified_sample(sf_dir: str):
    """Deterministic per-language sample: the 5 doc_ids with the
    smallest Knuth multiplicative hash per lang — reproducible across
    engines/block layouts (stages/sample.py combiner shape)."""
    from ..stages.sample import stratified_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(docs, key_col="lang", id_col="doc_id", k=5)


SQL_STRATIFIED_SAMPLE = """
SELECT lang, doc_id FROM (
  SELECT lang, CAST(doc_id AS BIGINT) AS doc_id,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY (CAST(doc_id AS BIGINT) * 2654435761) % 4294967296, doc_id) AS rn
  FROM documents) WHERE rn <= 5
"""


def q_vocab_stats(sf_dir: str):
    """Corpus vocabulary stats: top-50 terms by total frequency with
    document frequency. Per-batch Counter partials (one row per
    distinct term per block) feed a term-keyed groupby — the shuffle
    never carries per-token rows."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = docs.map_batches(ts.vocab_partial_batch, batch_format="pyarrow")
    agg = partials.groupby("term").aggregate(
        Sum("total_tf", alias_name="total_tf"), Sum("df", alias_name="df")
    )
    return agg.sort(["total_tf", "term"], descending=[True, False]).limit(50)


SQL_VOCAB_STATS = """
WITH t AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents)
SELECT term, CAST(count(*) AS BIGINT) AS total_tf,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS df
FROM t GROUP BY term
ORDER BY total_tf DESC, term LIMIT 50
"""


def q_inverted_index(sf_dir: str):
    """Inverted-index build: term -> (document frequency, total term
    frequency, postings list of doc_ids ascending), top-100 terms by
    df. Per-batch (term, doc, tf) partials feed a term-keyed groupby
    whose reducer assembles each term's postings — the classic
    index-build shape (shuffle carries term-doc pairs, not tokens).
    At 10^10 docs a hot term's postings outgrow one group; the scale
    path documented in textstats.inverted_partial_batch shards the
    group key to ('term', hash(doc_id) %% S) postings files."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = docs.map_batches(ts.inverted_partial_batch, batch_format="pyarrow")
    postings = partials.groupby("term").map_groups(
        ts.postings_group, batch_format="pandas"
    )
    return postings.sort(["df", "term"], descending=[True, False]).limit(100)


SQL_INVERTED_INDEX = """
WITH t AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents),
td AS (
  SELECT term, CAST(doc_id AS BIGINT) AS doc_id, count(*) AS tf
  FROM t GROUP BY term, doc_id)
SELECT term, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(tf) AS BIGINT) AS total_tf,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM td GROUP BY term
ORDER BY df DESC, term LIMIT 100
"""


def q_inverted_index_sharded(sf_dir: str):
    """The inverted index's SCALE PATH exercised for real: postings
    built per (term, md5(doc_id) %% 4) shard so no reducer ever holds
    a whole hot term's list; top terms' shards returned. The driver
    oracle computes the identical sharding in SQL, proving the
    partitioning is a pure engine-independent function."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = docs.map_batches(
        ts.inverted_shard_partial_batch, batch_format="pyarrow"
    )
    shards = partials.groupby(["term", "pshard"]).map_groups(
        ts.sharded_postings_group, batch_format="pandas"
    )
    return shards.sort(
        ["df", "term", "pshard"], descending=[True, False, False]
    ).limit(100)


SQL_INVERTED_INDEX_SHARDED = """
WITH t AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents),
td AS (
  SELECT term,
         CAST(CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                   AS UBIGINT) % 4 AS BIGINT) AS pshard,
         CAST(doc_id AS BIGINT) AS doc_id, count(*) AS tf
  FROM t GROUP BY term, doc_id)
SELECT term, pshard, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(tf) AS BIGINT) AS total_tf,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM td GROUP BY term, pshard
ORDER BY df DESC, term, pshard LIMIT 100
"""


def q_bigram_counts(sf_dir: str):
    """Adjacent-word co-occurrence statistics: top-100 bigrams by
    count. Per-batch Counter partials keep the two-key groupby
    shuffle at one row per distinct bigram per block."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = docs.map_batches(ts.bigram_partial_batch, batch_format="pyarrow")
    agg = partials.groupby(["w1", "w2"]).aggregate(
        Sum("cnt", alias_name="pair_count")
    )
    return agg.sort(
        ["pair_count", "w1", "w2"], descending=[True, False, False]
    ).limit(100)


SQL_BIGRAM_COUNTS = """
WITH w AS (
  SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS ws FROM documents),
b AS (
  SELECT unnest(ws[1:len(ws)-1]) AS w1, unnest(ws[2:len(ws)]) AS w2
  FROM w WHERE len(ws) >= 2)
SELECT w1, w2, CAST(count(*) AS BIGINT) AS pair_count
FROM b GROUP BY w1, w2
ORDER BY pair_count DESC, w1, w2 LIMIT 100
"""


def q_bigram_lift_topk(sf_dir: str):
    """Collocation mining by LIFT (PMI without the monotone log):
    lift(x,y) = count(x,y)·N / (count(x)·count(y)), the association
    score a phrase-mining / tokenizer-merge pipeline ranks by. Scale
    shape: bigram Counter partials → one two-key groupby; unigram
    partials → one groupby (vocabulary-sized); the unigram marginals
    broadcast ONCE via ray.put into a stateless scoring pass. Float
    discipline for the exact gate: both engine and oracle compute
    double(cnt_xy·N) / double(cnt_x·cnt_y) — products exact in int64
    (< 2^53 at every sf), ONE division in the same order, so the
    doubles hash-match bit-for-bit. Deterministic (lift, w1, w2)
    tiebreak; support floor pair_count >= 5."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    uni = (
        docs.map_batches(ts.unigram_partial_batch, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="n"))
        .take_all()
    )
    counts = {r["word"]: int(r["n"]) for r in uni}
    total = sum(counts.values())
    cnt_ref = ray.put(counts)

    bi = (
        docs.map_batches(ts.bigram_partial_batch, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("cnt", alias_name="pair_count"))
    )

    def score(b: pa.Table) -> pa.Table:
        cm = ray.get(cnt_ref)
        pc_ = b["pair_count"].to_pylist()
        w1 = b["w1"].to_pylist()
        w2 = b["w2"].to_pylist()
        keep_i, lifts = [], []
        for i, (a, c, n_xy) in enumerate(zip(w1, w2, pc_)):
            if n_xy < 5:
                continue
            keep_i.append(i)
            lifts.append(
                float(np.float64(n_xy * total) / np.float64(cm[a] * cm[c]))
            )
        t = b.take(pa.array(keep_i, pa.int64()))
        return t.append_column("lift", pa.array(lifts, pa.float64()))

    scored = bi.map_batches(score, batch_format="pyarrow")
    return scored.sort(
        ["lift", "w1", "w2"], descending=[True, False, False]
    ).limit(50)


SQL_BIGRAM_LIFT_TOPK = """
WITH w AS (
  SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS ws FROM documents),
uni AS (
  SELECT unnest(ws) AS word FROM w),
ucnt AS (
  SELECT word, CAST(count(*) AS BIGINT) AS n FROM uni GROUP BY word),
tot AS (SELECT CAST(count(*) AS BIGINT) AS total FROM uni),
b AS (
  SELECT unnest(ws[1:len(ws)-1]) AS w1, unnest(ws[2:len(ws)]) AS w2
  FROM w WHERE len(ws) >= 2),
bc AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS pair_count
  FROM b GROUP BY w1, w2 HAVING count(*) >= 5)
SELECT bc.w1, bc.w2, bc.pair_count,
       CAST(bc.pair_count * tot.total AS DOUBLE)
       / CAST(u1.n * u2.n AS DOUBLE) AS lift
FROM bc, tot
JOIN ucnt u1 ON u1.word = bc.w1
JOIN ucnt u2 ON u2.word = bc.w2
ORDER BY lift DESC, bc.w1, bc.w2 LIMIT 50
"""


def q_profile_orders(sf_dir: str):
    """Ingest data-quality profile of three orders columns (exact
    null/distinct counts, VARCHAR-collation min/max)."""
    from ..stages.sketches import profile_columns

    orders = _read(
        sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_custkey"]
    )
    return profile_columns(
        orders, ["o_custkey", "o_orderpriority", "o_orderstatus"]
    ).sort("col_name")


SQL_PROFILE_ORDERS = """
SELECT 'o_custkey' AS col_name, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) - count(o_custkey) AS BIGINT) AS n_null,
       CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_distinct,
       min(CAST(o_custkey AS VARCHAR)) AS min_val,
       max(CAST(o_custkey AS VARCHAR)) AS max_val
FROM orders
UNION ALL
SELECT 'o_orderpriority', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_orderpriority) AS BIGINT),
       CAST(count(DISTINCT o_orderpriority) AS BIGINT),
       min(CAST(o_orderpriority AS VARCHAR)),
       max(CAST(o_orderpriority AS VARCHAR))
FROM orders
UNION ALL
SELECT 'o_orderstatus', CAST(count(*) AS BIGINT),
       CAST(count(*) - count(o_orderstatus) AS BIGINT),
       CAST(count(DISTINCT o_orderstatus) AS BIGINT),
       min(CAST(o_orderstatus AS VARCHAR)),
       max(CAST(o_orderstatus AS VARCHAR))
FROM orders
ORDER BY col_name
"""


def q_embedding_topk_quantized(sf_dir: str):
    """Brute-force top-10 over int8-quantized embeddings (8x fewer
    bytes through the object store; rows-only — recall vs exact is
    pinned in tests/test_dedup_ann.py, and check_ok carries the
    in-pipeline recall@10 >= 0.9 vs an exact pass)."""
    from ..stages.ann import (
        embedding_scale,
        quantize_embeddings,
        topk_quantized,
    )

    m, ids = _emb_matrix(sf_dir)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    lo, hi = embedding_scale(ds)
    qds = quantize_embeddings(ds, lo, hi)
    qids = [int(i) for i in ids[:5]]
    out = topk_quantized(qds, lo, hi, m[:5], qids, k=10)
    return _attach_recall_check(out, sf_dir, m[:5], qids, 10, 0.9)


def q_percentile_rank(sf_dir: str):
    """Exact per-key percent_rank over lineitem quantities (feature
    rank-normalization shape: histogram merge + broadcast cdf)."""
    from ..stages.sketches import percentile_rank

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"]
    )
    return percentile_rank(
        li, "l_returnflag", "l_quantity", ["l_orderkey", "l_linenumber"]
    )


SQL_PERCENTILE_RANK = """
SELECT CAST(l_orderkey AS BIGINT) AS l_orderkey,
       CAST(l_linenumber AS BIGINT) AS l_linenumber,
       l_returnflag, l_quantity,
       percent_rank() OVER (PARTITION BY l_returnflag ORDER BY l_quantity)
         AS pct_rank
FROM lineitem
"""


def q_top_principal_component(sf_dir: str):
    """Top principal direction of the embeddings via the distributed
    Gram matrix (one pass, D^2-row shuffle) + driver power iteration.
    Rows-only check (float tree-sums are not SQL-hash-stable); exact
    numpy parity is pinned in tests/test_curation_ops.py. check_ok
    certifies 1 - |cos(v, eigh_top(G))| <= 1e-6 — the power iterate
    aligns with numpy's top eigenvector of the same distributed Gram
    (VERDICT r3 #5)."""
    from ..stages.cluster import top_principal_component_checked

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    v, err = top_principal_component_checked(emb)
    return pa.table(
        {
            "dim": pa.array(range(len(v)), pa.int64()),
            "component": pa.array(v.tolist(), pa.float64()),
            "align_err": pa.array([err] * len(v), pa.float64()),
            "check_ok": pa.array([err <= 1e-6] * len(v), pa.bool_()),
        }
    )


def q_line_dedup(sf_dir: str):
    """Corpus-wide exact line dedup (C4-style first-occurrence rule):
    docs reassembled from their surviving lines."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dd.line_dedup(docs).sort("doc_id")


SQL_LINE_DEDUP = """
WITH l AS (
  SELECT doc_id,
         unnest(string_split(text, chr(10))) AS line,
         unnest(range(1, len(string_split(text, chr(10))) + 1)) AS line_no
  FROM documents),
win AS (
  SELECT line, min(doc_id * 1048576 + line_no) AS wkey FROM l GROUP BY line),
kept AS (
  SELECT l.doc_id, l.line_no, l.line
  FROM l JOIN win ON l.line = win.line
   AND l.doc_id * 1048576 + l.line_no = win.wkey)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(count(*) AS BIGINT) AS n_kept,
       string_agg(line, chr(10) ORDER BY line_no) AS clean_text
FROM kept GROUP BY doc_id ORDER BY doc_id
"""


def q_train_val_split(sf_dir: str):
    """Deterministic train/val holdout split (md5(doc_id) %% 100 < 5
    -> val): per-split doc and word totals. Membership is a pure
    function of the doc id, so every node — and the SQL oracle —
    assigns identically with no coordination state."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = docs.map_batches(ts.split_assign_batch, batch_format="pyarrow")
    agg = partials.groupby("split").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("total_words", alias_name="total_words"),
    )
    return agg.filter(lambda r: r["n_docs"] > 0).sort("split")


SQL_TRAIN_VAL_SPLIT = """
WITH d AS (
  SELECT CASE WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                    AS UBIGINT) % 100 < 5
              THEN 'val' ELSE 'train' END AS split,
         len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_words
  FROM documents)
SELECT split, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_words) AS BIGINT) AS total_words
FROM d GROUP BY split ORDER BY split
"""


def q_dedup_survivors(sf_dir: str):
    """The corpus after near-dup removal: one survivor (min doc_id)
    per connected component of the n-gram-Jaccard >= 0.5 graph,
    singletons included — i.e. the doc list a training run would
    actually consume downstream of dedup_clusters."""
    labels = q_dedup_clusters(sf_dir)
    return labels.map_batches(
        lambda b: b.filter(pc.equal(b["doc_id"], b["cluster_id"])).select(
            ["doc_id"]
        ),
        batch_format="pyarrow",
    )


SQL_DEDUP_SURVIVORS = SQL_DEDUP_CLUSTERS.replace(
    "SELECT node AS doc_id, min(label) AS cluster_id FROM reach GROUP BY node",
    """SELECT doc_id FROM (
  SELECT node AS doc_id, min(label) AS cluster_id FROM reach GROUP BY node)
WHERE doc_id = cluster_id""",
)


DECONTAM_N = 3           # word n-gram width of the overlap test
DECONTAM_BENCH_MOD = 29  # doc_id % MOD == 0 plays the benchmark/test set


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3-style n-gram overlap): docs
    sharing any word 3-gram with the synthetic benchmark subset
    (doc_id % 29 == 0) are dropped; survivors listed. The benchmark
    n-gram set is broadcast once (test sets are small); one corpus
    pass, no shuffle (stages/decontam.py)."""
    from ..stages.decontam import benchmark_ngrams, decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])

    def _split(batch: pa.Table, keep_bench: bool) -> pa.Table:
        import numpy as np

        ids = batch["doc_id"].to_numpy()
        m = pa.array((ids % DECONTAM_BENCH_MOD) == 0)
        return batch.filter(m if keep_bench else pc.invert(m))

    bench = docs.map_batches(
        lambda b: _split(b, True), batch_format="pyarrow"
    )
    grams = benchmark_ngrams(bench, DECONTAM_N)
    rest = docs.map_batches(
        lambda b: _split(b, False), batch_format="pyarrow"
    )
    out = decontaminate(rest, grams, DECONTAM_N)
    return out.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "lang": b["lang"],
                "n_chars": b["n_chars"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_DECONTAMINATE = """
WITH words AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents),
grams AS (
  SELECT doc_id,
         array_to_string(list_slice(w, i, i + 2), ' ') AS g
  FROM (SELECT doc_id, w,
               unnest(generate_series(1, greatest(len(w) - 2, 0))) AS i
        FROM words)),
bench AS (
  SELECT DISTINCT g FROM grams WHERE doc_id % 29 = 0)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id, d.lang,
       CAST(d.n_chars AS BIGINT) AS n_chars
FROM documents d
WHERE d.doc_id % 29 <> 0
  AND NOT EXISTS (
    SELECT 1 FROM grams gr JOIN bench b ON gr.g = b.g
    WHERE gr.doc_id = d.doc_id)
"""


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sample: 20 orders drawn by the
    exponential-race key hash(orderkey)/totalprice — heavier orders
    win more often, result independent of block layout
    (stages/sample.py weighted_sample combiner)."""
    from ..stages.sample import weighted_sample

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
    )
    out = weighted_sample(orders, id_col="o_orderkey", weight_col="o_totalprice", k=20)
    return out.map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                "o_custkey": b["o_custkey"].cast(pa.int64()),
                "price_c": pc.round(
                    pc.multiply(b["o_totalprice"], pa.scalar(100.0))
                ).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_WEIGHTED_SAMPLE = """
SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey,
       CAST(o_custkey AS BIGINT) AS o_custkey,
       CAST(round(o_totalprice * 100) AS BIGINT) AS price_c
FROM orders
ORDER BY (CAST((o_orderkey * 2654435761) % 4294967296 AS DOUBLE)
          / o_totalprice) ASC, o_orderkey ASC
LIMIT 20
"""


def q_label_centroids(sf_dir: str):
    """Per-label mean embedding, unnested to (label, dim, centroid, n)
    scalar rows — the M-step of distributed k-means / the class-
    centroid feature of SemDeDup-style curation. Shuffle carries
    labels x dims x blocks scalars, never vectors
    (stages/cluster.py label_centroids)."""
    from ..stages.cluster import label_centroids

    emb = _read(sf_dir, "embeddings", ["label", "embedding"])
    return label_centroids(emb)


SQL_LABEL_CENTROIDS = """
WITH u AS (
  SELECT label,
         unnest(generate_series(0, len(embedding) - 1)) AS dim,
         unnest(embedding) AS e
  FROM embeddings)
SELECT CAST(label AS BIGINT) AS label, CAST(dim AS BIGINT) AS dim,
       round(avg(CAST(e AS DOUBLE)), 6) AS centroid,
       CAST(count(*) AS BIGINT) AS n
FROM u GROUP BY label, dim
"""


KMEANS_N_CENTROIDS = 8


def q_kmeans_assign(sf_dir: str):
    """Nearest-centroid assignment (k-means E-step / SemDeDup cluster
    routing): centroids are the embeddings of vec_id 0..7, every
    vector goes to its highest-cosine centroid (ties to the smaller
    id). Centroid matrix broadcast once; one vectorized matmul pass
    (stages/cluster.py assign_nearest_centroid)."""
    import numpy as np

    from ..stages.cluster import assign_nearest_centroid

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    seeds = emb.map_batches(
        lambda b: b.filter(
            pc.less(b["vec_id"], pa.scalar(KMEANS_N_CENTROIDS))
        ),
        batch_format="pyarrow",
    )
    seed_rows = sorted(seeds.take_all(), key=lambda r: r["vec_id"])
    centroids = np.array([r["embedding"] for r in seed_rows], dtype=np.float64)
    ids = [int(r["vec_id"]) for r in seed_rows]
    return assign_nearest_centroid(emb, centroids, ids)


SQL_KMEANS_ASSIGN = """
WITH c AS (
  SELECT vec_id AS cid, embedding AS ce FROM embeddings WHERE vec_id < 8),
s AS (
  SELECT e.vec_id, c.cid,
         list_cosine_similarity(e.embedding, c.ce) AS sim
  FROM embeddings e CROSS JOIN c),
r AS (
  SELECT vec_id, cid,
         row_number() OVER (PARTITION BY vec_id ORDER BY sim DESC, cid) AS rn
  FROM s)
SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(cid AS BIGINT) AS centroid_id
FROM r WHERE rn = 1
"""


def q_semdedup(sf_dir: str):
    """SemDeDup cluster-then-prune curation (arXiv:2303.09540):
    vectors route to their nearest of the 8 seed centroids (the
    kmeans_assign convention: embeddings of vec_id 0..7, ties to the
    smaller id), then within each cluster any vector with a
    lower-id cosine>=0.42 neighbour is dropped. Survivors only —
    the per-cluster O(c^2) prune replaces the corpus-wide all-pairs
    of cosine_near_pairs (stages/cluster.py semdedup_survivors)."""
    import numpy as np

    from ..stages.cluster import semdedup_survivors

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    seeds = emb.map_batches(
        lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(KMEANS_N_CENTROIDS))),
        batch_format="pyarrow",
    )
    seed_rows = sorted(seeds.take_all(), key=lambda r: r["vec_id"])
    centroids = np.array([r["embedding"] for r in seed_rows], dtype=np.float64)
    ids = [int(r["vec_id"]) for r in seed_rows]
    return semdedup_survivors(emb, centroids, ids, tau=0.42)


SQL_SEMDEDUP = """
WITH c AS (
  SELECT vec_id AS cid, embedding AS ce FROM embeddings WHERE vec_id < 8),
s AS (
  SELECT e.vec_id, c.cid,
         list_cosine_similarity(e.embedding, c.ce) AS sim
  FROM embeddings e CROSS JOIN c),
a AS (
  SELECT vec_id, cid AS centroid_id
  FROM (SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id ORDER BY sim DESC, cid) AS rn
        FROM s) WHERE rn = 1),
dropped AS (
  SELECT DISTINCT y.vec_id
  FROM a x JOIN a y ON x.centroid_id = y.centroid_id AND x.vec_id < y.vec_id
  JOIN embeddings ex ON ex.vec_id = x.vec_id
  JOIN embeddings ey ON ey.vec_id = y.vec_id
  WHERE list_cosine_similarity(ex.embedding, ey.embedding) >= 0.42)
SELECT CAST(a.vec_id AS BIGINT) AS vec_id,
       CAST(a.centroid_id AS BIGINT) AS centroid_id
FROM a WHERE a.vec_id NOT IN (SELECT vec_id FROM dropped)
"""


def q_percentile_filter(sf_dir: str):
    """Per-language percentile quality gate: keep documents whose
    token count is >= their language's 25th-percentile token count.
    Two corpus passes — exact per-key quantile_disc thresholds via the
    (lang, token_count)->count histogram shuffle
    (stages/sketches.py histogram_quantiles: distinct values per key
    bound the shuffle, never row counts), thresholds broadcast as a
    languages-sized dict, then one vectorized filter pass."""
    from ..stages.sketches import histogram_quantiles

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def tok(b: pa.Table) -> pa.Table:
        counts = [len(ts._TOKEN_RE.findall(t)) for t in b["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "lang": b["lang"],
                "token_count": pa.array(counts, pa.int64()),
            }
        )

    # materialized: (id, lang, int) rows are ~30 B regardless of doc
    # size, and both the threshold pass and the filter pass read them —
    # re-tokenizing the full corpus twice would cost more than spilling
    t = docs.map_batches(tok, batch_format="pyarrow").materialize()
    thr_rows = histogram_quantiles(
        t.select_columns(["lang", "token_count"]), "lang", "token_count", [0.25]
    ).take_all()  # one row per language — bounded
    langs = pa.array([r["lang"] for r in thr_rows], pa.string())
    thrs = np.asarray([int(r["token_count"]) for r in thr_rows], dtype=np.int64)

    def filt(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b["lang"], value_set=langs)
        row_thr = pa.array(thrs[idx.to_numpy(zero_copy_only=False)], pa.int64())
        return b.filter(pc.greater_equal(b["token_count"], row_thr))

    return t.map_batches(filt, batch_format="pyarrow")


SQL_PERCENTILE_FILTER = rf"""
WITH t AS (
  SELECT doc_id, lang,
         CAST(len(regexp_extract_all(text, '{ts.TOKEN_PATTERN}')) AS BIGINT) AS token_count
  FROM documents),
thr AS (SELECT lang, quantile_disc(token_count, 0.25) AS thr FROM t GROUP BY lang)
SELECT CAST(t.doc_id AS BIGINT) AS doc_id, t.lang, t.token_count
FROM t JOIN thr ON t.lang = thr.lang
WHERE t.token_count >= thr.thr
"""


def q_heavy_hitters(sf_dir: str):
    """phi=1% heavy-hitter tokens via mergeable Misra-Gries summaries
    (bounded memory at every step — the 100 TB path where the exact
    vocab_stats groupby would shuffle the whole vocabulary) + an exact
    candidate-count verify pass, so the output is deterministic and
    oracle-checkable (stages/sketches.py heavy_hitters)."""
    from ..stages.sketches import heavy_hitters

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return heavy_hitters(docs, text_col="text", phi_pct=1)


SQL_HEAVY_HITTERS = """
WITH t AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents),
n AS (SELECT count(*) AS n FROM t)
SELECT term, CAST(count(*) AS BIGINT) AS cnt
FROM t, n GROUP BY term, n.n HAVING count(*) * 100 >= n.n
"""


def q_tfidf_top_terms(sf_dir: str):
    """Top-3 salient terms per document by tf * ln(N/df) — document
    frequency from per-block combiner partials, vocabulary-sized idf
    table broadcast once, scoring in one stateless corpus pass
    (stages/textstats.py tfidf_topk)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return ts.tfidf_topk(docs, k=3)


SQL_TFIDF_TOP_TERMS = """
WITH wt AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents),
tf AS (SELECT doc_id, term, count(*) AS tf FROM wt GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM wt GROUP BY term),
n AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term,
         tf.tf * ln(CAST(n.n AS DOUBLE) / CAST(df.df AS DOUBLE)) AS s
  FROM tf JOIN df ON tf.term = df.term CROSS JOIN n),
ranked AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, term) AS rank
  FROM scored)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(rank AS BIGINT) AS rank, term
FROM ranked WHERE rank <= 3
"""


BM25_QUERY = ("merge", "scan", "window")  # sorted; summation order fixed


def q_bm25_topk(sf_dir: str):
    """BM25 ranked retrieval (Robertson/Sparck Jones Okapi BM25, the
    Lucene +1-idf variant; k1=1.2, b=0.75): global top-20 documents
    for a fixed 3-term query — the ranked companion to inverted_index.
    stages/textstats.py bm25_topk: tiny stats combiner (query-term dfs
    + token total), stateless scoring pass, per-block local top-k, one
    single-partition fold. Float discipline: scores order, never hash —
    output is (rank, doc_id) ints with doc_id tie-break; per-doc terms
    sum in sorted order with operand parenthesization the oracle
    mirrors bit-for-bit."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return ts.bm25_topk(docs, list(BM25_QUERY), k=20)


def _bm25_comp_sql(term: str) -> str:
    return (
        f"coalesce((SELECT s FROM comp WHERE comp.doc_id = dl.doc_id "
        f"AND comp.term = '{term}'), 0)"
    )


SQL_BM25_TOPK = (
    """
WITH q(term) AS (VALUES ('merge'), ('scan'), ('window')),
wt AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents),
dl AS (SELECT doc_id, count(*) AS dl FROM wt GROUP BY doc_id),
nq AS (SELECT count(*) AS n FROM documents),
ad AS (SELECT CAST(sum(dl) AS DOUBLE) / CAST((SELECT n FROM nq) AS DOUBLE) AS a
       FROM dl),
tf AS (SELECT w.doc_id, w.term, count(*) AS tf
       FROM wt w JOIN q ON q.term = w.term GROUP BY w.doc_id, w.term),
df AS (SELECT w.term, count(DISTINCT w.doc_id) AS df
       FROM wt w JOIN q ON q.term = w.term GROUP BY w.term),
comp AS (
  SELECT tf.doc_id, tf.term,
         ln(((SELECT n FROM nq) - df.df + 0.5) / (df.df + 0.5) + 1)
           * (tf.tf * 2.2)
           / (tf.tf + 1.2 * (0.25 + (0.75 * d.dl) / (SELECT a FROM ad))) AS s
  FROM tf JOIN df ON df.term = tf.term JOIN dl d ON d.doc_id = tf.doc_id),
scored AS (
  SELECT dl.doc_id,
         """
    + "\n       + ".join(_bm25_comp_sql(t) for t in BM25_QUERY)
    + """ AS s
  FROM dl),
ranked AS (
  SELECT doc_id, row_number() OVER (ORDER BY s DESC, doc_id) AS rank
  FROM scored WHERE s > 0)
SELECT CAST(rank AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS doc_id
FROM ranked WHERE rank <= 20
"""
)


def q_search_rank_fusion(sf_dir: str):
    """END-TO-END SEARCH BUILD under one oracle — the three retrieval
    subsystems composed exactly as a web search engine would: (1) the
    frontier engine crawls the corpus depth<=5 from doc 0 (the crawl
    defines the INDEX admission set), (2) Okapi BM25 ranks the crawled
    index for the fixed query (stats — N, df, avgdl — computed over the
    index, not the corpus), (3) exact-int PageRank over the
    indexable-endorsement link graph supplies the authority signal, and
    (4) the final order is integer Borda fusion rank(bm25)+rank(pr)
    with doc_id tie-breaks — rank fusion keeps the hashed output pure
    ints (floats only ever order within their own subsystem).

    Scale shape: the crawled set feeds BM25 as a filter (semi-join
    against the order output at 10^10), the rank join is the
    partitioned hash join, and only the tiny fused candidate set hits
    the single-partition fold."""
    import ray.data as _rd

    from ..stages.extract import extract_batch
    from ..stages.graph import pagerank
    from ..stages.joins import partitioned_hash_join
    from .crawl import CrawlConfig, run_crawl

    seed = _site_seed(sf_dir)
    corpus = pages_corpus_dir(sf_dir)
    res = run_crawl(
        corpus, [seed], CrawlConfig(n_shards=4, max_depth=5, max_rounds=16)
    )
    # dimension-sized at gate scale; at 10^10 the crawled set stays in
    # the order parquet and gates BM25 via a semi-join
    crawled = {_doc_id_from_url(u) for u in res.order["url"].to_pylist()}

    def in_index(b: pa.Table) -> pa.Table:
        keep = pa.array([i in crawled for i in b["doc_id"].to_pylist()])
        return b.filter(keep)

    index_docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        in_index, batch_format="pyarrow"
    )
    bm = ts.bm25_topk(index_docs, list(BM25_QUERY), k=len(crawled)).map_batches(
        lambda b: pa.table(
            {
                "bm25_rank": b["rank"].cast(pa.int64()),
                "doc_id": b["doc_id"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def edge_partial(b: pa.Table) -> pa.Table:
        # indexable-endorsement graph (see crawl_pagerank_priority):
        # /fra/ pages dangle so ranks actually vary on the heap graph
        items = extract_batch(b)
        src, dst = [], []
        for u, lang, links in zip(
            items["url"].to_pylist(),
            items["lang"].to_pylist(),
            items["links"].to_pylist(),
        ):
            if lang == "fr":
                continue
            s = _doc_id_from_url(u)
            for v in dict.fromkeys(links):
                src.append(s)
                dst.append(_doc_id_from_url(v))
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    edges = _rd.read_parquet(corpus, columns=["url", "html"]).map_batches(
        edge_partial, batch_format="pyarrow"
    )
    nodes = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda b: pa.table({"v": b["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    pr = pagerank(edges, nodes, iterations=PAGERANK_ITERS)

    fused = partitioned_hash_join(bm, pr, "doc_id", "v", num_buckets=8)

    def final(b: pa.Table) -> pa.Table:
        # candidates are the BM25 survivors (tiny): rank the authority
        # signal among them, Borda-fuse, emit the int-only top-20
        order = pc.sort_indices(
            b, sort_keys=[("r", "descending"), ("doc_id", "ascending")]
        )
        t = b.take(order)
        pr_rank = pa.array(range(1, t.num_rows + 1), pa.int64())
        t = t.append_column("pr_rank", pr_rank)
        fuse = pc.add(t["bm25_rank"].cast(pa.int64()), t["pr_rank"])
        t = t.append_column("fuse", fuse)
        order2 = pc.sort_indices(
            t, sort_keys=[("fuse", "ascending"), ("doc_id", "ascending")]
        )
        t = t.take(order2.slice(0, 20))
        return pa.table(
            {
                "rank": pa.array(range(1, t.num_rows + 1), pa.int64()),
                "doc_id": t["doc_id"].cast(pa.int64()),
                "bm25_rank": t["bm25_rank"].cast(pa.int64()),
                "pr_rank": t["pr_rank"].cast(pa.int64()),
            }
        )

    return fused.repartition(1).map_batches(
        final, batch_format="pyarrow", batch_size=None
    )


def q_pii_redact(sf_dir: str):
    """PII scrub over the events props column: email + digit-run
    redaction as two vectorized RE2 kernel passes
    (stages/textstats.py pii_redact_batch). Embarrassingly parallel —
    no shuffle, column-pruned read."""
    return _read(sf_dir, "events", ["event_id", "props"]).map_batches(
        ts.pii_redact_batch, batch_format="pyarrow"
    )


SQL_PII_REDACT = rf"""
SELECT CAST(event_id AS BIGINT) AS event_id,
       regexp_replace(
         regexp_replace(props, '{ts.EMAIL_PATTERN}', '<EMAIL>', 'g'),
         '{ts.NUM_PATTERN}', '<NUM>', 'g') AS props_clean
FROM events
"""


def q_repetition_filter(sf_dir: str):
    """Gopher-style repetition signal: duplicate-word fraction per doc
    with a keep decision at tau=0.5 (stages/textstats.py
    repetition_batch). Stateless map_batches."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.repetition_batch, batch_format="pyarrow"
    )


SQL_REPETITION_FILTER = rf"""
WITH w AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         regexp_extract_all(text, '{ts.WORD_PATTERN}') AS ws
  FROM documents),
m AS (
  SELECT doc_id, CAST(len(ws) AS BIGINT) AS word_count,
         CAST(len(list_distinct(ws)) AS BIGINT) AS distinct_words
  FROM w)
SELECT doc_id, word_count, distinct_words,
       CASE WHEN word_count = 0 THEN 0.0
            ELSE 1.0 - CAST(distinct_words AS DOUBLE) / CAST(word_count AS DOUBLE)
       END AS dup_frac,
       CASE WHEN word_count = 0 THEN 0.0
            ELSE 1.0 - CAST(distinct_words AS DOUBLE) / CAST(word_count AS DOUBLE)
       END <= {ts.REPETITION_TAU} AS keep
FROM m
"""


TOKEN_BUDGET = 10_000
PACK_CAPACITY = 512
SHUFFLE_SEED = 42


def _doc_token_counts(sf_dir: str) -> ray.data.Dataset:
    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(ts.token_count_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "token_count"])
    )


def q_token_budget_select(sf_dir: str):
    """Select documents in doc_id order until a global token budget is
    exhausted — the 'cut the corpus at N tokens' curation step. Global
    cumulative sum via the two-phase distributed scan
    (stages/scan.py prefix_sum: per-bucket totals -> O(buckets) driver
    offsets -> within-bucket vectorized cumsum)."""
    from ..stages.scan import prefix_sum, range_bucket

    scanned = prefix_sum(
        _doc_token_counts(sf_dir), ["doc_id"], "token_count",
        range_bucket("doc_id", 64),
    )

    def fin(b: pa.Table) -> pa.Table:
        t = b.filter(pc.less_equal(b["prefix_incl"], pa.scalar(TOKEN_BUDGET)))
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "token_count": t["token_count"].cast(pa.int64()),
                "cum_tokens": t["prefix_incl"].cast(pa.int64()),
            }
        )

    return scanned.map_batches(fin, batch_format="pyarrow")


SQL_TOKEN_BUDGET_SELECT = rf"""
WITH tc AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(len(regexp_extract_all(text, '{ts.TOKEN_PATTERN}')) AS BIGINT) AS token_count
  FROM documents),
s AS (
  SELECT doc_id, token_count,
         CAST(SUM(token_count) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
         ) AS BIGINT) AS cum_tokens
  FROM tc)
SELECT doc_id, token_count, cum_tokens FROM s WHERE cum_tokens <= {TOKEN_BUDGET}
"""


def q_pack_sequences(sf_dir: str):
    """GPT-style concat-and-split sequence packing: documents are
    concatenated in doc_id order and split into fixed 512-token bins
    (documents may span bins). Each doc's bin span is pure arithmetic
    on its exclusive/inclusive token prefix sums — the same distributed
    scan, no sequential pass."""
    from ..stages.scan import prefix_sum, range_bucket

    scanned = prefix_sum(
        _doc_token_counts(sf_dir), ["doc_id"], "token_count",
        range_bucket("doc_id", 64),
    )

    def fin(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["token_count"], pa.scalar(0)))
        excl = t["prefix_excl"].to_numpy(zero_copy_only=False).astype(np.int64)
        incl = t["prefix_incl"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "token_count": t["token_count"].cast(pa.int64()),
                "bin_start": pa.array(excl // PACK_CAPACITY, pa.int64()),
                "bin_end": pa.array((incl - 1) // PACK_CAPACITY, pa.int64()),
                "bin_offset": pa.array(excl % PACK_CAPACITY, pa.int64()),
            }
        )

    return scanned.map_batches(fin, batch_format="pyarrow")


SQL_PACK_SEQUENCES = rf"""
WITH tc AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(len(regexp_extract_all(text, '{ts.TOKEN_PATTERN}')) AS BIGINT) AS token_count
  FROM documents),
s AS (
  SELECT doc_id, token_count,
         CAST(SUM(token_count) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
         ) AS BIGINT) AS incl
  FROM tc)
SELECT doc_id, token_count,
       (incl - token_count) // {PACK_CAPACITY} AS bin_start,
       (incl - 1) // {PACK_CAPACITY} AS bin_end,
       (incl - token_count) % {PACK_CAPACITY} AS bin_offset
FROM s WHERE token_count > 0
"""


def q_shuffle_rank(sf_dir: str):
    """Deterministic seeded corpus shuffle with EXACT global positions
    (resumable training-data ordering): shuffle_key = md5(seed:doc_id),
    rank = count of docs with a smaller key — computed as a prefix
    count with hex-prefix range buckets over the key (stages/scan.py).
    No global sort materialization; driver holds 256 offsets."""
    from ..stages.scan import hex_prefix_bucket, prefix_sum

    docs = _read(sf_dir, "documents", ["doc_id"])

    def keyed(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        keys = [
            hashlib.md5(f"{SHUFFLE_SEED}:{i}".encode()).hexdigest() for i in ids
        ]
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "shuffle_key": pa.array(keys, pa.string()),
                "one": pa.array([1] * len(ids), pa.int64()),
            }
        )

    ranked = prefix_sum(
        docs.map_batches(keyed, batch_format="pyarrow"),
        ["shuffle_key"], "one", hex_prefix_bucket("shuffle_key"),
    )

    def fin(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "shuffle_key": b["shuffle_key"],
                "shuffle_rank": b["prefix_excl"].cast(pa.int64()),
            }
        )

    return ranked.map_batches(fin, batch_format="pyarrow")


SQL_SHUFFLE_RANK = f"""
WITH k AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         md5('{SHUFFLE_SEED}:' || CAST(doc_id AS VARCHAR)) AS shuffle_key
  FROM documents)
SELECT doc_id, shuffle_key,
       CAST(row_number() OVER (ORDER BY shuffle_key) - 1 AS BIGINT) AS shuffle_rank
FROM k
"""


def q_perplexity_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020): train an
    add-one-smoothed bigram LM on a deterministic held-in sample
    (doc_id % 5 == 0), score every document's per-token negative
    log-likelihood under it, and split the corpus into head/middle/tail
    terciles by score — the standard quality gate before LLM pretraining.

    Scale shape: LM counts are combiner-pruned groupbys broadcast ONCE
    via ray.put (stages/textstats.py train_bigram_lm); scoring is an
    actor-pool map_batches that fetches the model once per actor; the
    tercile assignment needs a global rank — computed with the
    stages/scan.py prefix count (driver holds O(range-buckets) offsets,
    never per-doc rows), then the exact SQL NTILE rule maps rank -> 1..3.
    """
    from ..stages.scan import prefix_sum
    from ..stages.textstats import (
        PerplexityScorer,
        ntile_of_rank,
        train_bigram_lm,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    def _train_filter(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 5 == 0))

    train = docs.map_batches(_train_filter, batch_format="pyarrow")
    cb_ref, cu_ref, v = train_bigram_lm(train)
    scored = docs.map_batches(
        PerplexityScorer,
        fn_constructor_args=(cb_ref, cu_ref, v),
        batch_format="pyarrow",
        concurrency=(1, 4),
    )

    def one(b: pa.Table) -> pa.Table:
        return b.append_column("one", pa.array([1] * b.num_rows, pa.int64()))

    # range buckets over nll_c are order-preserving for (nll_c, doc_id)
    ranked = prefix_sum(
        scored.map_batches(one, batch_format="pyarrow"),
        ["nll_c", "doc_id"],
        "one",
        lambda b: pc.divide(b["nll_c"], 64).cast(pa.int64()),
    )
    n = scored.count()

    def fin(b: pa.Table) -> pa.Table:
        ranks = b["prefix_incl"].to_pylist()  # 1-based global rank
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "nll_c": b["nll_c"].cast(pa.int64()),
                "bucket": pa.array(
                    [ntile_of_rank(r, n, 3) for r in ranks], pa.int64()
                ),
            }
        )

    return ranked.map_batches(fin, batch_format="pyarrow")


SQL_PERPLEXITY_BUCKETS = """
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
  FROM documents),
tr AS (SELECT * FROM t WHERE doc_id % 5 = 0),
cb AS (
  SELECT w1, w2, count(*) AS c FROM (
    SELECT unnest(ws[1:len(ws)-1]) AS w1, unnest(ws[2:len(ws)]) AS w2
    FROM tr WHERE len(ws) >= 2)
  GROUP BY w1, w2),
cu AS (
  SELECT w, count(*) AS c FROM (SELECT unnest(ws) AS w FROM tr) GROUP BY w),
v AS (SELECT count(*) AS v FROM cu),
pairs AS (
  SELECT doc_id, unnest(ws[1:len(ws)-1]) AS w1, unnest(ws[2:len(ws)]) AS w2
  FROM t WHERE len(ws) >= 2),
scored AS (
  SELECT p.doc_id,
         ln((coalesce(cb.c, 0) + 1.0) / (coalesce(cu.c, 0) + v.v)) AS lp
  FROM pairs p
  LEFT JOIN cb ON p.w1 = cb.w1 AND p.w2 = cb.w2
  LEFT JOIN cu ON p.w1 = cu.w
  CROSS JOIN v),
perdoc AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(round(-avg(lp) * 10000) AS BIGINT) AS nll_c
  FROM scored GROUP BY doc_id)
SELECT doc_id, nll_c,
       CAST(ntile(3) OVER (ORDER BY nll_c, doc_id) AS BIGINT) AS bucket
FROM perdoc
"""


PAGERANK_ITERS = 3
_PR_SCALE = 10**12
_PR_BASE = (_PR_SCALE * 15) // 100


def q_pagerank(sf_dir: str):
    """Distributed PageRank (3 synchronous iterations, damping 0.85)
    over the REAL extracted link graph — pages corpus -> byte-identity
    extract kernel -> link edges -> stages/graph.py pagerank. Exact
    int64 arithmetic (scale 1e12) so the result is bit-identical to
    the unrolled-SQL oracle regardless of block layout or summation
    order. The oracle derives the same edges arithmetically
    (doc i -> (2i+1)%n, (2i+2)%n), so a regression in extraction,
    edge dedup, the partitioned join, or the rank update all surface
    here."""
    from ..stages.graph import pagerank
    from .ingest import extract_edges

    items = _extracted_items(sf_dir)
    edges_u = extract_edges(items.select_columns(["url", "depth", "links"]))

    def to_ids(b: pa.Table) -> pa.Table:
        if "src" not in b.column_names:
            return pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "src": pa.array(
                    [_doc_id_from_url(u) for u in b["src"].to_pylist()], pa.int64()
                ),
                "dst": pa.array(
                    [_doc_id_from_url(u) for u in b["dst"].to_pylist()], pa.int64()
                ),
            }
        )

    edges = edges_u.map_batches(to_ids, batch_format="pyarrow")
    nodes = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda b: pa.table({"v": b["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    ranks = pagerank(edges, nodes, iterations=PAGERANK_ITERS)
    return ranks.map_batches(
        lambda b: pa.table(
            {"doc_id": b["v"].cast(pa.int64()), "rank_scaled": b["r"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


def _pr_iter_sql(i: int) -> str:
    return f"""
a{i} AS (
  SELECT e.dst AS v, SUM(r.r // o.d) AS s
  FROM e JOIN r{i - 1} r ON r.v = e.src JOIN outd o ON o.src = e.src
  GROUP BY e.dst),
r{i} AS (
  SELECT n.v,
         CAST({_PR_BASE} + (85 * COALESCE(a.s, 0)) // 100 AS BIGINT) AS r
  FROM nodes n LEFT JOIN a{i} a ON a.v = n.v)"""


SQL_PAGERANK = (
    f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
e AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS dst FROM documents, nn
  UNION ALL
  SELECT CAST(doc_id AS BIGINT),
         CAST((2 * doc_id + 2) % nn.n AS BIGINT) FROM documents, nn),
outd AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY src),
r0 AS (SELECT v, CAST({_PR_SCALE} AS BIGINT) AS r FROM nodes),"""
    + ",".join(_pr_iter_sql(i) for i in range(1, PAGERANK_ITERS + 1))
    + f"""
SELECT v AS doc_id, r AS rank_scaled FROM r{PAGERANK_ITERS}
"""
)


_TR_SEED_MOD = 50  # trusted seed set: doc_id % 50 == 0 (10 seeds @ 500 docs)


def q_trustrank(sf_dir: str):
    """TrustRank (Gyöngyi/Garcia-Molina/Pedersen 2004) over the REAL
    extracted link graph: teleport restricted to the trusted seed set
    doc_id %% 50 == 0, so trust attenuates along links from the seeds
    and pages unreachable from them settle at EXACTLY 0 — the spam-
    demotion companion to q_pagerank (which funds every page via the
    uniform teleport). Same stages/graph.py bulk-synchronous shape and
    exact-int64 discipline; oracle = unrolled 3-iteration SQL with the
    seed-gated teleport term."""
    from ..stages.graph import trustrank
    from .ingest import extract_edges

    items = _extracted_items(sf_dir)
    edges_u = extract_edges(items.select_columns(["url", "depth", "links"]))

    def to_ids(b: pa.Table) -> pa.Table:
        if "src" not in b.column_names:
            return pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "src": pa.array(
                    [_doc_id_from_url(u) for u in b["src"].to_pylist()], pa.int64()
                ),
                "dst": pa.array(
                    [_doc_id_from_url(u) for u in b["dst"].to_pylist()], pa.int64()
                ),
            }
        )

    edges = edges_u.map_batches(to_ids, batch_format="pyarrow")
    docs = _docs_table(sf_dir)
    n = docs.num_rows
    seeds = [i for i in docs["doc_id"].to_pylist() if i % _TR_SEED_MOD == 0]
    nodes = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda b: pa.table({"v": b["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    ranks = trustrank(edges, nodes, seeds, iterations=PAGERANK_ITERS)
    return ranks.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["v"].cast(pa.int64()),
                "trust_scaled": b["r"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def _tr_iter_sql(i: int) -> str:
    return f"""
a{i} AS (
  SELECT e.dst AS v, SUM(r.r // o.d) AS s
  FROM e JOIN r{i - 1} r ON r.v = e.src JOIN outd o ON o.src = e.src
  GROUP BY e.dst),
r{i} AS (
  SELECT n.v,
         CAST(CASE WHEN n.v % {_TR_SEED_MOD} = 0 THEN {_PR_BASE} ELSE 0 END
              + (85 * COALESCE(a.s, 0)) // 100 AS BIGINT) AS r
  FROM nodes n LEFT JOIN a{i} a ON a.v = n.v)"""


SQL_TRUSTRANK = (
    f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
e AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS dst FROM documents, nn
  UNION ALL
  SELECT CAST(doc_id AS BIGINT),
         CAST((2 * doc_id + 2) % nn.n AS BIGINT) FROM documents, nn),
outd AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY src),
r0 AS (SELECT v,
              CAST(CASE WHEN v % {_TR_SEED_MOD} = 0
                   THEN {_PR_SCALE} ELSE 0 END AS BIGINT) AS r
       FROM nodes),"""
    + ",".join(_tr_iter_sql(i) for i in range(1, PAGERANK_ITERS + 1))
    + f"""
SELECT v AS doc_id, r AS trust_scaled FROM r{PAGERANK_ITERS}
"""
)


# relative spam-mass flag threshold: mass/pagerank > 0.6 (exact rational)
_SM_REL_NUM = 60
_SM_REL_DEN = 100


def q_spam_mass(sf_dir: str):
    """Spam-mass estimation (Gyöngyi/Garcia-Molina/Pedersen 2006,
    "Link Spam Detection Based on Mass Estimation"): how much of a
    page's PageRank comes from spam? Composes the repo's two
    exact-int link-graph fixpoints over the SAME extracted edge set —
    uniform-teleport PageRank (every page funded) and seed-teleport
    TrustRank (only pages reachable from the trusted core funded) —
    then joins the two rank tables with one partitioned hash join.

    ``trust_norm = trust * N // S`` rescales TrustRank's teleport mass
    (paid only at the S seeds) to PageRank's (paid at all N nodes) so
    the two vectors are comparable; ``abs_mass = pagerank -
    trust_norm`` is the rank unexplained by trusted endorsement, and a
    page is flagged when its RELATIVE mass exceeds 0.6 (exact
    cross-multiplied rational) AND its rank exceeds the teleport-only
    floor (a page nobody links to has no link rank to owe spam for —
    the paper's "consider only high-PR nodes" guard).

    Every quantity is int64 at scale 1e12 — both 3-iteration fixpoints,
    the normalization, and the flag rule hash bit-identically against
    the doubly-unrolled SQL oracle."""
    from ..stages.graph import dual_rank
    from .ingest import extract_edges

    items = _extracted_items(sf_dir)
    edges_u = extract_edges(items.select_columns(["url", "depth", "links"]))

    def to_ids(b: pa.Table) -> pa.Table:
        if "src" not in b.column_names:
            return pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "src": pa.array(
                    [_doc_id_from_url(u) for u in b["src"].to_pylist()], pa.int64()
                ),
                "dst": pa.array(
                    [_doc_id_from_url(u) for u in b["dst"].to_pylist()], pa.int64()
                ),
            }
        )

    edges = edges_u.map_batches(to_ids, batch_format="pyarrow").materialize()
    docs = _docs_table(sf_dir)
    n = docs.num_rows
    seeds = [i for i in docs["doc_id"].to_pylist() if i % _TR_SEED_MOD == 0]
    s = len(seeds)
    nodes = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda b: pa.table({"v": b["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    # ONE fused fixpoint carries both channels (half the exchanges of
    # two sequential runs, and the final row already holds both ranks
    # — bench: 23.1 -> ~9 s at sf0.1); bit-identical to pagerank +
    # trustrank + join, pinned by test_dual_rank_matches_separate.
    joined = dual_rank(edges, nodes, seeds, iterations=PAGERANK_ITERS)

    def fin(b: pa.Table) -> pa.Table:
        if "v" not in b.column_names or b.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "rank_scaled": pa.array([], pa.int64()),
                    "trust_norm": pa.array([], pa.int64()),
                    "abs_mass": pa.array([], pa.int64()),
                    "is_spam": pa.array([], pa.bool_()),
                }
            )
        prv = b["pr"].cast(pa.int64())
        trv = b["tr"].cast(pa.int64())
        trust_norm = pc.divide(
            pc.multiply(trv, pa.scalar(n, pa.int64())), pa.scalar(s, pa.int64())
        )
        mass = pc.subtract(prv, trust_norm)
        is_spam = pc.and_(
            pc.greater(
                pc.multiply(mass, pa.scalar(_SM_REL_DEN, pa.int64())),
                pc.multiply(prv, pa.scalar(_SM_REL_NUM, pa.int64())),
            ),
            pc.greater(prv, pa.scalar(_PR_BASE, pa.int64())),
        )
        return pa.table(
            {
                "doc_id": b["v"].cast(pa.int64()),
                "rank_scaled": prv,
                "trust_norm": trust_norm,
                "abs_mass": mass,
                "is_spam": is_spam,
            }
        )

    return joined.map_batches(fin, batch_format="pyarrow")


def _tr_iter_sql_t(i: int) -> str:
    """TrustRank unrolled-iteration CTEs under t/b names so they can
    coexist with the PageRank r/a chain in one composed oracle."""
    return f"""
b{i} AS (
  SELECT e.dst AS v, SUM(t.r // o.d) AS s
  FROM e JOIN t{i - 1} t ON t.v = e.src JOIN outd o ON o.src = e.src
  GROUP BY e.dst),
t{i} AS (
  SELECT n.v,
         CAST(CASE WHEN n.v % {_TR_SEED_MOD} = 0 THEN {_PR_BASE} ELSE 0 END
              + (85 * COALESCE(b.s, 0)) // 100 AS BIGINT) AS r
  FROM nodes n LEFT JOIN b{i} b ON b.v = n.v)"""


SQL_SPAM_MASS = (
    f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
e AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS dst FROM documents, nn
  UNION ALL
  SELECT CAST(doc_id AS BIGINT),
         CAST((2 * doc_id + 2) % nn.n AS BIGINT) FROM documents, nn),
outd AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY src),
sc AS (SELECT count(*) AS s FROM nodes WHERE v % {_TR_SEED_MOD} = 0),
r0 AS (SELECT v, CAST({_PR_SCALE} AS BIGINT) AS r FROM nodes),"""
    + ",".join(_pr_iter_sql(i) for i in range(1, PAGERANK_ITERS + 1))
    + f""",
t0 AS (SELECT v,
              CAST(CASE WHEN v % {_TR_SEED_MOD} = 0
                   THEN {_PR_SCALE} ELSE 0 END AS BIGINT) AS r
       FROM nodes),"""
    + ",".join(_tr_iter_sql_t(i) for i in range(1, PAGERANK_ITERS + 1))
    + f"""
SELECT n.v AS doc_id,
       CAST(pr.r AS BIGINT) AS rank_scaled,
       CAST((tr.r * nn.n) // sc.s AS BIGINT) AS trust_norm,
       CAST(pr.r - (tr.r * nn.n) // sc.s AS BIGINT) AS abs_mass,
       ({_SM_REL_DEN} * (pr.r - (tr.r * nn.n) // sc.s) > {_SM_REL_NUM} * pr.r
        AND pr.r > {_PR_BASE}) AS is_spam
FROM nodes n
JOIN r{PAGERANK_ITERS} pr ON pr.v = n.v
JOIN t{PAGERANK_ITERS} tr ON tr.v = n.v
CROSS JOIN nn CROSS JOIN sc
"""
)


SQL_CRAWL_PAGERANK_PRIORITY = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + f""",
nodes AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
e AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS dst
  FROM documents, nn WHERE lang <> 'fr'
  UNION ALL
  SELECT CAST(doc_id AS BIGINT),
         CAST((2 * doc_id + 2) % nn.n AS BIGINT)
  FROM documents, nn WHERE lang <> 'fr'),
outd AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY src),
r0 AS (SELECT v, CAST({_PR_SCALE} AS BIGINT) AS r FROM nodes),"""
    + ",".join(_pr_iter_sql(i) for i in range(1, PAGERANK_ITERS + 1))
    + f""",
score AS (SELECT p.url, pr.r AS c
          FROM pg p JOIN r{PAGERANK_ITERS} pr ON pr.v = p.doc_id),
sim(round, url, depth, done) AS (
  SELECT 0 AS round, url, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, depth FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.depth,
                    (SELECT count(*) FROM pending q
                     LEFT JOIN score sq ON sq.url = q.url
                     WHERE (q.depth, -coalesce(sq.c, 0), q.url)
                           <= (p.depth, -coalesce(sp.c, 0), p.url)) AS rn
             FROM pending p LEFT JOIN score sp ON sp.url = p.url),
  sel AS (SELECT url, depth FROM ranked WHERE rn <= 9),
  disc AS (SELECT e2.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s
           JOIN (SELECT url AS src, c1_url AS dst FROM pg
                 UNION ALL SELECT url, c2_url FROM pg) e2 ON e2.src = s.url
           GROUP BY e2.dst),
  kids AS (SELECT d.url, d.ddepth AS depth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, k.depth, FALSE FROM kids k)
  SELECT r0.round + 1, n.url, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


SQL_SEARCH_RANK_FUSION = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e2.dst, w.depth + 1 FROM walk w JOIN edges e2 ON e2.src = w.url
  WHERE w.depth < 5),
crawled AS (SELECT DISTINCT p.doc_id FROM walk w JOIN pg p ON p.url = w.url),
qy(term) AS (VALUES ('merge'), ('scan'), ('window')),
wt AS (
  SELECT d.doc_id, unnest(regexp_extract_all(lower(d.text), '[a-z0-9]+')) AS term
  FROM documents d JOIN crawled c ON c.doc_id = d.doc_id),
dl AS (SELECT doc_id, count(*) AS dl FROM wt GROUP BY doc_id),
nq AS (SELECT count(*) AS n FROM crawled),
ad AS (SELECT CAST(sum(dl) AS DOUBLE) / CAST((SELECT n FROM nq) AS DOUBLE) AS a
       FROM dl),
tf AS (SELECT w.doc_id, w.term, count(*) AS tf
       FROM wt w JOIN qy q ON q.term = w.term GROUP BY w.doc_id, w.term),
df AS (SELECT w.term, count(DISTINCT w.doc_id) AS df
       FROM wt w JOIN qy q ON q.term = w.term GROUP BY w.term),
comp AS (
  SELECT tf.doc_id, tf.term,
         ln(((SELECT n FROM nq) - df.df + 0.5) / (df.df + 0.5) + 1)
           * (tf.tf * 2.2)
           / (tf.tf + 1.2 * (0.25 + (0.75 * d.dl) / (SELECT a FROM ad))) AS s
  FROM tf JOIN df ON df.term = tf.term JOIN dl d ON d.doc_id = tf.doc_id),
scored AS (
  SELECT dl.doc_id,
         """
    + "\n       + ".join(_bm25_comp_sql(t) for t in BM25_QUERY)
    + f""" AS s
  FROM dl),
bm AS (SELECT doc_id, row_number() OVER (ORDER BY s DESC, doc_id) AS bm25_rank
       FROM scored WHERE s > 0),
nodes AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
e AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS dst
  FROM documents, nn WHERE lang <> 'fr'
  UNION ALL
  SELECT CAST(doc_id AS BIGINT),
         CAST((2 * doc_id + 2) % nn.n AS BIGINT)
  FROM documents, nn WHERE lang <> 'fr'),
outd AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY src),
r0 AS (SELECT v, CAST({_PR_SCALE} AS BIGINT) AS r FROM nodes),"""
    + ",".join(_pr_iter_sql(i) for i in range(1, PAGERANK_ITERS + 1))
    + f""",
prr AS (SELECT b.doc_id, b.bm25_rank,
               row_number() OVER (ORDER BY r.r DESC, b.doc_id) AS pr_rank
        FROM bm b JOIN r{PAGERANK_ITERS} r ON r.v = b.doc_id),
fused AS (SELECT doc_id, bm25_rank, pr_rank,
                 row_number() OVER (ORDER BY bm25_rank + pr_rank, doc_id)
                   AS rank
          FROM prr)
SELECT CAST(rank AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS doc_id,
       CAST(bm25_rank AS BIGINT) AS bm25_rank,
       CAST(pr_rank AS BIGINT) AS pr_rank
FROM fused WHERE rank <= 20
"""
)


def q_hits_scores(sf_dir: str):
    """HITS hub/authority scores (Kleinberg 1999) over the REAL
    extracted link graph — the ranking companion to pagerank/trustrank
    built from mutual reinforcement rather than random walks.
    Unnormalized exact-int64 power iterations (rankings are identical
    to the L2-normalized reference formulation; integer sums are
    order-independent so the hash matches the unrolled SQL oracle on
    any block layout). stages/graph.py hits: two partitioned joins +
    two groupbys per iteration, score tables materialized off-driver."""
    from ..stages.graph import hits
    from .ingest import extract_edges

    items = _extracted_items(sf_dir)
    edges_u = extract_edges(items.select_columns(["url", "depth", "links"]))

    def to_ids(b: pa.Table) -> pa.Table:
        if "src" not in b.column_names:
            return pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "src": pa.array(
                    [_doc_id_from_url(u) for u in b["src"].to_pylist()], pa.int64()
                ),
                "dst": pa.array(
                    [_doc_id_from_url(u) for u in b["dst"].to_pylist()], pa.int64()
                ),
            }
        )

    edges = edges_u.map_batches(to_ids, batch_format="pyarrow")
    nodes = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda b: pa.table({"v": b["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    scores = hits(edges, nodes, iterations=PAGERANK_ITERS)
    return scores.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["v"].cast(pa.int64()),
                "hub": b["h"].cast(pa.int64()),
                "auth": b["a"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def _hits_iter_sql(i: int) -> str:
    return f"""
a{i} AS (
  SELECT n.v, CAST(COALESCE((SELECT SUM(h.h) FROM e
                             JOIN h{i - 1} h ON h.v = e.src
                             WHERE e.dst = n.v), 0) AS BIGINT) AS a
  FROM nodes n),
h{i} AS (
  SELECT n.v, CAST(COALESCE((SELECT SUM(a.a) FROM e
                             JOIN a{i} a ON a.v = e.dst
                             WHERE e.src = n.v), 0) AS BIGINT) AS h
  FROM nodes n)"""


SQL_HITS_SCORES = (
    f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
nodes AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
e AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS dst FROM documents, nn
  UNION ALL
  SELECT CAST(doc_id AS BIGINT),
         CAST((2 * doc_id + 2) % nn.n AS BIGINT) FROM documents, nn),
h0 AS (SELECT v, CAST(1 AS BIGINT) AS h FROM nodes),"""
    + ",".join(_hits_iter_sql(i) for i in range(1, PAGERANK_ITERS + 1))
    + f"""
SELECT h.v AS doc_id, h.h AS hub, a.a AS auth
FROM h{PAGERANK_ITERS} h JOIN a{PAGERANK_ITERS} a ON a.v = h.v
"""
)


BLOOM_PRICE_MIN = 490_000.0


def q_bloom_semi_join(sf_dir: str):
    """Bloom-filter semi-join scale path (stages/bloom.py): lineitem
    rows for top-price orders. The distributed bloom build + vectorized
    probe prunes ~98% of lineitem before the exact PARTITIONED verify
    join, so the shuffle moves only survivors — the result is exact
    (false positives removed by the verify), hence SQL-oracled."""
    from ..stages.bloom import bloom_semi_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        lambda b: b.filter(pc.greater(b["o_totalprice"], pa.scalar(BLOOM_PRICE_MIN))),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_quantity"])
    out = bloom_semi_join(
        li, orders.select_columns(["o_orderkey"]), "l_orderkey", "o_orderkey",
        verify="partitioned",
    )

    def fin(b: pa.Table) -> pa.Table:
        if "l_orderkey" not in b.column_names:
            return pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "l_partkey": pa.array([], pa.int64()),
                    "qty_cents": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "l_orderkey": b["l_orderkey"].cast(pa.int64()),
                "l_partkey": b["l_partkey"].cast(pa.int64()),
                "qty_cents": _cents(b["l_quantity"]),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


SQL_BLOOM_SEMI_JOIN = f"""
SELECT l_orderkey, l_partkey,
       CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) AS qty_cents
FROM lineitem
WHERE l_orderkey IN (
  SELECT o_orderkey FROM orders WHERE o_totalprice > {BLOOM_PRICE_MIN})
"""


DOMAIN_MIX_WEIGHTS = {
    "en": 0.4,
    "fr": 0.2,
    "de": 0.15,
    "es": 0.15,
    "zh": 0.1,
}


def q_domain_mix(sf_dir: str):
    """Deterministic domain mixing (Pile / DoReMi-style target
    proportions): sample floor(w_lang x K) docs per language, K = half
    the corpus, selected by the multiplicative-hash rank so the mix is
    a pure function of the data (stages/sample.py:quota_mix — per-key
    quota combiner, output-sized shuffle). Both engines compute the
    quotas as floor(w x floor(0.5 x N)) in IEEE doubles."""
    import math

    from ..stages.sample import quota_mix

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    k_total = float(math.floor(0.5 * docs.count()))
    quotas = {
        lang: int(math.floor(w * k_total))
        for lang, w in DOMAIN_MIX_WEIGHTS.items()
    }
    return quota_mix(docs, key_col="lang", id_col="doc_id", quotas=quotas)


SQL_DOMAIN_MIX = """
WITH q AS (
  SELECT floor(0.5 * count(*)) AS k FROM documents),
ranked AS (
  SELECT lang, CAST(doc_id AS BIGINT) AS doc_id,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY (CAST(doc_id AS BIGINT) * 2654435761) % 4294967296, doc_id) AS rn
  FROM documents)
SELECT r.lang, r.doc_id FROM ranked r, q
WHERE r.rn <= CAST(floor(
  (CASE r.lang WHEN 'en' THEN 0.4 WHEN 'fr' THEN 0.2 WHEN 'de' THEN 0.15
               WHEN 'es' THEN 0.15 WHEN 'zh' THEN 0.1 ELSE 0 END) * q.k)
  AS BIGINT)
"""


def q_dup_doc_coverage(sf_dir: str):
    """Per-document duplicated-5-gram coverage — the doc-level
    aggregation of the Lee et al. substring-dup signal
    (stages/dedup.py:dup_doc_coverage — distinct (gram, doc) pairs
    bucketed by gram hash, per-bucket vectorized doc counts, per-doc
    sum)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dd.dup_doc_coverage(docs, k=5, min_docs=2)


SQL_DUP_DOC_COVERAGE = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w FROM documents),
g0 AS (
  SELECT doc_id,
         w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' ' || w[i+3] || ' ' || w[i+4] AS gram
  FROM toks, UNNEST(generate_series(1, len(w) - 4)) AS t(i)
  WHERE len(w) >= 5),
g AS (SELECT DISTINCT doc_id, gram FROM g0),
c AS (SELECT gram, count(*) AS nd FROM g GROUP BY gram)
SELECT g.doc_id, CAST(count(*) AS BIGINT) AS n_grams,
       CAST(count(*) FILTER (WHERE c.nd >= 2) AS BIGINT) AS n_dup_grams
FROM g JOIN c USING (gram) GROUP BY g.doc_id
"""


def q_gopher_quality(sf_dir: str):
    """Gopher quality-rule filter (Rae et al. 2021 A1.1) with exact
    integer features — every ratio threshold is an integer
    cross-multiplication so the oracle hash-matches
    (stages/textstats.py:gopher_quality_batch)."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        ts.gopher_quality_batch, batch_format="pyarrow"
    )


SQL_GOPHER_QUALITY = r"""
WITH f AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\S+')) AS n_words,
         length(regexp_replace(text, '\s', '', 'g')) AS n_word_chars,
         len(regexp_extract_all(text, '#|\.\.\.|…')) AS n_sym,
         len(string_split(text, chr(10))) AS n_lines,
         len(regexp_extract_all(text, '(?m)^[ \t]*[-*•]')) AS n_bullet,
         len(regexp_extract_all(text, '(?m)(\.\.\.|…)$')) AS n_ellipsis,
         len(regexp_extract_all(text, '\S*[A-Za-z]\S*')) AS n_alpha_words,
         len(list_distinct(regexp_extract_all(lower(text),
             '\b(the|be|to|of|and|that|have|with)\b'))) AS n_stop_distinct
  FROM documents)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_words AS BIGINT) AS n_words,
       CAST(n_word_chars AS BIGINT) AS n_word_chars,
       CAST(n_sym AS BIGINT) AS n_sym,
       CAST(n_lines AS BIGINT) AS n_lines,
       CAST(n_bullet AS BIGINT) AS n_bullet,
       CAST(n_ellipsis AS BIGINT) AS n_ellipsis,
       CAST(n_alpha_words AS BIGINT) AS n_alpha_words,
       CAST(n_stop_distinct AS BIGINT) AS n_stop_distinct,
       (n_words BETWEEN 50 AND 100000
        AND 3 * n_words <= n_word_chars AND n_word_chars <= 10 * n_words
        AND 10 * n_sym < n_words
        AND 10 * n_bullet < 9 * n_lines
        AND 10 * n_ellipsis < 3 * n_lines
        AND 10 * n_alpha_words >= 8 * n_words
        AND n_stop_distinct >= 2) AS keep
FROM f
"""


def q_curation_pipeline(sf_dir: str):
    """End-to-end C4/RefinedWeb-style curation composed from the
    verified stages, under ONE exact oracle: quality gate (n_words >=
    10, stop_ratio >= 0.01 — the quality_scores keep rule) ->
    corpus-wide line dedup (keep-first, the line_dedup stage) -> exact
    dedup on the cleaned text (md5 groups, keep smallest doc_id).
    Output: one row per surviving distinct cleaned text with its
    keeper, duplicate count, and surviving line count. Each stage is
    the SAME code path as its standalone oracled query, so this gates
    the composition (filters feeding shuffles feeding groupbys), not
    just the parts."""
    import hashlib as _hl

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def keep_only(b: pa.Table) -> pa.Table:
        return b.filter(ts.quality_batch(b)["keep"])

    cleaned = dd.line_dedup(docs.map_batches(keep_only, batch_format="pyarrow"))

    def hash_clean(b: pa.Table) -> pa.Table:
        fps = [
            _hl.md5((t or "").encode()).hexdigest()
            for t in b["clean_text"].to_pylist()
        ]
        return pa.table(
            {
                "clean_hash": pa.array(fps, pa.string()),
                "doc_id": b["doc_id"].cast(pa.int64()),
                "n_kept": b["n_kept"].cast(pa.int64()),
            }
        )

    agg = (
        cleaned.map_batches(hash_clean, batch_format="pyarrow")
        .groupby("clean_hash")
        .aggregate(
            Min("doc_id", alias_name="keep_id"),
            Count(alias_name="n_dups"),
            Min("n_kept", alias_name="n_kept"),
        )
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "clean_hash": b["clean_hash"],
                "keep_id": b["keep_id"].cast(pa.int64()),
                "n_dups": b["n_dups"].cast(pa.int64()),
                "n_kept": b["n_kept"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_CURATION_PIPELINE = r"""
WITH feats AS (
  SELECT doc_id, text,
         len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_words,
         len(regexp_extract_all(lower(text), '\b(the|a|and|of|to|in|is|it|that|for)\b')) AS n_stop
  FROM documents),
kept AS (
  SELECT doc_id, text FROM feats
  WHERE n_words >= 10
    AND CAST(n_stop AS DOUBLE) / greatest(n_words, 1) >= 0.01),
l AS (
  SELECT doc_id,
         unnest(string_split(text, chr(10))) AS line,
         unnest(range(1, len(string_split(text, chr(10))) + 1)) AS line_no
  FROM kept),
win AS (
  SELECT line, min(doc_id * 1048576 + line_no) AS wkey FROM l GROUP BY line),
keptl AS (
  SELECT l.doc_id, l.line_no, l.line
  FROM l JOIN win ON l.line = win.line
   AND l.doc_id * 1048576 + l.line_no = win.wkey),
docs2 AS (
  SELECT doc_id, count(*) AS n_kept,
         string_agg(line, chr(10) ORDER BY line_no) AS clean_text
  FROM keptl GROUP BY doc_id)
SELECT md5(clean_text) AS clean_hash,
       CAST(min(doc_id) AS BIGINT) AS keep_id,
       CAST(count(*) AS BIGINT) AS n_dups,
       CAST(min(n_kept) AS BIGINT) AS n_kept
FROM docs2 GROUP BY clean_hash
"""


def q_dsir_topk(sf_dir: str):
    """DSIR importance selection (Xie et al. 2023): hashed unigram+
    bigram features (md5_number_lower % 1024 — the md5-companion hash
    family), target = lang='en' docs within the corpus, per-feature
    weight the exact-integer cross-multiplication n_t*R - n_r*T, top
    100 most-target-like docs (stages/dsir.py — B-row count table via
    combiner partials, weights broadcast once, per-block top-k)."""
    from ..stages.dsir import dsir_topk

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    return dsir_topk(docs, k=100, target_col="lang", target_val="en")


SQL_DSIR_TOPK = r"""
WITH toks AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS w
  FROM documents),
uni AS (
  SELECT doc_id, lang, w[i] AS g
  FROM toks, UNNEST(generate_series(1, len(w))) AS t(i)
  WHERE len(w) >= 1),
bi AS (
  SELECT doc_id, lang, w[i] || ' ' || w[i+1] AS g
  FROM toks, UNNEST(generate_series(1, len(w) - 1)) AS t(i)
  WHERE len(w) >= 2),
f AS (
  SELECT doc_id, lang,
         CAST(md5_number_lower(g) % 1024 AS BIGINT) AS bucket
  FROM (SELECT * FROM uni UNION ALL SELECT * FROM bi)),
c AS (
  SELECT bucket,
         CAST(count(*) FILTER (WHERE lang = 'en') AS BIGINT) AS n_t,
         CAST(count(*) AS BIGINT) AS n_r
  FROM f GROUP BY bucket),
tot AS (SELECT sum(n_t) AS t_tot, sum(n_r) AS r_tot FROM c),
wt AS (SELECT bucket, n_t * r_tot - n_r * t_tot AS wgt FROM c, tot),
docb AS (
  SELECT doc_id, bucket, CAST(count(*) AS BIGINT) AS cnt
  FROM f GROUP BY doc_id, bucket),
s AS (
  SELECT doc_id, CAST(sum(cnt * wgt) AS BIGINT) AS score
  FROM docb JOIN wt USING (bucket) GROUP BY doc_id)
SELECT doc_id, score FROM s ORDER BY score DESC, doc_id LIMIT 100
"""


def q_index_delta(sf_dir: str):
    """INCREMENTAL index maintenance: the posting-list delta an
    indexer applies when a recrawl lands — build distinct (term,
    doc_id) postings for the old snapshot and the evolved one (same
    deterministic evolution as snapshot_delta: %11==5 vanished, %7==3
    content-changed, %13==1 re-added under a new id) and emit every
    posting present on exactly one side with op in (add, del).
    Scale shape: per-doc distinct terms emit as side-tagged partial
    rows (0/1 per side), ONE groupby((term, doc_id)) sums the sides,
    and unchanged postings — the overwhelming majority — are dropped
    inside the reduce; no full-index rebuild, no driver state."""
    from ray.data.aggregate import Sum

    old = _read(sf_dir, "documents", ["doc_id", "text"])

    def evolve(b: pa.Table) -> pa.Table:
        import numpy as np

        ids = b["doc_id"].cast(pa.int64()).to_numpy()
        kept = b.filter(pa.array(ids % 11 != 5))
        kids = kept["doc_id"].cast(pa.int64()).to_numpy()
        changed = pa.array(kids % 7 == 3)
        text2 = pc.if_else(
            changed,
            pc.binary_join_element_wise(kept["text"], pa.scalar(" v2"), ""),
            kept["text"],
        )
        base = pa.table({"doc_id": pa.array(kids, pa.int64()), "text": text2})
        adds = b.filter(pa.array(ids % 13 == 1))
        extra = pa.table(
            {
                "doc_id": pc.add(
                    adds["doc_id"].cast(pa.int64()),
                    pa.scalar(1000000, pa.int64()),
                ),
                "text": adds["text"],
            }
        )
        return pa.concat_tables([base, extra])

    new = old.map_batches(evolve, batch_format="pyarrow")

    def postings(side: str):
        def f(b: pa.Table) -> pa.Table:
            terms, ids = [], []
            for i, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
                for w in set(ts._VOCAB_RE.findall((t or "").lower())):
                    terms.append(w)
                    ids.append(i)
            n = len(terms)
            return pa.table(
                {
                    "term": pa.array(terms, pa.string()),
                    "doc_id": pa.array(ids, pa.int64()),
                    "o": pa.array([1 if side == "o" else 0] * n, pa.int64()),
                    "n": pa.array([0 if side == "o" else 1] * n, pa.int64()),
                }
            )

        return f

    both = old.map_batches(postings("o"), batch_format="pyarrow").union(
        new.map_batches(postings("n"), batch_format="pyarrow")
    )
    agg = both.groupby(["term", "doc_id"]).aggregate(
        Sum("o", alias_name="o"), Sum("n", alias_name="n")
    )

    def fin(b: pa.Table) -> pa.Table:
        o = b["o"].cast(pa.int64())
        nn = b["n"].cast(pa.int64())
        keep = pc.xor(pc.greater(o, 0), pc.greater(nn, 0))
        t = b.filter(keep)
        op = pc.if_else(
            pc.greater(t["n"].cast(pa.int64()), 0),
            pa.scalar("add"),
            pa.scalar("del"),
        )
        return pa.table(
            {
                "term": t["term"],
                "doc_id": t["doc_id"].cast(pa.int64()),
                "op": op,
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow")


SQL_INDEX_DELTA = r"""
WITH old_p AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
    FROM documents)),
newdocs AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 3 THEN text || ' v2' ELSE text END AS text
  FROM documents WHERE doc_id % 11 <> 5
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents WHERE doc_id % 13 = 1),
new_p AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
    FROM newdocs))
SELECT n.term, CAST(n.doc_id AS BIGINT) AS doc_id, 'add' AS op
FROM new_p n LEFT JOIN old_p o ON o.doc_id = n.doc_id AND o.term = n.term
WHERE o.doc_id IS NULL
UNION ALL
SELECT o.term, CAST(o.doc_id AS BIGINT), 'del'
FROM old_p o LEFT JOIN new_p n ON n.doc_id = o.doc_id AND n.term = o.term
WHERE n.doc_id IS NULL
"""


def q_snapshot_delta(sf_dir: str):
    """Incremental-recrawl delta between two crawl snapshots
    (stages/joins.py:snapshot_delta): old = the documents table; new =
    a deterministic re-crawl of it (doc_id%11==5 vanished, doc_id%7==3
    changed content, doc_id%13==1 re-appeared under a new id). Output
    (doc_id, status in added/changed/deleted/same) — the feed a
    recrawl scheduler consumes. Fingerprints reduce per block, ONE
    groupby(key) merges the sides; payloads never shuffle."""
    from ..stages.joins import snapshot_delta

    old = _read(sf_dir, "documents", ["doc_id", "text"])

    def evolve(b: pa.Table) -> pa.Table:
        import numpy as np

        ids = b["doc_id"].cast(pa.int64()).to_numpy()
        kept = b.filter(pa.array(ids % 11 != 5))
        kids = kept["doc_id"].cast(pa.int64()).to_numpy()
        changed = pa.array(kids % 7 == 3)
        text2 = pc.if_else(
            changed,
            pc.binary_join_element_wise(kept["text"], pa.scalar(" v2"), ""),
            kept["text"],
        )
        base = pa.table({"doc_id": pa.array(kids, pa.int64()), "text": text2})
        adds = b.filter(pa.array(ids % 13 == 1))
        extra = pa.table(
            {
                "doc_id": pc.add(adds["doc_id"].cast(pa.int64()),
                                 pa.scalar(1000000, pa.int64())),
                "text": adds["text"],
            }
        )
        return pa.concat_tables([base, extra])

    new = old.map_batches(evolve, batch_format="pyarrow")
    return snapshot_delta(old, new, key_col="doc_id", content_col="text")


SQL_SNAPSHOT_DELTA = """
WITH old AS (SELECT CAST(doc_id AS BIGINT) AS doc_id, text FROM documents),
new AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 3 THEN text || ' v2' ELSE text END AS text
  FROM old WHERE doc_id % 11 <> 5
  UNION ALL
  SELECT doc_id + 1000000, text FROM old WHERE doc_id % 13 = 1)
SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
       CASE WHEN n.doc_id IS NULL THEN 'deleted'
            WHEN o.doc_id IS NULL THEN 'added'
            WHEN md5(o.text) = md5(n.text) THEN 'same'
            ELSE 'changed' END AS status
FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
"""


def q_index_freshness(sf_dir: str):
    """Index freshness/age telemetry (Cho & Garcia-Molina 2003 —
    stages/recrawl.py freshness_metrics): 4 full snapshots under the
    analytic change rule ``doc_id % (t+2) == 0``, refresh schedule
    ``refresh_snap = doc_id % 4``; the engine recovers per-doc
    freshness and age at T=3 purely from content FINGERPRINTS, the
    oracle computes both analytically from the rule (t_c = first
    change after the refresh; age = 3 - t_c). Varied outcomes: docs
    refreshed late are fresh, early-refreshed frequently-changing
    docs age up to 2."""
    from ..stages.recrawl import freshness_metrics

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    k = 4

    def snapshots(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        parts = []
        cum = np.zeros(len(ids), np.int64)
        for t in range(k):
            if t >= 1:
                cum = cum + (ids % (t + 2) == 0)
            content = pc.binary_join_element_wise(
                b["text"].cast(pa.string()),
                pa.array([f" r{c}" for c in cum], pa.string()),
                "",
            )
            parts.append(
                pa.table(
                    {
                        "doc_id": b["doc_id"].cast(pa.int64()),
                        "snap": pa.array(
                            np.full(len(ids), t, np.int64), pa.int64()
                        ),
                        "refresh_snap": pa.array(ids % k, pa.int64()),
                        "content": content,
                    }
                )
            )
        return pa.concat_tables(parts)

    obs = docs.map_batches(snapshots, batch_format="pyarrow")
    return freshness_metrics(obs, n_snaps=k, key_col="doc_id")


SQL_INDEX_FRESHNESS = """
WITH d AS (SELECT CAST(doc_id AS BIGINT) AS doc_id, doc_id % 4 AS r
           FROM documents),
ch AS (SELECT d.doc_id, t.t
       FROM d, (SELECT unnest([1, 2, 3]) AS t) t
       WHERE d.doc_id % (t.t + 2) = 0),
tc AS (SELECT d.doc_id, min(ch.t) AS t_c
       FROM d LEFT JOIN ch ON ch.doc_id = d.doc_id AND ch.t > d.r
       GROUP BY d.doc_id)
SELECT d.doc_id, CAST(d.r AS BIGINT) AS refresh_snap,
       (tc.t_c IS NULL) AS fresh,
       CAST(coalesce(3 - tc.t_c, 0) AS BIGINT) AS age
FROM d JOIN tc ON tc.doc_id = d.doc_id
"""


def q_recrawl_priority(sf_dir: str):
    """Adaptive recrawl scheduling (stages/recrawl.py — Cho &
    Garcia-Molina frequency-greedy, exact ints): 4 deterministic
    snapshots of the documents table, change rule
    ``doc_id % (t+2) == 0`` — change counts vary 0..3 across the
    corpus (content gains a ' r<cum>'
    suffix per change), with observation gaps (doc_id%23==7 missing
    from snapshot 1, doc_id%19==3 gone by snapshot 3). The scheduler
    sees only (key, snap, content) rows and recovers the change
    statistics from content FINGERPRINTS; the oracle computes them
    analytically from the rule. Top 200 recrawlable keys by
    (priority DESC, doc_id)."""
    from ..stages.recrawl import recrawl_priorities

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    k = 4

    def snapshots(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        parts = []
        cum = np.zeros(len(ids), np.int64)
        for t in range(k):
            if t >= 1:
                cum = cum + (ids % (t + 2) == 0)
            present = np.ones(len(ids), bool)
            if t == 1:
                present &= ids % 23 != 7
            if t == k - 1:
                present &= ids % 19 != 3
            keep = np.flatnonzero(present)
            sub = b.take(pa.array(keep, pa.int64()))
            content = pc.binary_join_element_wise(
                sub["text"].cast(pa.string()),
                pa.array([f" r{c}" for c in cum[keep]], pa.string()),
                "",
            )
            parts.append(
                pa.table(
                    {
                        "doc_id": sub["doc_id"].cast(pa.int64()),
                        "snap": pa.array(
                            np.full(len(keep), t, np.int64), pa.int64()
                        ),
                        "content": content,
                    }
                )
            )
        return pa.concat_tables(parts)

    obs = docs.map_batches(snapshots, batch_format="pyarrow")
    pri = recrawl_priorities(obs, n_snaps=k, key_col="doc_id")

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(b["present"])
        return b.select(
            ["doc_id", "n_obs", "n_changes", "last_changed", "staleness",
             "priority"]
        )

    return (
        pri.map_batches(finish, batch_format="pyarrow")
        .sort(["priority", "doc_id"], descending=[True, False])
        .limit(200)
    )


SQL_RECRAWL_PRIORITY = """
WITH d AS (SELECT CAST(doc_id AS BIGINT) AS doc_id FROM documents),
pairs AS (
  SELECT doc_id, t,
         CASE WHEN doc_id % (t + 2) = 0 THEN 1 ELSE 0 END AS chg,
         CASE WHEN t IN (1, 2) THEN (doc_id % 23 <> 7)
              WHEN t = 3 THEN (doc_id % 19 <> 3)
         END AS pair_ok
  FROM d, UNNEST([1, 2, 3]) AS s(t)),
agg AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN pair_ok THEN chg ELSE 0 END) AS BIGINT)
           AS n_changes,
         CAST(max(CASE WHEN pair_ok AND chg = 1 THEN t ELSE 0 END) AS BIGINT)
           AS last_changed
  FROM pairs GROUP BY doc_id)
SELECT a.doc_id,
       CAST(4 - (CASE WHEN a.doc_id % 23 = 7 THEN 1 ELSE 0 END)
              - (CASE WHEN a.doc_id % 19 = 3 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_obs,
       a.n_changes, a.last_changed,
       3 - a.last_changed AS staleness,
       a.n_changes * 4 + (3 - a.last_changed) AS priority
FROM agg a
WHERE a.doc_id % 19 <> 3
ORDER BY priority DESC, a.doc_id
LIMIT 200
"""


def _condget_v2_corpus(sf_dir: str) -> str:
    """Second-visit snapshot of the single-site corpus for the
    conditional-GET gate: pages with md5_number_lower(url) % 3 == 0
    gain a comment suffix (content changed; links untouched so the
    schedule is identical), everything else is byte-identical."""

    def make_pages() -> pa.Table:
        import pyarrow.dataset as pads

        from ..stages.dedup import _md5_u64_lower

        t = pads.dataset(pages_corpus_dir(sf_dir), format="parquet").to_table()
        htmls = [
            (h or b"") + b"<!-- v2 -->" if _md5_u64_lower(u) % 3 == 0 else h
            for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist())
        ]
        return t.set_column(
            t.schema.get_field_index("html"), "html", pa.array(htmls, pa.binary())
        )

    return _pages_corpus(f"{sf_dir}|condget2", make_pages)


def q_crawl_conditional_get(sf_dir: str):
    """Conditional-GET revisit (RFC 9110 If-None-Match / Heritrix
    duplicate-reduction): pass 1 crawls the corpus and keeps a
    fingerprint store of every fetched payload; all TTLs lapse
    (Frontier.expire on the cuckoo seen-front — same machinery as
    crawl_ttl_recrawl); pass 2 re-crawls the SECOND-visit snapshot and
    every re-fetch is classified against the store — unchanged digest
    -> 304 (no re-extract, the archive keeps its copy), changed -> 200.
    Links are unchanged so both schedules are the same BFS, and the
    oracle states pass-2 statuses analytically from the planted
    md5(url) % 3 change rule. Returns (pass, url, depth, status)."""
    from ..stages.dedup import _md5_u64_lower  # noqa: F401 (rule doc)
    from .crawl import CrawlConfig, Frontier, pages_expand, run_frontier

    corpus = pages_corpus_dir(sf_dir)
    v2 = _condget_v2_corpus(sf_dir)
    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16, mode="cuckoo")
    frontier = Frontier(cfg)
    try:
        r1 = run_frontier(
            pages_expand(corpus, cfg, None, 0), [seed], cfg, frontier=frontier
        )
        fetched = r1.order["url"].to_pylist()
        frontier.expire(fetched)
        r2 = run_frontier(
            pages_expand(v2, cfg, None, 0), [seed], cfg, frontier=frontier
        )
    finally:
        frontier.release()

    # fingerprint stores: one distributed pass per snapshot (fetch IS
    # the corpus semi-join in this engine); gate-scale dict broadcast,
    # the 100 TB path is a partitioned url join of the two fp tables
    def fp_rows(b: pa.Table) -> pa.Table:
        fps = [
            int.from_bytes(hashlib.md5(h or b"").digest()[8:], "little")
            - (1 << 63)
            for h in b["html"].to_pylist()
        ]
        return pa.table({"url": b["url"], "fp": pa.array(fps, pa.int64())})

    def fp_dict(path: str) -> dict:
        d: dict = {}
        for b in (
            ray.data.read_parquet(path, columns=["url", "html"])
            .map_batches(fp_rows, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        ):
            d.update(zip(b["url"].to_pylist(), b["fp"].to_pylist()))
        return d

    fp1, fp2 = fp_dict(corpus), fp_dict(v2)

    def rows(res, p: int, status_of) -> pa.Table:
        t = res.order
        urls = t["url"].to_pylist()
        return pa.table(
            {
                "pass": pa.array([p] * t.num_rows, pa.int32()),
                "url": t["url"],
                "depth": t["depth"],
                "status": pa.array([status_of(u) for u in urls], pa.string()),
            }
        )

    return pa.concat_tables(
        [
            rows(r1, 1, lambda u: "200"),
            rows(r2, 2, lambda u: "304" if fp2[u] == fp1[u] else "200"),
        ]
    )


SQL_CRAWL_CONDITIONAL_GET = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6),
reach AS (SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url)
SELECT CAST(1 AS INTEGER) AS pass, url, depth, '200' AS status FROM reach
UNION ALL
SELECT 2, url, depth,
       CASE WHEN md5_number_lower(url) % 3 = 0 THEN '200' ELSE '304' END
FROM reach
"""
)


def q_crawl_recrawl_scheduled(sf_dir: str):
    """Recrawl-scheduled crawl: the adaptive scheduler's priorities
    drive the frontier. Four synthetic snapshots of the MULTI-host
    corpus evolve by ``md5_number_lower(url) % (t+2) == 0`` (html
    gains a byte suffix per change); fingerprinting is FUSED into the
    snapshot synthesis (fp_col path — snapshot payloads never exist as
    a column), stages/recrawl.py turns fingerprints into priorities,
    and the crawl fetches in (depth, -priority, url) order under a
    9/round global cap — the same score_desc machinery as the
    in-degree crawl. Oracle = the capped round simulation ranking by
    the analytically-computed priorities."""
    import ray.data as _rd

    from ..stages.dsir import _md5_u64_lower
    from ..stages.recrawl import recrawl_priorities
    from .crawl import CrawlConfig, run_crawl

    corpus = multihost_corpus_dir(sf_dir)
    k = 4

    def snapshot_fps(b: pa.Table) -> pa.Table:
        urls = b["url"].to_pylist()
        htmls = b["html"].to_pylist()
        u64 = np.array([_md5_u64_lower(u) for u in urls], np.uint64)
        parts = []
        cum = np.zeros(len(urls), np.int64)
        for t in range(k):
            if t >= 1:
                cum = cum + (u64 % np.uint64(t + 2) == 0)
            fps = np.empty(len(urls), np.int64)
            for i, (h, c) in enumerate(zip(htmls, cum)):
                fps[i] = int.from_bytes(
                    hashlib.md5((h or b"") + b" r%d" % c).digest()[:8],
                    "big",
                    signed=True,
                )
            parts.append(
                pa.table(
                    {
                        "url": b["url"],
                        "snap": pa.array(
                            np.full(len(urls), t, np.int64), pa.int64()
                        ),
                        "fp": pa.array(fps, pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    obs = _rd.read_parquet(corpus, columns=["url", "html"]).map_batches(
        snapshot_fps, batch_format="pyarrow"
    )
    pri = recrawl_priorities(obs, n_snaps=k, key_col="url", fp_col="fp")
    # dimension-sized fold at gate scale; at 10^10 the score table
    # stays a Dataset and feeds the per-shard slices shard-wise
    scores = {r["url"]: int(r["priority"]) for r in pri.iter_rows()}
    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        round_limit=9,
        priority="score_desc",
        priority_scores=scores,
    )
    res = run_crawl(corpus, [_mh_seed(sf_dir)], cfg)
    return res.order


SQL_CRAWL_RECRAWL_SCHEDULED = (
    "WITH RECURSIVE "
    + _SQL_MH_CTE.replace("WITH ", "", 1)
    + """,
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
chg AS (
  SELECT url, t,
         CASE WHEN md5_number_lower(url) % (t + 2) = 0 THEN 1 ELSE 0 END
           AS c
  FROM pg, UNNEST([1, 2, 3]) AS s(t)),
score AS (
  SELECT url,
         CAST(sum(c) * 4 + (3 - max(CASE WHEN c = 1 THEN t ELSE 0 END))
              AS BIGINT) AS c
  FROM chg GROUP BY url),
sim(round, url, depth, done) AS (
  SELECT 0 AS round, url, CAST(0 AS INTEGER) AS depth, FALSE AS done
  FROM pg WHERE doc_id = 0
  UNION ALL
  (
  WITH prev AS (SELECT * FROM sim),
  pending AS (SELECT url, depth FROM prev WHERE NOT done),
  ranked AS (SELECT p.url, p.depth,
                    (SELECT count(*) FROM pending q
                     LEFT JOIN score iq ON iq.url = q.url
                     WHERE (q.depth, -coalesce(iq.c, 0), q.url)
                           <= (p.depth, -coalesce(ip.c, 0), p.url)) AS rn
             FROM pending p LEFT JOIN score ip ON ip.url = p.url),
  sel AS (SELECT url, depth FROM ranked WHERE rn <= 9),
  disc AS (SELECT e.dst AS url, min(s.depth + 1) AS ddepth
           FROM sel s JOIN edges e ON e.src = s.url GROUP BY e.dst),
  kids AS (SELECT d.url, d.ddepth AS depth FROM disc d
           WHERE d.ddepth <= 6
             AND NOT EXISTS (SELECT 1 FROM prev p WHERE p.url = d.url)),
  nstate AS (
    SELECT p.url,
           CASE WHEN p.done OR p.url IN (SELECT url FROM sel) THEN p.depth
                ELSE least(p.depth, coalesce(d.ddepth, p.depth)) END AS depth,
           (p.done OR p.url IN (SELECT url FROM sel)) AS done
    FROM prev p LEFT JOIN disc d ON d.url = p.url
    UNION ALL
    SELECT k.url, k.depth, FALSE FROM kids k)
  SELECT r0.round + 1, n.url, CAST(n.depth AS INTEGER), n.done
  FROM nstate n, (SELECT max(round) AS round FROM prev) r0
  WHERE EXISTS (SELECT 1 FROM pending) AND r0.round < 96
  )
)
SELECT CAST(min(round) - 1 AS INTEGER) AS round, depth, url
FROM sim WHERE done
GROUP BY depth, url
"""
)


def q_host_budgets(sf_dir: str):
    """Crawl-budget apportionment (stages/apportion.py — largest
    remainder / Hare quota, exact ints): split a 1000-fetch cycle
    budget across hosts (documents.source as the host key)
    proportionally to frontier share. Distributed remainder ranking
    via the scan.py prefix rank; sum(budget) == 1000 exactly."""
    from ..stages.apportion import apportion_budgets

    counts = (
        _read(sf_dir, "documents", ["source"])
        .map_batches(
            lambda b: pa.table({"host": b["source"]}), batch_format="pyarrow"
        )
        .groupby("host")
        .aggregate(Count(alias_name="n"))
    )
    return apportion_budgets(counts, 1000).sort("host")


SQL_HOST_BUDGETS = """
WITH c AS (SELECT source AS host, CAST(count(*) AS BIGINT) AS n
           FROM documents GROUP BY source),
tot AS (SELECT CAST(sum(n) AS BIGINT) AS nt FROM c),
q AS (SELECT host, n, (1000 * n) // nt AS fl, (1000 * n) % nt AS rem
      FROM c, tot),
lo AS (SELECT CAST(1000 - sum(fl) AS BIGINT) AS r FROM q),
rk AS (SELECT host, n, fl,
              row_number() OVER (ORDER BY rem DESC, host) AS rn
       FROM q)
SELECT rk.host, rk.n,
       CAST(rk.fl + CASE WHEN rk.rn <= lo.r THEN 1 ELSE 0 END AS BIGINT)
         AS budget
FROM rk, lo
ORDER BY host
"""


def q_surt_index(sf_dir: str):
    """CDX-style URL index over the multi-host corpus: every page
    keyed by its SURT (functions/urls.py:surt — host labels reversed
    so a domain's pages sort contiguously), globally sorted. At scale
    the sort IS the index build: range partitioning by SURT prefix
    gives per-domain scannable parquet parts (write_parquet per sorted
    block); the gate checks the first 300 index entries."""
    import ray.data as _rd

    from ..functions.urls import surt as _surt

    corpus = multihost_corpus_dir(sf_dir)

    def key(b: pa.Table) -> pa.Table:
        urls = b["url"].to_pylist()
        return pa.table(
            {
                "surt": pa.array([_surt(u) for u in urls], pa.string()),
                "url": b["url"],
            }
        )

    return (
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(key, batch_format="pyarrow")
        .sort(["surt", "url"])
        .limit(300)
    )


SQL_SURT_INDEX = (
    _SQL_MH_CTE
    + """
SELECT array_to_string(list_reverse(string_split(host, '.')), ',')
         || ')/' || substr(url, 7 + length(host) + 2) AS surt,
       url
FROM pg
ORDER BY surt, url
LIMIT 300
"""
)


def q_warc_roundtrip(sf_dir: str):
    """WARC sink/source fidelity (sources/warc.py): write the
    multi-host corpus as Common-Crawl-style gzip-member WARC parts,
    read them back, and diff payloads against the source through
    snapshot_delta — a lost/corrupted/missing record surfaces as a
    non-'same' status and fails the hash gate. Oracle: every corpus
    url, status 'same'."""
    import shutil

    import ray.data as _rd

    from ..sources.warc import read_warc, write_warc
    from ..stages.joins import snapshot_delta

    corpus = multihost_corpus_dir(sf_dir)
    pages = _rd.read_parquet(corpus, columns=["url", "warc_ts", "html"])
    tag = hashlib.blake2b(f"warc|{sf_dir}".encode(), digest_size=6).hexdigest()
    out = f"/tmp/louis_warc_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    write_warc(pages, out, gzip=True)
    back = read_warc(out)
    return snapshot_delta(
        pages, back, key_col="url", content_col="html"
    ).sort("url")


SQL_WARC_ROUNDTRIP = (
    _SQL_MH_CTE
    + """
SELECT url, 'same' AS status FROM pg ORDER BY url
"""
)


def q_warc_revisit(sf_dir: str):
    """WARC payload-digest deduplication (ISO 28500 'revisit' records —
    the Wayback/CDX convention that makes multi-crawl archives
    affordable): plant a second capture 1000 s later for doc_id%3==0
    (IDENTICAL body -> must become a revisit pointing at the first
    capture) and doc_id%3==1 (appended comment -> digest differs, a
    full response), round-trip ALL captures through the gzip WARC
    sink/source, then classify from the read-back bytes. The oracle
    reasons per planted arm, so a digest computed over the wrong bytes,
    a lost gzip member, or a first-capture tie-break error all
    hash-mismatch."""
    import shutil

    import ray.data as _rd

    from ..sources.warc import read_warc, revisit_classify, write_warc

    corpus = multihost_corpus_dir(sf_dir)
    pages = _rd.read_parquet(corpus, columns=["url", "warc_ts", "html"])
    delta_us = 1_000_000_000

    def plant(b: pa.Table) -> pa.Table:
        us = b["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_pylist()
        urls, tss, htmls = [], [], []
        for u, t, h in zip(b["url"].to_pylist(), us, b["html"].to_pylist()):
            d = int(u.rsplit("doc", 1)[1])
            urls.append(u)
            tss.append(t)
            htmls.append(h)
            if d % 3 == 0:
                urls.append(u)
                tss.append(t + delta_us)
                htmls.append(h)
            elif d % 3 == 1:
                urls.append(u)
                tss.append(t + delta_us)
                htmls.append(h + b"<!-- updated -->")
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.int64()).cast(pa.timestamp("us")),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    captures = pages.map_batches(plant, batch_format="pyarrow")
    tag = hashlib.blake2b(f"warc_rv|{sf_dir}".encode(), digest_size=6).hexdigest()
    out = f"/tmp/louis_warc_rv_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    write_warc(captures, out, gzip=True)
    return revisit_classify(read_warc(out))


SQL_WARC_REVISIT = (
    _SQL_MH_CTE
    + """,
caps AS (
  SELECT url,
         CAST(1700000000000000 + doc_id * 1000000 AS BIGINT) AS ts_us,
         'response' AS record_type, CAST(0 AS BIGINT) AS refers_to_us
  FROM pg
  UNION ALL
  SELECT url, 1700000000000000 + doc_id * 1000000 + 1000000000,
         CASE WHEN doc_id % 3 = 0 THEN 'revisit' ELSE 'response' END,
         CASE WHEN doc_id % 3 = 0
              THEN 1700000000000000 + doc_id * 1000000 ELSE 0 END
  FROM pg WHERE doc_id % 3 IN (0, 1))
SELECT url, ts_us, record_type, refers_to_us FROM caps
"""
)


def q_wat_export(sf_dir: str):
    """WAT export (Common Crawl's metadata-JSON artifact,
    sources/warc.py write_wat/read_wat): the extract kernel's
    (url, title, links) run through WARC ``metadata`` records
    (deterministic sorted-keys JSON envelope, WARC-Refers-To, gzip
    members, content-hashed idempotent parts) and read BACK — the
    returned rows are the re-parsed records, so extraction, the JSON
    envelope, the framing and the parser sit under one hash. Oracle
    reconstructs title and the M2-filtered outlinks arithmetically."""
    import shutil

    from ..sources.warc import read_wat, write_wat

    items = _extracted_items(sf_dir).select_columns(["url", "title", "links"])
    tag = hashlib.blake2b(f"wat|{sf_dir}".encode(), digest_size=6).hexdigest()
    out = f"/tmp/louis_wat_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    write_wat(items, out, gzip=True)
    back = read_wat(out)

    def fin(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": b["url"],
                "title": b["title"],
                "links_csv": pa.array(
                    [",".join(ls) for ls in b["links"].to_pylist()], pa.string()
                ),
            }
        )

    return back.map_batches(fin, batch_format="pyarrow").sort("url")


SQL_WAT_EXPORT = (
    _SQL_PAGE_CTE
    + f"""
SELECT url, title,
       '{SITE}' || c1_path || ',' || '{SITE}' || c2_path || ','
         || '{SITE}' || c1_path AS links_csv
FROM pg
ORDER BY url
"""
)


_WET_TAG_RE = re.compile(r"<[^>]*>")
_WET_WS_RE = re.compile(r"\s+")


def q_wet_export(sf_dir: str):
    """WET export (Common Crawl's extracted-plain-text artifact,
    sources/warc.py write_wet/read_wet): the pages corpus runs through
    the REAL goldie extract kernel, the cleaned html is converted to
    plain text (tag strip + whitespace normalize), written as WARC
    ``conversion`` records (text/plain, WARC-Refers-To, gzip members,
    content-hashed idempotent parts) and read BACK — the returned rows
    are the re-parsed records, so extraction, the text conversion, the
    WET framing and the parser are all under one hash. Oracle:
    reconstructs the expected plain text arithmetically from the same
    corpus construction the extract-parity oracles pin."""
    import shutil

    from ..sources.warc import read_wet, write_wet

    items = _extracted_items(sf_dir)

    def to_text(b: pa.Table) -> pa.Table:
        texts = [
            _WET_WS_RE.sub(" ", _WET_TAG_RE.sub(" ", h or "")).strip()
            for h in b["html_content"].to_pylist()
        ]
        return pa.table({"url": b["url"], "text": pa.array(texts, pa.string())})

    txt = items.select_columns(["url", "html_content"]).map_batches(
        to_text, batch_format="pyarrow"
    )
    tag = hashlib.blake2b(f"wet|{sf_dir}".encode(), digest_size=6).hexdigest()
    out = f"/tmp/louis_wet_{tag}"
    shutil.rmtree(out, ignore_errors=True)
    write_wet(txt, out, gzip=True)
    return read_wet(out).select_columns(["url", "text"]).sort("url")


SQL_WET_EXPORT = (
    _SQL_PAGE_CTE
    + r"""
SELECT url,
       trim(regexp_replace(regexp_replace(
         '<html><body><main class="container"><h1>' || title || '</h1><p>' || body
         || '</p><time>' || pdate || '</time><a href="' || c1_path || '">next</a><a href="'
         || c2_path || '">more</a><a href="#top">top</a><a href="mailto:info@example.ca">mail</a>'
         || '<a href="/files/report.pdf">pdf</a><a href="' || c1_path || '?ref=nav">dup</a></main></body></html>',
         '<[^>]*>', ' ', 'g'), '\s+', ' ', 'g')) AS text
FROM pg
ORDER BY url
"""
)


def q_crawl_from_warc(sf_dir: str):
    """Archive-replay crawl (the wayback workflow: re-run a crawl from
    a WARC archive instead of the live web): the pages corpus is
    exported as gzip-member WARC, read BACK through the distributed
    WARC parser into a replay corpus, and the full frontier engine
    crawls THAT — the schedule must be bit-identical to the live
    crawl's, so any loss or reorder in the archive hop changes
    (url, depth) rows and fails the same recursive-BFS oracle as
    crawl_pages_bfs."""
    import shutil

    import ray.data as _rd

    from ..sources.warc import read_warc, write_warc
    from .crawl import CrawlConfig, run_crawl

    def build(tmp: str) -> None:
        # the archive is private to this build, removed once read back
        warc_dir = os.path.join(tmp, "_warc")
        pages = _rd.read_parquet(
            pages_corpus_dir(sf_dir), columns=["url", "warc_ts", "html"]
        )
        write_warc(pages, warc_dir, gzip=True)
        read_warc(warc_dir).write_parquet(tmp)
        shutil.rmtree(warc_dir)

    tag = hashlib.blake2b(f"replay|{sf_dir}".encode(), digest_size=6).hexdigest()
    replay_dir = build_once(f"/tmp/louis_replay_pages_{tag}", build)
    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16)
    res = run_crawl(replay_dir, [seed], cfg)
    return res.order.select(["url", "depth"])


def q_sitemap_seeds(sf_dir: str):
    """Sitemap ingestion (sources/sitemaps.py): one sitemaps.org
    ``<urlset>`` document synthesized per corpus host (lastmod =
    2024-01-01 + doc_id%365 days), parsed back distributed into
    (url, lastmod) seed rows. Group-to-document happens in ONE
    groupby(host).map_groups (a sitemap is host-sized and protocol-
    capped at 50k urls); the parse is a stateless flat map."""
    import datetime as _dt

    import ray.data as _rd

    from ..sources.sitemaps import sitemap_seeds

    corpus = multihost_corpus_dir(sf_dir)
    base = _dt.date(2024, 1, 1)

    def build_xml(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("url")
        parts = ['<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">']
        for u, d in zip(g["url"], g["doc_id"]):
            lastmod = (base + _dt.timedelta(days=int(d) % 365)).isoformat()
            parts.append(
                f"<url><loc>{u}</loc><lastmod>{lastmod}</lastmod></url>"
            )
        parts.append("</urlset>")
        return pd.DataFrame(
            {"host": [g["host"].iloc[0]], "xml": ["".join(parts)]}
        )

    sitemaps = (
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(_host_rows, batch_format="pyarrow")
        .groupby("host")
        .map_groups(build_xml, batch_format="pandas")
    )
    return (
        sitemap_seeds(sitemaps)
        .select_columns(["url", "lastmod"])
        .sort("url")
    )


SQL_SITEMAP_SEEDS = (
    _SQL_MH_CTE
    + """
SELECT url,
       strftime(DATE '2024-01-01' + (doc_id % 365) * INTERVAL 1 DAY,
                '%Y-%m-%d') AS lastmod
FROM pg
ORDER BY url
"""
)


def q_sitemap_priority_crawl(sf_dir: str):
    """THREE-subsystem interaction gate: sitemaps.org ``<priority>``
    values drive the fetch schedule. Per-host sitemaps carry
    deterministic priorities ((doc_id*37) %% 101 scaled to 0.xx), the
    distributed sitemap parse resolves them into the integer score map
    (priority_scores_from_seeds), and a score_desc crawl seeded with
    EVERY sitemap URL at depth 0 (max_depth=0: the sitemap already
    lists the whole site — pure fetch scheduling, no expansion) drains
    per-host top-3 by (-score, url). The oracle is closed-form: round
    = (per-host rank by priority desc, url - 1) / 3 — no recursion,
    the schedule IS a ranked batching."""
    import datetime as _dt

    import ray.data as _rd

    from ..sources.sitemaps import priority_scores_from_seeds, sitemap_seeds
    from .crawl import CrawlConfig, run_crawl

    corpus = multihost_corpus_dir(sf_dir)
    base = _dt.date(2024, 1, 1)

    def build_xml(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("url")
        parts = ['<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">']
        for u, d in zip(g["url"], g["doc_id"]):
            lastmod = (base + _dt.timedelta(days=int(d) % 365)).isoformat()
            prio = ((int(d) * 37) % 101) / 100
            parts.append(
                f"<url><loc>{u}</loc><lastmod>{lastmod}</lastmod>"
                f"<priority>{prio:.2f}</priority></url>"
            )
        parts.append("</urlset>")
        return pd.DataFrame(
            {"host": [g["host"].iloc[0]], "xml": ["".join(parts)]}
        )

    seeds = sitemap_seeds(
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(_host_rows, batch_format="pyarrow")
        .groupby("host")
        .map_groups(build_xml, batch_format="pandas")
    )
    scores = priority_scores_from_seeds(seeds)
    cfg = CrawlConfig(
        n_shards=4,
        max_depth=0,
        max_rounds=128,
        per_host_budget=3,
        priority="score_desc",
        priority_scores=scores,
    )
    res = run_crawl(corpus, sorted(scores), cfg)
    return res.order


SQL_SITEMAP_PRIORITY_CRAWL = (
    _SQL_MH_CTE
    + """
SELECT CAST((row_number() OVER (
           PARTITION BY host
           ORDER BY ((doc_id * 37) % 101) DESC, url) - 1) // 3
       AS INTEGER) AS round,
       CAST(0 AS INTEGER) AS depth, url
FROM pg
"""
)


# one wildcard-heavy robots.txt served identically by every fixture
# host; the leading otherbot group proves RFC group selection skips
# stanzas addressed to someone else
ROBOTS_WILDCARD_TXT = """\
User-agent: otherbot
Disallow: /

User-agent: louis
Disallow: /en/
Allow: /en/src1
Disallow: /en/src14$
Disallow: /en/src15/
Allow: /*/src7/doc1
Disallow: /*/src7/
Disallow: /*3$
Disallow: /*/src2/
Allow: /zh/src2/
Disallow: /de/src9/
Allow: /de/src9/
"""


class _RobotsWildcardEval:
    """Actor-pool stage: the RFC 9309 rule group compiles ONCE per
    actor (sorted by precedence), then every batch is a pure
    path-match loop."""

    def __init__(self):
        from ..functions.robots import Rfc9309Matcher

        self.m = Rfc9309Matcher(ROBOTS_WILDCARD_TXT, "louis")

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        return pa.table(
            {
                "url": batch["url"],
                "allowed": pa.array(
                    [
                        self.m.allowed(
                            "/" + u.split("//", 1)[1].split("/", 1)[1]
                        )
                        for u in urls
                    ],
                    pa.bool_(),
                ),
            }
        )


def q_robots_wildcards(sf_dir: str):
    """RFC 9309 robots semantics under the exact gate: '*'/'$'
    wildcards, longest-pattern-wins, Allow beats Disallow on ties,
    group selection by product token — everything stdlib robotparser
    (the default RobotsCache mode) gets wrong. A wildcard-heavy rule
    set evaluates against every multihost-corpus URL; the oracle
    re-derives each verdict in SQL (patterns translate 1:1 to LIKE,
    precedence = hardcoded pattern octet lengths). Planted
    interactions: an Allow re-opening a Disallowed subtree, an
    anchored rule that matches nothing (the '$' saves deeper paths),
    a wildcard Disallow pierced by a longer Allow, a suffix-anchor
    Disallow ('/*3$'), and an equal-length Allow/Disallow tie the
    Allow must win."""
    ds = ray.data.read_parquet(
        multihost_corpus_dir(sf_dir), columns=["url"]
    )
    return ds.map_batches(
        _RobotsWildcardEval, concurrency=2, batch_format="pyarrow"
    )


SQL_ROBOTS_WILDCARDS = """
WITH base AS (
  SELECT doc_id, (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END) AS seg,
         source
  FROM documents),
p AS (
  SELECT 'http://h' || (doc_id % 7) || '.example.ca/' || seg || '/'
             || source || '/doc' || doc_id AS url,
         '/' || seg || '/' || source || '/doc' || doc_id AS path
  FROM base),
rules(directive, plen, pat) AS (VALUES
  ('dis', 4, '/en/%'),
  ('alw', 8, '/en/src1%'),
  ('dis', 10, '/en/src14'),
  ('dis', 10, '/en/src15/%'),
  ('alw', 12, '/%/src7/doc1%'),
  ('dis', 8, '/%/src7/%'),
  ('dis', 4, '/%3'),
  ('dis', 8, '/%/src2/%'),
  ('alw', 9, '/zh/src2/%'),
  ('dis', 9, '/de/src9/%'),
  ('alw', 9, '/de/src9/%')),
m AS (SELECT p.url, r.directive, r.plen
      FROM p JOIN rules r ON p.path LIKE r.pat),
w AS (SELECT url, max(plen) AS mp FROM m GROUP BY url),
dec AS (SELECT w.url,
               max(CASE WHEN m.directive = 'alw' AND m.plen = w.mp
                        THEN 1 ELSE 0 END) AS alw
        FROM w JOIN m ON m.url = w.url GROUP BY w.url)
SELECT p.url, coalesce(dec.alw = 1, TRUE) AS allowed
FROM p LEFT JOIN dec ON dec.url = p.url
"""


# milder wildcard set for the CRAWL composition gate: the matrix
# gate's '/en/' + '/*3$' blanket rules fragment the binary-link graph
# down to ~15 reachable URLs — these keep reachability high while
# still exercising every RFC mechanism inside admission (wildcard
# Disallow pierced by a longer Allow, an equal-length tie, a plain
# subtree block)
ROBOTS_CRAWL_TXT = """\
User-agent: otherbot
Disallow: /

User-agent: louis
Allow: /*/src7/doc1
Disallow: /*/src7/
Disallow: /*/src2/
Allow: /zh/src2/
Disallow: /de/src9/
Allow: /de/src9/
Disallow: /en/src15/
"""


def q_crawl_robots_rfc(sf_dir: str):
    """The RFC 9309 matcher inside the DISTRIBUTED admission path: a
    wildcard rule set served by every multihost fixture host, obeyed
    with robots_matcher='rfc9309' — disallowed candidates quarantine
    at enqueue inside the owning shard, so blocked subtrees are
    reachable only through allowed paths. The oracle is the recursive
    walk restricted to the LIKE-re-derived allowed set (same
    translation as robots_wildcards, now composed with BFS
    reachability)."""
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=16,
        robots_txt_by_host={
            f"h{k}.example.ca": ROBOTS_CRAWL_TXT for k in range(_MH_HOSTS)
        },
        obey_robots=True,
        robots_matcher="rfc9309",
    )
    res = run_crawl(multihost_corpus_dir(sf_dir), [_mh_seed(sf_dir)], cfg)
    assert res.counts["errored"] > 0, "wildcard quarantine must fire"
    return res.order.select(["url", "depth"])


SQL_CRAWL_ROBOTS_RFC = """
WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
base AS (
  SELECT doc_id, lang, source,
         (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END) AS seg,
         'http://h' || (doc_id % 7) || '.example.ca' AS origin
  FROM documents),
pg AS (
  SELECT d.doc_id,
         d.origin || '/' || d.seg || '/' || d.source || '/doc' || d.doc_id AS url,
         '/' || d.seg || '/' || d.source || '/doc' || d.doc_id AS path,
         c1.origin || '/' || c1.seg || '/' || c1.source || '/doc' || c1.doc_id AS c1_url,
         c2.origin || '/' || c2.seg || '/' || c2.source || '/doc' || c2.doc_id AS c2_url
  FROM base d, nn
  JOIN base c1 ON c1.doc_id = (2 * d.doc_id + 1) % nn.n
  JOIN base c2 ON c2.doc_id = (2 * d.doc_id + 2) % nn.n),
rules(directive, plen, pat) AS (VALUES
  ('alw', 12, '/%/src7/doc1%'),
  ('dis', 8, '/%/src7/%'),
  ('dis', 8, '/%/src2/%'),
  ('alw', 9, '/zh/src2/%'),
  ('dis', 9, '/de/src9/%'),
  ('alw', 9, '/de/src9/%'),
  ('dis', 10, '/en/src15/%')),
m AS (SELECT pg.url, r.directive, r.plen
      FROM pg JOIN rules r ON pg.path LIKE r.pat),
w AS (SELECT url, max(plen) AS mp FROM m GROUP BY url),
dec AS (SELECT w.url,
               max(CASE WHEN m.directive = 'alw' AND m.plen = w.mp
                        THEN 1 ELSE 0 END) AS alw
        FROM w JOIN m ON m.url = w.url GROUP BY w.url),
alwd AS (SELECT pg.url FROM pg LEFT JOIN dec ON dec.url = pg.url
         WHERE coalesce(dec.alw = 1, TRUE)),
edges AS (
  SELECT url AS src, c1_url AS dst FROM pg
  UNION ALL SELECT url, c2_url FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, wk.depth + 1
  FROM walk wk JOIN edges e ON e.src = wk.url
  WHERE wk.depth < 6 AND e.dst IN (SELECT url FROM alwd))
SELECT url, CAST(min(depth) AS INTEGER) AS depth FROM walk GROUP BY url
"""


def q_url_normalize(sf_dir: str):
    """Full URL canonicalization under the exact gate
    (functions/urls.py canonicalize_url — w3lib/RFC 3986 semantics,
    the dedup key layer ABOVE the reference's fix_vhost): six noise
    transforms applied deterministically to every corpus URL
    (uppercased scheme+host with a default :80 port, /./ and /zz/../
    dot-segments, a %64 percent-encoded unreserved octet, a fragment,
    unsorted query params) must all collapse back to the canonical
    form — which the oracle constructs directly from the document
    arithmetic, so a normalizer that under- or over-rewrites
    hash-mismatches."""
    ds = ray.data.read_parquet(
        multihost_corpus_dir(sf_dir), columns=["url"]
    )

    def noisify(batch: pa.Table) -> pa.Table:
        from ..functions.urls import canonicalize_url

        noisy_out: list[str] = []
        canon_out: list[str] = []
        for u in batch["url"].to_pylist():
            base, _, tail = u.partition(".example.ca")
            base += ".example.ca"
            path = tail
            d = int(u.rsplit("doc", 1)[1])
            case = d % 6
            if case == 0:
                noisy = base.upper() + ":80" + path
            elif case == 1:
                noisy = base + "/." + path
            elif case == 2:
                noisy = base + "/zz/.." + path
            elif case == 3:
                noisy = base + path.replace("/doc", "/%64oc")
            elif case == 4:
                noisy = u + f"#sec{d}"
            else:
                noisy = u + "?b=2&a=1"
            noisy_out.append(noisy)
            canon_out.append(canonicalize_url(noisy))
        return pa.table(
            {
                "noisy_url": pa.array(noisy_out, pa.string()),
                "url": pa.array(canon_out, pa.string()),
            }
        )

    return ds.map_batches(noisify, batch_format="pyarrow")


SQL_URL_NORMALIZE = """
WITH base AS (
  SELECT doc_id, (CASE WHEN lang = 'fr' THEN 'fra' ELSE lang END) AS seg,
         source
  FROM documents),
p AS (
  SELECT doc_id,
         'http://h' || (doc_id % 7) || '.example.ca' AS origin,
         '/' || seg || '/' || source || '/doc' || doc_id AS path
  FROM base)
SELECT CASE doc_id % 6
         WHEN 0 THEN 'HTTP://H' || (doc_id % 7) || '.EXAMPLE.CA:80' || path
         WHEN 1 THEN origin || '/.' || path
         WHEN 2 THEN origin || '/zz/..' || path
         WHEN 3 THEN origin || replace(path, '/doc', '/%64oc')
         WHEN 4 THEN origin || path || '#sec' || doc_id
         ELSE origin || path || '?b=2&a=1'
       END AS noisy_url,
       origin || path
         || (CASE WHEN doc_id % 6 = 5 THEN '?a=1&b=2' ELSE '' END) AS url
FROM p
"""


def q_boilerplate_strip(sf_dir: str):
    """Within-host boilerplate/template removal (the nav/footer
    stripping step of C4/CCNet-style cleaning, stages/dedup.py
    boilerplate_strip): a deterministic template overlay assigns each
    doc to one of 7 hosts and plants a nav line + footer line (every
    doc of the host), a 2/3-frequency seasonal line, and a 1/11
    promo line; the >= 1/2 frequency rule must strip exactly nav,
    footer and seasonal while promo and the body survive. Exercises
    both sides of the threshold. Oracle: identical line-frequency
    arithmetic in SQL (count distinct docs per host-line, 2c >= n,
    filtered string_agg reassembly)."""
    from ..stages.dedup import boilerplate_strip

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def synth(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        txts = b["text"].to_pylist()
        hosts, fulls = [], []
        for d, t in zip(ids, txts):
            h = f"h{d % 7}"
            lines = [f"nav home about contact {h}"]
            if d % 3 in (0, 1):
                lines.append(f"season sale {h}")
            if d % 11 == 0:
                lines.append(f"promo banner {d}")
            lines.append(t or "")
            lines.append(f"footer terms privacy {h}")
            hosts.append(h)
            fulls.append("\n".join(lines))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "host": pa.array(hosts, pa.string()),
                "text": pa.array(fulls, pa.string()),
            }
        )

    full = docs.map_batches(synth, batch_format="pyarrow")
    return boilerplate_strip(full)


SQL_BOILERPLATE_STRIP = r"""
WITH t AS (
  SELECT doc_id, 'h' || (doc_id % 7) AS host,
         'nav home about contact h' || (doc_id % 7)
         || CASE WHEN doc_id % 3 IN (0, 1)
                 THEN chr(10) || 'season sale h' || (doc_id % 7) ELSE '' END
         || CASE WHEN doc_id % 11 = 0
                 THEN chr(10) || 'promo banner ' || doc_id ELSE '' END
         || chr(10) || text
         || chr(10) || 'footer terms privacy h' || (doc_id % 7) AS doc_full
  FROM documents),
ls AS (SELECT doc_id, host, string_split(doc_full, chr(10)) AS arr FROM t),
lines AS (SELECT doc_id, host, unnest(arr) AS line,
                 unnest(range(1, len(arr) + 1)) AS pos FROM ls),
freq AS (SELECT host, line, count(DISTINCT doc_id) AS c
         FROM lines GROUP BY host, line),
tot AS (SELECT host, count(*) AS n FROM t GROUP BY host),
fl AS (SELECT f.host, f.line FROM freq f
       JOIN tot ON tot.host = f.host WHERE 2 * f.c >= tot.n)
SELECT CAST(l.doc_id AS BIGINT) AS doc_id,
       CAST(count(*) FILTER (WHERE fl.line IS NOT NULL) AS BIGINT) AS n_removed,
       string_agg(l.line, chr(10) ORDER BY l.pos)
         FILTER (WHERE fl.line IS NULL) AS clean_text
FROM lines l LEFT JOIN fl ON fl.host = l.host AND fl.line = l.line
GROUP BY l.doc_id
"""


def q_lexical_near_pairs(sf_dir: str):
    """Lexical near-dup pairs under the EXACT gate: hashed term-count
    vectors (md5_number_lower feature hashing, 64 buckets) and the
    cosine >= 0.95 test cross-multiplied into int64 — the
    feature-based companion to the embedding-cosine near-dup suite
    (these vectors mean something: shared vocabulary, not random
    floats). Oracle recomputes the same bucketed counts and integer
    inequality in SQL."""
    from ..stages.dedup import lexical_near_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return lexical_near_pairs(docs, th_num=95, th_den=100)


SQL_LEXICAL_NEAR_PAIRS = r"""
WITH w AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
  FROM documents),
b AS (SELECT doc_id, md5_number_lower(w) % 64 AS bkt, count(*) AS c
      FROM w GROUP BY doc_id, bkt),
n AS (SELECT doc_id, SUM(c * c) AS nsq FROM b GROUP BY doc_id),
g AS (SELECT a.doc_id AS doc_a, b2.doc_id AS doc_b, SUM(a.c * b2.c) AS dot
      FROM b a JOIN b b2 ON a.bkt = b2.bkt AND a.doc_id < b2.doc_id
      GROUP BY 1, 2)
SELECT CAST(g.doc_a AS BIGINT) AS doc_a, CAST(g.doc_b AS BIGINT) AS doc_b,
       CAST(g.dot AS BIGINT) AS dot,
       CAST(na.nsq AS BIGINT) AS normsq_a, CAST(nb.nsq AS BIGINT) AS normsq_b
FROM g JOIN n na ON na.doc_id = g.doc_a JOIN n nb ON nb.doc_id = g.doc_b
WHERE 100 * 100 * g.dot * g.dot >= 95 * 95 * na.nsq * nb.nsq
"""


_CMS_TERMS = ("merge", "scan", "window", "spark", "zzzabsent")


def q_cms_term_counts(sf_dir: str):
    """Count-Min sketch term frequencies (Cormode & Muthukrishnan
    2005) — the FULLY ORACLED sketch: counter updates are commutative
    int64 adds (layout-invariant) and the row-salted buckets use the
    md5_number_lower parity mapping, so DuckDB recomputes the exact
    estimates including collision inflation (the absent probe term
    pins it: its est is whatever mass collides into its buckets, not
    0). Per-block word Counters -> one sketch per block -> fan-in tree
    merge -> point queries at the root."""
    from ..stages.sketches import cms_term_counts

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return cms_term_counts(docs, "text", list(_CMS_TERMS), depth=3, width=512)


SQL_CMS_TERM_COUNTS = (
    """
WITH w AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
  FROM documents),
wc AS (SELECT w, count(*) AS c FROM w GROUP BY w),
q(term) AS (VALUES """
    + ", ".join(f"('{t}')" for t in _CMS_TERMS)
    + """),
rws AS (
  SELECT q.term, r.i,
         coalesce((SELECT sum(wc.c) FROM wc
                   WHERE md5_number_lower(r.i || '|' || wc.w) % 512
                       = md5_number_lower(r.i || '|' || q.term) % 512), 0) AS s
  FROM q, (SELECT unnest([0, 1, 2]) AS i) r)
SELECT term, CAST(min(s) AS BIGINT) AS est FROM rws GROUP BY term
"""
)


def q_hll_md5_distinct(sf_dir: str):
    """HyperLogLog distinct users per event type — the FULLY ORACLED
    HLL (companion to the blake2b `approx_distinct_users` rows-only
    path and the oracled CMS): registers keep the lowest-set-bit of
    the md5-parity value hash (max-merge ≡ leading-zero rank), the
    harmonic sum is an exact scaled integer, and est_raw is one IEEE
    division — DuckDB recomputes every register and the estimate
    bit-for-bit. exact_distinct rides along for sketch-vs-truth."""
    from ..stages.sketches import hll_md5_distinct

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    return hll_md5_distinct(ev, "event_type", "user_id")


def _hll_md5_sql() -> str:
    from ..stages.sketches import HLL_MD5_C, HLL_MD5_M, HLL_MD5_VCAP

    return f"""
WITH h AS (
  SELECT event_type,
         md5_number_lower(CAST(user_id AS VARCHAR)) AS h
  FROM events),
b AS (
  SELECT event_type, CAST(h % {HLL_MD5_M} AS BIGINT) AS j,
         CAST((h // {HLL_MD5_M}) % {HLL_MD5_VCAP} AS BIGINT) AS v
  FROM h),
lb AS (
  SELECT event_type, j,
         CASE WHEN v = 0 THEN {HLL_MD5_VCAP} ELSE v & (-v) END AS r
  FROM b),
regs AS (
  SELECT event_type, j, max(r) AS reg FROM lb GROUP BY event_type, j),
grid AS (
  SELECT g.event_type, t.j
  FROM (SELECT DISTINCT event_type FROM events) g,
       (SELECT unnest(generate_series(0, {HLL_MD5_M - 1})) AS j) t),
fregs AS (
  SELECT grid.event_type, grid.j, coalesce(regs.reg, 0) AS reg
  FROM grid LEFT JOIN regs
    ON regs.event_type = grid.event_type AND regs.j = grid.j),
sk AS (
  SELECT event_type,
         CAST(sum(CASE WHEN reg > 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS nonzero_regs,
         CAST(sum(CASE WHEN reg = 0 THEN {2 * HLL_MD5_VCAP}
                       ELSE {2 * HLL_MD5_VCAP} // (2 * reg) END) AS BIGINT)
           AS harmonic_denom
  FROM fregs GROUP BY event_type),
ex AS (
  SELECT event_type, count(DISTINCT user_id) AS exact_distinct
  FROM events GROUP BY event_type)
SELECT sk.event_type, sk.nonzero_regs, sk.harmonic_denom,
       {HLL_MD5_C!r} / sk.harmonic_denom AS est_raw,
       ex.exact_distinct
FROM sk JOIN ex ON ex.event_type = sk.event_type
"""


SQL_HLL_MD5_DISTINCT = _hll_md5_sql()


def q_idn_hosts(sf_dir: str):
    """IDN host normalization under the exact gate (functions/urls.py
    idna_host — RFC 3490 ToASCII, label by label): five deterministic
    host shapes per doc_id exercise Latin-diacritic, Cyrillic,
    pure-ASCII case-fold and trailing-dot cases; the oracle hardcodes
    the expected punycode per arm (known-answer — a kernel that
    re-encodes ASCII, misses case folding, or mangles multi-label
    hosts hash-mismatches)."""
    from ..functions.urls import idna_host

    ds = _read(sf_dir, "documents", ["doc_id"])

    def build(batch: pa.Table) -> pa.Table:
        ids, hosts, ascii_hosts = [], [], []
        for d in batch["doc_id"].to_pylist():
            case = d % 5
            if case == 0:
                h = f"a{d}.bücher.example.ca"
            elif case == 1:
                h = f"b{d}.müller.co.uk"
            elif case == 2:
                h = f"c{d}.пример.com"
            elif case == 3:
                h = f"D{d}.MiXeD.Example.COM"
            else:
                h = f"e{d}.façade.on.ca."
            ids.append(d)
            hosts.append(h)
            ascii_hosts.append(idna_host(h))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "host": pa.array(hosts, pa.string()),
                "ascii_host": pa.array(ascii_hosts, pa.string()),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow")


SQL_IDN_HOSTS = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CASE doc_id % 5
         WHEN 0 THEN 'a' || doc_id || '.bücher.example.ca'
         WHEN 1 THEN 'b' || doc_id || '.müller.co.uk'
         WHEN 2 THEN 'c' || doc_id || '.пример.com'
         WHEN 3 THEN 'D' || doc_id || '.MiXeD.Example.COM'
         ELSE 'e' || doc_id || '.façade.on.ca.'
       END AS host,
       CASE doc_id % 5
         WHEN 0 THEN 'a' || doc_id || '.xn--bcher-kva.example.ca'
         WHEN 1 THEN 'b' || doc_id || '.xn--mller-kva.co.uk'
         WHEN 2 THEN 'c' || doc_id || '.xn--e1afmkfd.com'
         WHEN 3 THEN 'd' || doc_id || '.mixed.example.com'
         ELSE 'e' || doc_id || '.xn--faade-zra.on.ca'
       END AS ascii_host
FROM documents
"""


def q_mime_sniff(sf_dir: str):
    """Payload routing under the exact gate: eight deterministic body
    shapes per doc_id (pdf/png magic, html with a legacy meta charset,
    bare html, BOM'd json, rss xml, latin-1 text, utf-16le text)
    through the REAL sniffing kernels (functions/mime.py — WHATWG
    magic-byte patterns, BOM > meta > utf-8-probe charset order); the
    oracle hardcodes the expected (mime, charset) per arm, so a kernel
    that mis-orders BOM vs meta, forgets case-folding, or trusts a
    wrong prefix hash-mismatches. Binary types carry charset = ''."""
    from ..functions.mime import sniff_charset, sniff_mime

    ds = _read(sf_dir, "documents", ["doc_id"])
    _TEXTY = (
        "text/html",
        "text/plain",
        "text/xml",
        "application/json",
        "application/rss+xml",
        "application/atom+xml",
    )

    def build(batch: pa.Table) -> pa.Table:
        ids, mimes, charsets = [], [], []
        for d in batch["doc_id"].to_pylist():
            case = d % 8
            if case == 0:
                body = b"%PDF-1.4\n%% doc " + str(d).encode()
            elif case == 1:
                body = b"\x89PNG\r\n\x1a\n" + str(d).encode()
            elif case == 2:
                body = (
                    b'<!DOCTYPE html><html><head><meta charset="ISO-8859-1">'
                    b"</head><body>doc " + str(d).encode() + b"</body></html>"
                )
            elif case == 3:
                body = b"  <html><body>doc " + str(d).encode() + b"</body></html>"
            elif case == 4:
                body = b"\xef\xbb\xbf" + ('{"doc": %d}' % d).encode()
            elif case == 5:
                body = (
                    b'<?xml version="1.0"?><rss version="2.0"><channel>doc '
                    + str(d).encode()
                    + b"</channel></rss>"
                )
            elif case == 6:
                body = ("caf\xe9 doc %d" % d).encode("latin-1")
            else:
                body = b"\xff\xfe" + ("doc %d" % d).encode("utf-16le")
            mime = sniff_mime(body)
            ids.append(d)
            mimes.append(mime)
            charsets.append(sniff_charset(body) if mime in _TEXTY else "")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "mime": pa.array(mimes, pa.string()),
                "charset": pa.array(charsets, pa.string()),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow")


SQL_MIME_SNIFF = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CASE doc_id % 8
         WHEN 0 THEN 'application/pdf'
         WHEN 1 THEN 'image/png'
         WHEN 2 THEN 'text/html'
         WHEN 3 THEN 'text/html'
         WHEN 4 THEN 'application/json'
         WHEN 5 THEN 'application/rss+xml'
         ELSE 'text/plain'
       END AS mime,
       CASE doc_id % 8
         WHEN 0 THEN ''
         WHEN 1 THEN ''
         WHEN 2 THEN 'iso-8859-1'
         WHEN 6 THEN 'windows-1252'
         WHEN 7 THEN 'utf-16le'
         ELSE 'utf-8'
       END AS charset
FROM documents
"""


def q_curation_v2(sf_dir: str):
    """Modern-pipeline composition under ONE oracle: the planted
    template overlay -> within-host boilerplate_strip (>= 1/2
    line-frequency rule) -> Gopher quality rules computed on the
    CLEANED text. Both stages are the SAME code paths as their
    standalone oracled queries — this gates the composition: the strip
    pass's reassembled text feeds the exact-integer rule features, so
    an off-by-one in line reassembly flips downstream keep flags."""
    from ..stages.dedup import boilerplate_strip

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def synth(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        txts = b["text"].to_pylist()
        hosts, fulls = [], []
        for d, t in zip(ids, txts):
            h = f"h{d % 7}"
            lines = [f"nav home about contact {h}"]
            if d % 3 in (0, 1):
                lines.append(f"season sale {h}")
            if d % 11 == 0:
                lines.append(f"promo banner {d}")
            lines.append(t or "")
            lines.append(f"footer terms privacy {h}")
            hosts.append(h)
            fulls.append("\n".join(lines))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "host": pa.array(hosts, pa.string()),
                "text": pa.array(fulls, pa.string()),
            }
        )

    clean = boilerplate_strip(docs.map_batches(synth, batch_format="pyarrow"))
    renamed = clean.map_batches(
        lambda b: pa.table(
            {"doc_id": b["doc_id"].cast(pa.int64()), "text": b["clean_text"]}
        ),
        batch_format="pyarrow",
    )
    return renamed.map_batches(ts.gopher_quality_batch, batch_format="pyarrow")


# composed oracle: the boilerplate query's full SQL becomes a CTE whose
# clean_text feeds the Gopher feature arithmetic verbatim
SQL_CURATION_V2 = (
    "WITH cleaned AS ("
    + SQL_BOILERPLATE_STRIP
    + r"""),
f AS (
  SELECT doc_id,
         len(regexp_extract_all(clean_text, '\S+')) AS n_words,
         length(regexp_replace(clean_text, '\s', '', 'g')) AS n_word_chars,
         len(regexp_extract_all(clean_text, '#|\.\.\.|…')) AS n_sym,
         len(string_split(clean_text, chr(10))) AS n_lines,
         len(regexp_extract_all(clean_text, '(?m)^[ \t]*[-*•]')) AS n_bullet,
         len(regexp_extract_all(clean_text, '(?m)(\.\.\.|…)$')) AS n_ellipsis,
         len(regexp_extract_all(clean_text, '\S*[A-Za-z]\S*')) AS n_alpha_words,
         len(list_distinct(regexp_extract_all(lower(clean_text),
             '\b(the|be|to|of|and|that|have|with)\b'))) AS n_stop_distinct
  FROM cleaned)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_words AS BIGINT) AS n_words,
       CAST(n_word_chars AS BIGINT) AS n_word_chars,
       CAST(n_sym AS BIGINT) AS n_sym,
       CAST(n_lines AS BIGINT) AS n_lines,
       CAST(n_bullet AS BIGINT) AS n_bullet,
       CAST(n_ellipsis AS BIGINT) AS n_ellipsis,
       CAST(n_alpha_words AS BIGINT) AS n_alpha_words,
       CAST(n_stop_distinct AS BIGINT) AS n_stop_distinct,
       (n_words BETWEEN 50 AND 100000
        AND 3 * n_words <= n_word_chars AND n_word_chars <= 10 * n_words
        AND 10 * n_sym < n_words
        AND 10 * n_bullet < 9 * n_lines
        AND 10 * n_ellipsis < 3 * n_lines
        AND 10 * n_alpha_words >= 8 * n_words
        AND n_stop_distinct >= 2) AS keep
FROM f
"""
)


def q_registered_domains(sf_dir: str):
    """Registered-domain (eTLD+1) extraction under the exact gate
    (functions/urls.py registered_domain — the publicsuffix.org
    ALGORITHM over an embedded rule subset). Six deterministic host
    shapes per doc_id exercise every rule class: plain TLD, two-label
    suffix (co.uk), second-level country suffix (on.ca), a wildcard
    rule (*.ck — the whole 3-label host is registrable), an exception
    rule (!www.ck — www.ck is registrable under the bare ck), and an
    unknown TLD falling to the default '*' rule. The oracle constructs
    the expected answers arithmetically, so a kernel that misorders
    exception/longest-match/default precedence hash-mismatches."""
    from ..functions.urls import registered_domain

    ds = _read(sf_dir, "documents", ["doc_id"])

    def build(batch: pa.Table) -> pa.Table:
        hosts, regs, ids = [], [], []
        for d in batch["doc_id"].to_pylist():
            case = d % 6
            if case == 0:
                h = f"w{d}.site{d}.com"
            elif case == 1:
                h = f"x{d}.y{d}.co.uk"
            elif case == 2:
                h = f"a{d}.b{d}.on.ca"
            elif case == 3:
                h = f"p{d}.q{d}.ck"
            elif case == 4:
                h = f"s{d}.www.ck"
            else:
                h = f"m{d}.n{d}.zz"
            ids.append(d)
            hosts.append(h)
            regs.append(registered_domain(h))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "host": pa.array(hosts, pa.string()),
                "reg_domain": pa.array(regs, pa.string()),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow")


SQL_REGISTERED_DOMAINS = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CASE doc_id % 6
         WHEN 0 THEN 'w' || doc_id || '.site' || doc_id || '.com'
         WHEN 1 THEN 'x' || doc_id || '.y' || doc_id || '.co.uk'
         WHEN 2 THEN 'a' || doc_id || '.b' || doc_id || '.on.ca'
         WHEN 3 THEN 'p' || doc_id || '.q' || doc_id || '.ck'
         WHEN 4 THEN 's' || doc_id || '.www.ck'
         ELSE 'm' || doc_id || '.n' || doc_id || '.zz'
       END AS host,
       CASE doc_id % 6
         WHEN 0 THEN 'site' || doc_id || '.com'
         WHEN 1 THEN 'y' || doc_id || '.co.uk'
         WHEN 2 THEN 'b' || doc_id || '.on.ca'
         WHEN 3 THEN 'p' || doc_id || '.q' || doc_id || '.ck'
         WHEN 4 THEN 'www.ck'
         ELSE 'n' || doc_id || '.zz'
       END AS reg_domain
FROM documents
"""


def q_host_graph(sf_dir: str):
    """Host-level webgraph rollup (the artifact Common Crawl publishes
    as its host/domain graph releases): parse every page's html with
    the extract kernel, dedup links per page (M3 order-preserving
    rule), roll (src_host, dst_host) up with per-block Counter
    partials — the groupby shuffle carries distinct host pairs per
    block, never page-level edges — and drop intra-host self-loops.
    n_links counts distinct page-level links per host pair."""
    import collections

    import ray.data as _rd

    corpus = multihost_corpus_dir(sf_dir)

    def pair_partial(b: pa.Table) -> pa.Table:
        items = extract_batch(b)
        counts: collections.Counter = collections.Counter()
        for src, links in zip(
            items["url"].to_pylist(), items["links"].to_pylist()
        ):
            sh = src.split("//", 1)[1].split("/", 1)[0]
            for dst in dict.fromkeys(links):
                dh = dst.split("//", 1)[1].split("/", 1)[0]
                if dh != sh:
                    counts[(sh, dh)] += 1
        return pa.table(
            {
                "src_host": pa.array([k[0] for k in counts], pa.string()),
                "dst_host": pa.array([k[1] for k in counts], pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return (
        _rd.read_parquet(corpus, columns=["url", "html"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n", alias_name="n_links"))
        .sort(["src_host", "dst_host"])
    )


SQL_HOST_GRAPH = (
    _SQL_MH_CTE
    + """,
edges AS (
  SELECT DISTINCT url AS src, host AS src_host, c1_url AS dst FROM pg
  UNION
  SELECT DISTINCT url, host, c2_url FROM pg)
SELECT src_host,
       regexp_extract(dst, '^http://([^/]+)', 1) AS dst_host,
       CAST(count(*) AS BIGINT) AS n_links
FROM edges
WHERE regexp_extract(dst, '^http://([^/]+)', 1) <> src_host
GROUP BY src_host, dst_host
ORDER BY src_host, dst_host
"""
)


def _mh_int_graph(sf_dir: str):
    """(edges, nodes, pages) of the multihost corpus as an int64 page
    graph: node id = the docN suffix, edges from the REAL extract path
    (html -> link extraction -> per-page ordered dedup). String node
    keys turned a gate-scale BFS into minutes of string-key shuffles —
    graph algorithms run on int ids, the url mapping re-attaches at
    the edge of the pipeline."""
    import ray.data as _rd

    corpus = multihost_corpus_dir(sf_dir)
    pages = _rd.read_parquet(corpus, columns=["url", "html"])

    def _uid(u: str) -> int:
        return int(u.rsplit("doc", 1)[1])

    def edge_rows(b: pa.Table) -> pa.Table:
        items = extract_batch(b)
        srcs, dsts = [], []
        for src, links in zip(
            items["url"].to_pylist(), items["links"].to_pylist()
        ):
            sid = _uid(src)
            for dst in dict.fromkeys(links):
                srcs.append(sid)
                dsts.append(_uid(dst))
        return pa.table(
            {
                "src": pa.array(srcs, pa.int64()),
                "dst": pa.array(dsts, pa.int64()),
            }
        )

    edges = pages.map_batches(edge_rows, batch_format="pyarrow")
    nodes = pages.map_batches(
        lambda b: pa.table(
            {
                "node": pa.array(
                    [_uid(u) for u in b["url"].to_pylist()], pa.int64()
                )
            }
        ),
        batch_format="pyarrow",
    )
    return edges, nodes, pages


def q_harmonic_centrality(sf_dir: str):
    """Harmonic centrality of every page in the multihost corpus
    (Boldi & Vigna 2014; the Common Crawl host-ranking metric), over
    the REAL extract path: corpus html -> link extraction -> directed
    page graph -> frontier-delta multi-source BFS -> exact scaled-int
    1/d sums (scale = lcm(1..15) = 360360, depth-capped at 15 to match
    the bounded recursive-CTE oracle)."""
    import ray.data as _rd

    from ..stages.graph import harmonic_centrality

    edges, nodes, pages = _mh_int_graph(sf_dir)
    out = harmonic_centrality(edges, nodes, max_depth=15, scale=360360)

    def _uid(u: str) -> int:
        return int(u.rsplit("doc", 1)[1])
    # map node ids back to urls: the (id, url) side is one row per
    # page — broadcast once (the 100 TB version shuffle-joins it)
    id2url_ref = ray.put(
        {
            _uid(u): u
            for b in pages.select_columns(["url"]).iter_batches(
                batch_format="pyarrow"
            )
            for u in b["url"].to_pylist()
        }
    )

    def attach_url(b: pa.Table) -> pa.Table:
        id2url = ray.get(id2url_ref)
        return pa.table(
            {
                "url": pa.array(
                    [id2url[int(n)] for n in b["node"].to_pylist()], pa.string()
                ),
                "harmonic_num": b["harmonic_num"],
                "reachable": b["reachable"],
            }
        )

    return out.map_batches(attach_url, batch_format="pyarrow")


SQL_HARMONIC_CENTRALITY = (
    _SQL_MH_CTE.replace("WITH nn AS", "WITH RECURSIVE nn AS", 1)
    + """,
edges AS (
  SELECT DISTINCT url AS src, c1_url AS dst FROM pg
  UNION
  SELECT url, c2_url FROM pg),
reach(root, node, d) AS (
  SELECT url, url, 0 FROM pg
  UNION
  SELECT r.root, e.dst, r.d + 1
  FROM reach r JOIN edges e ON e.src = r.node
  WHERE r.d < 15),
md AS (SELECT root, node, min(d) AS d FROM reach GROUP BY root, node)
SELECT pg.url,
       CAST(coalesce(s.hnum, 0) AS BIGINT) AS harmonic_num,
       CAST(coalesce(s.nreach, 0) AS BIGINT) AS reachable
FROM pg LEFT JOIN (
  SELECT node, sum(360360 // d) AS hnum, count(*) AS nreach
  FROM md WHERE d > 0 GROUP BY node) s ON s.node = pg.url
"""
)


def q_hyperball_md5(sf_dir: str):
    """HyperBall ball-cardinality sketches |B(u, 4)| over the multihost
    page graph — HLL counters flowing ALONG THE EDGES (Boldi & Vigna
    2013), the page-graph-scale companion to harmonic_centrality's
    exact BFS: one groupby(node, j).Max register round per hop, md5
    registers so DuckDB recomputes every register from the exact
    recursive ball and the estimate from the same single division."""
    from ..stages.graph import hyperball_md5

    edges, nodes, _ = _mh_int_graph(sf_dir)
    return hyperball_md5(edges, nodes, rounds=4)


def _hyperball_sql() -> str:
    from ..stages.graph import HYPERBALL_C, HYPERBALL_M, HYPERBALL_VCAP

    m, cap = HYPERBALL_M, HYPERBALL_VCAP
    return f"""
WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
edges AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS dst
  FROM documents, nn
  UNION
  SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn),
vs AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
reach(root, node, t) AS (
  SELECT v, v, 0 FROM vs
  UNION
  SELECT r.root, e.dst, r.t + 1
  FROM reach r JOIN edges e ON e.src = r.node
  WHERE r.t < 4),
ball AS (SELECT DISTINCT root, node FROM reach),
hv AS (
  SELECT root, md5_number_lower(CAST(node AS VARCHAR)) AS h FROM ball),
bb AS (
  SELECT root, CAST(h % {m} AS BIGINT) AS j,
         CAST((h // {m}) % {cap} AS BIGINT) AS v
  FROM hv),
lb AS (
  SELECT root, j,
         CASE WHEN v = 0 THEN {cap} ELSE v & (-v) END AS r
  FROM bb),
regs AS (SELECT root, j, max(r) AS reg FROM lb GROUP BY root, j),
grid AS (
  SELECT vs.v AS root, t.j
  FROM vs, (SELECT unnest(generate_series(0, {m - 1})) AS j) t),
fregs AS (
  SELECT grid.root, grid.j, coalesce(regs.reg, 0) AS reg
  FROM grid LEFT JOIN regs
    ON regs.root = grid.root AND regs.j = grid.j),
sk AS (
  SELECT root,
         CAST(sum(CASE WHEN reg > 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS nonzero_regs,
         CAST(sum(CASE WHEN reg = 0 THEN {2 * cap}
                       ELSE {2 * cap} // (2 * reg) END) AS BIGINT)
           AS harmonic_denom
  FROM fregs GROUP BY root)
SELECT root AS node, nonzero_regs, harmonic_denom,
       {HYPERBALL_C!r} / harmonic_denom AS est_raw
FROM sk
"""


SQL_HYPERBALL_MD5 = _hyperball_sql()


def q_triangle_counts(sf_dir: str):
    """Per-node triangle counts (clustering-coefficient numerator)
    over the symmetrized multihost page graph plus planted sibling
    edges ((2d+1, 2d+2) for d % 25 == 0 — the raw heap graph closes
    almost no triangles, so the planted wedge-closures make the gate
    discriminating). Node-iterator counting against one broadcast
    sorted CSR; the oracle enumerates ordered triangles with a 3-way
    self-join and folds membership per node."""
    from ..stages.graph import triangle_counts

    edges, nodes, _ = _mh_int_graph(sf_dir)
    n = _docs_table(sf_dir).num_rows

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 25 == 0]
        return pa.table(
            {
                "src": pa.array((2 * ids + 1) % n),
                "dst": pa.array((2 * ids + 2) % n),
            }
        )

    sib = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return triangle_counts(edges.union(sib), nodes)


SQL_TRIANGLE_COUNTS = """
WITH nn AS (SELECT count(*) AS n FROM documents),
dir AS (
  SELECT CAST(doc_id AS BIGINT) AS s,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS d
  FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn
  UNION ALL
  SELECT (2 * doc_id + 1) % nn.n, (2 * doc_id + 2) % nn.n
  FROM documents, nn WHERE doc_id % 25 = 0),
und AS (
  SELECT DISTINCT s AS x, d AS y FROM dir WHERE s <> d
  UNION
  SELECT d, s FROM dir WHERE s <> d),
tri AS (
  SELECT e1.x AS a, e1.y AS b, e2.y AS c
  FROM und e1
  JOIN und e2 ON e2.x = e1.y
  JOIN und e3 ON e3.x = e1.x AND e3.y = e2.y
  WHERE e1.x < e1.y AND e1.y < e2.y),
mem AS (
  SELECT a AS v FROM tri
  UNION ALL SELECT b FROM tri
  UNION ALL SELECT c FROM tri),
cnt AS (SELECT v, count(*) AS t FROM mem GROUP BY v)
SELECT CAST(d.doc_id AS BIGINT) AS node,
       CAST(coalesce(cnt.t, 0) AS BIGINT) AS triangles
FROM documents d LEFT JOIN cnt ON cnt.v = d.doc_id
"""


def q_bowtie_components(sf_dir: str):
    """Bowtie decomposition of the web graph (Broder et al. 2000 —
    the SCC/IN/OUT/tendril structure every crawl-coverage analysis
    cites), over the multihost page graph with planted structure:
    dropping all out-edges of doc_id%5==0 pages makes sinks (OUT),
    dropping in-edges into (2d+k)%n % 7 == 3 targets makes
    source-only pages (IN), their overlap goes isolated (tendril).
    SCC ids are min-mutual-reachable labels from per-root fwd+bwd
    BFS against broadcast CSRs; classes are relative to the giant
    SCC. The oracle rebuilds the same filtered edge set and the full
    bounded closure in SQL."""
    from ..stages.graph import bowtie_components

    edges, nodes, _ = _mh_int_graph(sf_dir)

    def prune(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        keep = (s % 5 != 0) & (d % 7 != 3)
        return b.filter(pa.array(keep))

    return bowtie_components(
        edges.map_batches(prune, batch_format="pyarrow"), nodes, max_depth=16
    )


SQL_BOWTIE_COMPONENTS = """
WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
edges AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS dst
  FROM documents, nn
  WHERE doc_id % 5 <> 0 AND ((2 * doc_id + 1) % nn.n) % 7 <> 3
  UNION
  SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn
  WHERE doc_id % 5 <> 0 AND ((2 * doc_id + 2) % nn.n) % 7 <> 3),
vs AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
fwd(root, node, t) AS (
  SELECT v, v, 0 FROM vs
  UNION
  SELECT r.root, e.dst, r.t + 1
  FROM fwd r JOIN edges e ON e.src = r.node
  WHERE r.t < 16),
fr AS (SELECT DISTINCT root, node FROM fwd),
mutual AS (
  SELECT a.root AS u, a.node AS w
  FROM fr a JOIN fr b ON b.root = a.node AND b.node = a.root),
scc AS (SELECT u AS node, min(w) AS scc_id FROM mutual GROUP BY u),
giant AS (
  SELECT scc_id FROM (
    SELECT scc_id, count(*) AS n FROM scc GROUP BY scc_id)
  ORDER BY n DESC, scc_id LIMIT 1),
gset AS (SELECT node FROM scc WHERE scc_id = (SELECT scc_id FROM giant))
SELECT scc.node, scc.scc_id,
       CASE
         WHEN scc.scc_id = (SELECT scc_id FROM giant) THEN 'scc'
         WHEN EXISTS (SELECT 1 FROM fr WHERE fr.root = scc.node
                        AND fr.node IN (SELECT node FROM gset)) THEN 'in'
         WHEN EXISTS (SELECT 1 FROM fr WHERE fr.node = scc.node
                        AND fr.root IN (SELECT node FROM gset)) THEN 'out'
         ELSE 'tendril'
       END AS bowtie_class
FROM scc
"""


def q_shingle_containment(sf_dir: str):
    """Asymmetric containment near-dup under the exact gate (Broder
    1997's containment coefficient — the subset-duplication signal
    symmetric Jaccard dilutes): every doc_id % 17 == 0 document gains
    a planted SUPERSET twin (same text + a tail) at doc_id + 100000;
    the detector must flag containment(original -> twin) = 1 in that
    direction ONLY (the twin's own tail shingles keep the reverse
    below 0.9). Oracle: identical 5-shingle sets, intersection self-
    join and per-direction cross-multiplied test in SQL."""
    from ..stages.dedup import containment_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        txts = b["text"].to_pylist()
        out_i, out_t = [], []
        for i, t in zip(ids, txts):
            out_i.append(i)
            out_t.append(t)
            if i % 17 == 0:
                out_i.append(i + 100000)
                out_t.append((t or "") + " tail alpha beta gamma tail")
        return pa.table(
            {
                "doc_id": pa.array(out_i, pa.int64()),
                "text": pa.array(out_t, pa.string()),
            }
        )

    return containment_pairs(
        docs.map_batches(plant, batch_format="pyarrow"), num=9, den=10
    )


SQL_SHINGLE_CONTAINMENT = r"""
WITH d AS (
  SELECT doc_id, lower(text) AS t FROM documents
  UNION ALL
  SELECT doc_id + 100000, lower(text) || ' tail alpha beta gamma tail'
  FROM documents WHERE doc_id % 17 = 0),
w AS (SELECT doc_id, regexp_extract_all(t, '[a-z0-9]+') AS ws FROM d),
sh AS (SELECT DISTINCT doc_id,
         unnest(ws[1:len(ws)-4]) || ' ' || unnest(ws[2:len(ws)-3]) || ' ' ||
         unnest(ws[3:len(ws)-2]) || ' ' || unnest(ws[4:len(ws)-1]) || ' ' ||
         unnest(ws[5:len(ws)]) AS s
       FROM w WHERE len(ws) >= 5),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT CAST(i.doc_a AS BIGINT) AS doc_a, CAST(i.doc_b AS BIGINT) AS doc_b,
       CAST(i.inter AS BIGINT) AS inter,
       CAST(sa.n AS BIGINT) AS size_a, CAST(sb.n AS BIGINT) AS size_b,
       (10 * i.inter >= 9 * sa.n) AS contains_ab,
       (10 * i.inter >= 9 * sb.n) AS contains_ba
FROM inter i JOIN sz sa ON sa.doc_id = i.doc_a JOIN sz sb ON sb.doc_id = i.doc_b
WHERE 10 * i.inter >= 9 * sa.n OR 10 * i.inter >= 9 * sb.n
"""


def q_reciprocal_links(sf_dir: str):
    """Reciprocal-link (nepotism) analytics over the host graph
    (Davison 2000, "Recognizing Nepotistic Links on the Web": mutual
    host-level linking is the classic link-exchange signal): the
    host_graph rollup's directed weights fold onto unordered pairs —
    key = (min, max), each direction a summed column — and a pair is
    flagged reciprocal when BOTH directions carry links. One extra
    dimension-sized groupby over the host-pair table; nothing
    page-level moves twice."""
    edges = q_host_graph(sf_dir)

    def fold(b: pa.Table) -> pa.Table:
        src = b["src_host"].to_pylist()
        dst = b["dst_host"].to_pylist()
        n = b["n_links"].to_pylist()
        a_out, b_out, fwd, rev = [], [], [], []
        for s, d, w in zip(src, dst, n):
            lo, hi = (s, d) if s < d else (d, s)
            a_out.append(lo)
            b_out.append(hi)
            fwd.append(w if s == lo else 0)
            rev.append(w if s == hi else 0)
        return pa.table(
            {
                "host_a": pa.array(a_out, pa.string()),
                "host_b": pa.array(b_out, pa.string()),
                "fwd": pa.array(fwd, pa.int64()),
                "rev": pa.array(rev, pa.int64()),
            }
        )

    agg = (
        edges.map_batches(fold, batch_format="pyarrow")
        .groupby(["host_a", "host_b"])
        .aggregate(Sum("fwd", alias_name="n_ab"), Sum("rev", alias_name="n_ba"))
    )

    def fin(b: pa.Table) -> pa.Table:
        if "host_a" not in b.column_names or b.num_rows == 0:
            return pa.table(
                {
                    "host_a": pa.array([], pa.string()),
                    "host_b": pa.array([], pa.string()),
                    "n_ab": pa.array([], pa.int64()),
                    "n_ba": pa.array([], pa.int64()),
                    "reciprocal": pa.array([], pa.bool_()),
                }
            )
        ab = b["n_ab"].cast(pa.int64())
        ba = b["n_ba"].cast(pa.int64())
        return pa.table(
            {
                "host_a": b["host_a"],
                "host_b": b["host_b"],
                "n_ab": ab,
                "n_ba": ba,
                "reciprocal": pc.and_(
                    pc.greater(ab, pa.scalar(0, pa.int64())),
                    pc.greater(ba, pa.scalar(0, pa.int64())),
                ),
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow")


SQL_RECIPROCAL_LINKS = (
    _SQL_MH_CTE
    + """,
edges AS (
  SELECT DISTINCT url AS src, host AS src_host, c1_url AS dst FROM pg
  UNION
  SELECT DISTINCT url, host, c2_url FROM pg),
hg AS (
  SELECT src_host,
         regexp_extract(dst, '^http://([^/]+)', 1) AS dst_host,
         count(*) AS n_links
  FROM edges
  WHERE regexp_extract(dst, '^http://([^/]+)', 1) <> src_host
  GROUP BY src_host, dst_host),
folded AS (
  SELECT least(src_host, dst_host) AS host_a,
         greatest(src_host, dst_host) AS host_b,
         sum(CASE WHEN src_host < dst_host THEN n_links ELSE 0 END) AS n_ab,
         sum(CASE WHEN src_host > dst_host THEN n_links ELSE 0 END) AS n_ba
  FROM hg GROUP BY 1, 2)
SELECT host_a, host_b, CAST(n_ab AS BIGINT) AS n_ab,
       CAST(n_ba AS BIGINT) AS n_ba,
       (n_ab > 0 AND n_ba > 0) AS reciprocal
FROM folded
"""
)


def q_bpe_merges(sf_dir: str):
    """Learned BPE merge table (rank, left, right) — distributed word
    counting, driver merge loop over the distinct-word table only
    (stages/bpe.py). Deterministic (count DESC, pair ASC tie-break):
    pinned by pytest vs a clean-room naive reimplementation; iterative
    argmax is not SQL-expressible, so rows-only at the gate."""
    from ..stages.bpe import train_bpe

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = train_bpe(docs, n_merges=40)
    return pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int64()),
            "left": pa.array([a for a, _ in merges], pa.string()),
            "right": pa.array([b for _, b in merges], pa.string()),
        }
    )


def q_bpe_encode(sf_dir: str):
    """Corpus-trained BPE encoding of every document (stages/bpe.py
    BpeEncoder actor pool; merges broadcast once). ``round_trip_ok``
    is the in-pipeline self-check the driver's rows gate can read:
    decode(encode(word)) == word for every word of every doc."""
    from ..stages.bpe import bpe_encode

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return bpe_encode(docs, n_merges=40)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

def q_k_core(sf_dir: str):
    """k-core membership (k=3) of the multihost page graph plus
    planted K4 link farms (Seidman 1983 coreness — the density peel
    webgraph/spam studies run first; a symmetrized crawl TREE has an
    EMPTY 2-core, so the planted cliques on {d..d+3} for
    doc_id % 50 == 0 are what the peel must isolate). Delta-peeling
    over the edge Dataset: per round one Count groupby finds nodes
    below k, only that small delta is broadcast, edges drop map-side
    (stages/graph.py:k_core). Oracle: bounded recursive-CTE edge
    peeling — the recursive term re-derives per-endpoint degrees
    with window counts over the previous iteration's edge set."""
    from ..stages.graph import k_core

    edges, nodes, _ = _mh_int_graph(sf_dir)
    n = _docs_table(sf_dir).num_rows

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 50 == 0]
        srcs, dsts = [], []
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            srcs.append((ids + i) % n)
            dsts.append((ids + j) % n)
        return pa.table(
            {
                "src": pa.array(np.concatenate(srcs)),
                "dst": pa.array(np.concatenate(dsts)),
            }
        )

    farm = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return k_core(edges.union(farm), nodes, k=3)


SQL_K_CORE = """
WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
dir AS (
  SELECT CAST(doc_id AS BIGINT) AS s,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS d
  FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn
  UNION ALL
  SELECT CAST((doc_id + p.i) % nn.n AS BIGINT),
         CAST((doc_id + p.j) % nn.n AS BIGINT)
  FROM documents, nn,
       (VALUES (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)) p(i, j)
  WHERE doc_id % 50 = 0),
und AS (
  SELECT DISTINCT s AS x, d AS y FROM dir WHERE s <> d
  UNION
  SELECT d, s FROM dir WHERE s <> d),
es(it, x, y) AS (
  SELECT 0, x, y FROM und
  UNION
  SELECT it, x, y FROM (
    SELECT e.it + 1 AS it, e.x AS x, e.y AS y,
           count(*) OVER (PARTITION BY e.x) AS dx,
           count(*) OVER (PARTITION BY e.y) AS dy
    FROM es e WHERE e.it < 24
  ) WHERE dx >= 3 AND dy >= 3),
core AS (
  SELECT x AS v, count(*) AS core_deg FROM es WHERE it = 24 GROUP BY x)
SELECT CAST(d.doc_id AS BIGINT) AS node,
       CAST(coalesce(core.core_deg, 0) AS BIGINT) AS core_deg
FROM documents d LEFT JOIN core ON core.v = d.doc_id
"""


def q_distance_histogram(sf_dir: str):
    """Exact shortest-path distance distribution (ordered pairs per
    distance, depth-capped at 8) of the symmetrized multihost page
    graph — the table behind Broder et al. 2000's "effective
    diameter" numbers and the quantity HyperBall (hyperball_md5)
    sketches. Per-root BFS against one broadcast CSR, per-block
    distance counters, one 8-row groupby
    (stages/graph.py:distance_histogram). Oracle: bounded recursive
    walk closure, min walk length per pair, counts per distance."""
    from ..stages.graph import distance_histogram

    edges, nodes, _ = _mh_int_graph(sf_dir)
    return distance_histogram(edges, nodes, max_depth=8)


SQL_DISTANCE_HISTOGRAM = """
WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
dir AS (
  SELECT CAST(doc_id AS BIGINT) AS s,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS d
  FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn),
und AS (
  SELECT DISTINCT s AS x, d AS y FROM dir WHERE s <> d
  UNION
  SELECT d, s FROM dir WHERE s <> d),
walk(root, node, t) AS (
  SELECT x, x, 0 FROM (SELECT DISTINCT x FROM und)
  UNION
  SELECT w.root, e.y, w.t + 1
  FROM walk w JOIN und e ON e.x = w.node
  WHERE w.t < 8),
dist AS (
  SELECT root, node, min(t) AS d FROM walk
  WHERE node <> root GROUP BY root, node),
hist AS (SELECT d, count(*) AS pairs FROM dist WHERE d >= 1 GROUP BY d)
SELECT CAST(g.d AS BIGINT) AS d,
       CAST(coalesce(hist.pairs, 0) AS BIGINT) AS pairs
FROM (SELECT UNNEST(generate_series(1, 8)) AS d) g
LEFT JOIN hist ON hist.d = g.d
"""


def q_lpa_communities(sf_dir: str):
    """Label-propagation communities (Raghavan et al. 2007) over the
    multihost page graph plus planted K4 link farms (doc_id % 25 == 0)
    — the near-linear community pass run on webgraphs where modularity
    methods can't scale, made deterministic: self-loop votes, most-
    frequent-then-smallest label, exactly 5 synchronous rounds on both
    engines (no convergence test — the classic bipartite oscillation
    cannot desync the oracle). Per round one label attach (broadcast/
    shuffle planner) + one (node, label) Count groupby + one per-node
    argmax (stages/graph.py:label_propagation)."""
    from ..stages.graph import label_propagation

    edges, nodes, _ = _mh_int_graph(sf_dir)
    n = _docs_table(sf_dir).num_rows

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 25 == 0]
        srcs, dsts = [], []
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            srcs.append((ids + i) % n)
            dsts.append((ids + j) % n)
        return pa.table(
            {
                "src": pa.array(np.concatenate(srcs)),
                "dst": pa.array(np.concatenate(dsts)),
            }
        )

    farm = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return label_propagation(edges.union(farm), nodes, rounds=5)


SQL_LPA_COMMUNITIES = """
WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
dir AS (
  SELECT CAST(doc_id AS BIGINT) AS s,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS d
  FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn
  UNION ALL
  SELECT CAST((doc_id + p.i) % nn.n AS BIGINT),
         CAST((doc_id + p.j) % nn.n AS BIGINT)
  FROM documents, nn,
       (VALUES (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)) p(i, j)
  WHERE doc_id % 25 = 0),
vs AS (SELECT CAST(doc_id AS BIGINT) AS v FROM documents),
und AS (
  SELECT DISTINCT s AS x, d AS y FROM dir WHERE s <> d
  UNION
  SELECT d, s FROM dir WHERE s <> d
  UNION
  SELECT v, v FROM vs),
lab(it, node, lbl) AS (
  SELECT 0, v, v FROM vs
  UNION
  SELECT it, node, lbl FROM (
    SELECT q2.it, q2.node, q2.lbl,
           row_number() OVER (
             PARTITION BY q2.it, q2.node
             ORDER BY q2.c DESC, q2.lbl ASC) AS rk
    FROM (
      SELECT l.it + 1 AS it, e.y AS node, l.lbl AS lbl,
             count(*) OVER (PARTITION BY e.y, l.lbl) AS c
      FROM lab l JOIN und e ON e.x = l.node
      WHERE l.it < 5
    ) q2
  ) WHERE rk = 1)
SELECT node, lbl AS community FROM lab WHERE it = 5
"""


def q_degree_distribution(sf_dir: str):
    """In/out-degree distribution of the multihost page graph in log2
    buckets — the first table every webgraph study publishes (Broder
    et al. 2000's power-law evidence; the shape that tells a crawler
    where the hub mass lives). Two Count groupbys (per-node degree),
    then one tiny (direction, bucket) groupby over per-block bucket
    partials; the shuffle carries O(buckets) rows per block. Exact
    int64 counts; bucket b holds nodes with degree in [2^b, 2^(b+1));
    zero-degree nodes land in bucket -1. The raw heap graph is
    degree-uniform (a 2-row histogram — no gate), so hub edges are
    planted (every even doc -> doc 0, every 3rd -> doc 1, every
    5th -> doc 2): the hubs land in high log2 buckets and the tail
    spreads, the power-law shape the table exists to show."""
    from ray.data.aggregate import Sum as _Sum

    edges, nodes, _ = _mh_int_graph(sf_dir)

    def hubs(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        srcs, dsts = [], []
        for mod, hub in ((2, 0), (3, 1), (5, 2)):
            sel = ids[(ids % mod == 0) & (ids != hub)]
            srcs.append(sel)
            dsts.append(np.full(sel.size, hub, np.int64))
        return pa.table(
            {
                "src": pa.array(np.concatenate(srcs)),
                "dst": pa.array(np.concatenate(dsts)),
            }
        )

    edges = edges.union(
        _read(sf_dir, "documents", ["doc_id"]).map_batches(
            hubs, batch_format="pyarrow"
        )
    )

    def count_side(col: str, label: str):
        deg = edges.groupby(col).aggregate(Count(alias_name="deg"))

        def bucketize(b: pa.Table) -> pa.Table:
            d = b["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
            bk = np.floor(np.log2(np.maximum(d, 1))).astype(np.int64)
            return pa.table(
                {
                    "direction": pa.array([label] * len(bk)),
                    "bucket": pa.array(bk),
                    "n": pa.array(np.ones(len(bk), np.int64)),
                }
            )

        counted = deg.map_batches(bucketize, batch_format="pyarrow")

        # nodes with zero degree on this side: total - counted
        def zero_row(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "direction": pa.array([label] * b.num_rows),
                    "bucket": pa.array(np.full(b.num_rows, -1, np.int64)),
                    "n": pa.array(np.ones(b.num_rows, np.int64)),
                }
            )

        def minus_one(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "direction": pa.array([label] * b.num_rows),
                    "bucket": pa.array(np.full(b.num_rows, -1, np.int64)),
                    "n": pa.array(np.full(b.num_rows, -1, np.int64)),
                }
            )

        # all nodes at -1, minus one for each node that HAS degree
        return counted.union(
            nodes.map_batches(zero_row, batch_format="pyarrow"),
            deg.map_batches(minus_one, batch_format="pyarrow"),
        )

    parts = count_side("src", "out").union(count_side("dst", "in"))
    out = (
        parts.groupby(["direction", "bucket"])
        .aggregate(_Sum("n", alias_name="nodes"))
    )
    return out.map_batches(
        lambda b: b.filter(pc.greater(b["nodes"], 0)),
        batch_format="pyarrow",
    )


SQL_DEGREE_DISTRIBUTION = """
WITH nn AS (SELECT count(*) AS n FROM documents),
dir AS (
  SELECT CAST(doc_id AS BIGINT) AS s,
         CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS d
  FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn
  UNION ALL
  SELECT CAST(doc_id AS BIGINT), CAST(h.hub AS BIGINT)
  FROM documents, (VALUES (2, 0), (3, 1), (5, 2)) h(m, hub)
  WHERE doc_id % h.m = 0 AND doc_id <> h.hub),
outd AS (SELECT s AS v, count(*) AS deg FROM dir GROUP BY s),
ind AS (SELECT d AS v, count(*) AS deg FROM dir GROUP BY d),
b AS (
  SELECT 'out' AS direction,
         CAST(floor(log2(greatest(o.deg, 1))) AS BIGINT) AS bucket
  FROM documents dd LEFT JOIN outd o ON o.v = dd.doc_id
  WHERE o.v IS NOT NULL
  UNION ALL
  SELECT 'out', -1 FROM documents dd
  WHERE NOT EXISTS (SELECT 1 FROM outd o WHERE o.v = dd.doc_id)
  UNION ALL
  SELECT 'in',
         CAST(floor(log2(greatest(i.deg, 1))) AS BIGINT)
  FROM documents dd JOIN ind i ON i.v = dd.doc_id
  UNION ALL
  SELECT 'in', -1 FROM documents dd
  WHERE NOT EXISTS (SELECT 1 FROM ind i WHERE i.v = dd.doc_id))
SELECT direction, bucket, CAST(count(*) AS BIGINT) AS nodes
FROM b GROUP BY direction, bucket
"""


def q_vocab_growth(sf_dir: str):
    """Heaps'-law vocabulary growth curve (Herdan/Heaps: V(n) ~ K·n^b
    — THE corpus statistic for sizing tokenizer vocabularies and
    judging dedup effectiveness: a deduped corpus keeps growing, a
    template-heavy one plateaus): distinct-term count as the corpus
    accrues in doc_id order, bucketed by 50 docs. first-occurrence =
    one Min groupby over per-block (term, min doc) combiner partials
    (stages/textstats.py:term_first_doc_partial — order-free, so
    block layout can't change it); per-bucket new-term and token
    counts are output-sized; the cumulative fold runs over the tiny
    bucket table only. Columns: (bucket, new_terms, cum_terms,
    cum_tokens), all exact int64."""
    from ray.data.aggregate import Min as _Min

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    firsts = docs.map_batches(
        ts.term_first_doc_partial, batch_format="pyarrow"
    ).groupby("term").aggregate(_Min("fd", alias_name="fd"))

    def fd_bucket(b: pa.Table) -> pa.Table:
        fd = b["fd"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(fd // 50),
                "one": pa.array(np.ones(len(fd), np.int64)),
            }
        )

    new_terms = (
        firsts.map_batches(fd_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("one", alias_name="new_terms"))
    )

    def tok_bucket(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = np.array(
            [
                len(ts._VOCAB_RE.findall((t or "").lower()))
                for t in b["text"].to_pylist()
            ],
            np.int64,
        )
        return pa.table({"bucket": pa.array(ids // 50), "toks": pa.array(toks)})

    tokens = (
        docs.map_batches(tok_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("toks", alias_name="toks"))
    )

    # the bucket tables are output-sized (corpus/50 rows); the
    # cumulative fold is a driver-side walk over THAT, never the corpus
    nt = {
        r["bucket"]: r["new_terms"]
        for b in new_terms.iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    }
    tk = {
        r["bucket"]: r["toks"]
        for b in tokens.iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    }
    buckets = sorted(tk)
    out, ct, cx = [], 0, 0
    for bkt in buckets:
        n = int(nt.get(bkt, 0))
        ct += n
        cx += int(tk.get(bkt, 0))
        out.append((bkt, n, ct, cx))
    return pa.table(
        {
            "bucket": pa.array([r[0] for r in out], pa.int64()),
            "new_terms": pa.array([r[1] for r in out], pa.int64()),
            "cum_terms": pa.array([r[2] for r in out], pa.int64()),
            "cum_tokens": pa.array([r[3] for r in out], pa.int64()),
        }
    )


SQL_VOCAB_GROWTH = """
WITH w AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ws
  FROM documents),
tokb AS (
  SELECT CAST(doc_id // 50 AS BIGINT) AS bucket,
         CAST(sum(len(ws)) AS BIGINT) AS toks
  FROM w GROUP BY 1),
fd AS (
  SELECT term, min(doc_id) AS first_doc
  FROM (SELECT doc_id, unnest(ws) AS term FROM w) GROUP BY term),
nb AS (
  SELECT CAST(first_doc // 50 AS BIGINT) AS bucket,
         CAST(count(*) AS BIGINT) AS new_terms
  FROM fd GROUP BY 1)
SELECT tokb.bucket,
       CAST(coalesce(nb.new_terms, 0) AS BIGINT) AS new_terms,
       CAST(sum(coalesce(nb.new_terms, 0))
            OVER (ORDER BY tokb.bucket) AS BIGINT) AS cum_terms,
       CAST(sum(tokb.toks) OVER (ORDER BY tokb.bucket) AS BIGINT)
         AS cum_tokens
FROM tokb LEFT JOIN nb USING (bucket)
"""


def q_kmv_distinct_users(sf_dir: str):
    """KMV / bottom-k distinct users per event type (Bar-Yossef et al.
    2002; Beyer et al. 2007 estimator) — the order-statistics twin of
    the HLL gate (hll_md5_distinct), fully oracled: md5-parity hashes,
    k smallest distinct per group, exact answer below k, ONE IEEE
    division above it. At sf0.001 (15 users/type) the exact arm runs;
    at sf0.01 (150 users/type) the estimator arm runs — both gate
    scales exercise a different branch
    (stages/sketches.py:kmv_distinct)."""
    from ..stages.sketches import kmv_distinct

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    return kmv_distinct(ev, key_col="event_type", val_col="user_id", k=16)


SQL_KMV_DISTINCT_USERS = """
WITH h AS (
  SELECT DISTINCT event_type,
         CAST(md5_number_lower(CAST(user_id AS VARCHAR)) % 2147483648
              AS BIGINT) + 1 AS hv
  FROM events),
r AS (
  SELECT event_type, hv,
         row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rn
  FROM h),
kept AS (SELECT * FROM r WHERE rn <= 16),
agg AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS k_used,
         CAST(max(hv) AS BIGINT) AS kth_hash
  FROM kept GROUP BY event_type)
SELECT event_type, k_used, kth_hash,
       CASE WHEN k_used < 16 THEN CAST(k_used AS DOUBLE)
            ELSE (15.0 * 2147483648.0) / CAST(kth_hash AS DOUBLE)
       END AS est
FROM agg
"""


def q_temperature_resample(sf_dir: str):
    """Temperature-based language resampling (XLM-R / mT5: stratum
    quota proportional to n_lang^alpha, alpha=0.5) over the skewed
    documents.lang histogram — the head language is sampled at a
    LOWER rate than the tail, which fixed-weight domain_mix cannot
    express. Quotas are floor(4 * sqrt(n_lang)) (sqrt is IEEE-exact,
    so both engines derive identical integer quotas from the data);
    selection is the multiplicative-hash rank of quota_mix
    (stages/sample.py:temperature_resample)."""
    from ..stages.sample import temperature_resample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return temperature_resample(docs, key_col="lang", id_col="doc_id", coeff=4)


SQL_TEMPERATURE_RESAMPLE = """
WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
q AS (
  SELECT lang,
         CAST(floor(4 * sqrt(CAST(n AS DOUBLE))) AS BIGINT) AS quota
  FROM c),
ranked AS (
  SELECT lang, CAST(doc_id AS BIGINT) AS doc_id,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY (CAST(doc_id AS BIGINT) * 2654435761) % 4294967296,
                    doc_id) AS rn
  FROM documents)
SELECT r.lang, r.doc_id
FROM ranked r JOIN q USING (lang)
WHERE r.rn <= q.quota
"""


def q_graph_compress(sf_dir: str):
    """Boldi–Vigna WebGraph gap-encoding cost accounting (Boldi &
    Vigna 2004, "The WebGraph Framework I") over the REAL extract
    path: per page, sort the deduped successor list, take the BV
    gaps — first gap = zigzag(d1 − src) (ν-coding of a possibly
    negative offset), remaining gaps = d_i − d_{i−1} − 1 — and charge
    each gap its γ-code bit cost (2·⌊log2(g+1)⌋+1) and LEB128 varint
    byte cost (⌊log2(max(g,1))⌋//7 + 1). This is the sizing table a
    webgraph store publishes before choosing codes: the mass of tiny
    'rest' gaps (locality — consecutive doc ids link near each other)
    vs the heavy 'first' offsets is exactly what makes BV compression
    work on web graphs and fail on random ones.

    Scale shape: gaps are computed INSIDE the per-page extract batch
    (every out-edge of a page lives in its source row — no shuffle at
    all to form adjacency), per-block partials aggregate to O(kinds ×
    buckets) rows, one tiny groupby Sum finishes. Exact int64
    throughout; bucket exponents come from np.frexp (exact), the
    oracle's floor(log2()) agrees for every value below 2^53."""
    from ray.data.aggregate import Sum as _Sum

    _, _, pages = _mh_int_graph(sf_dir)

    def _uid(u: str) -> int:
        return int(u.rsplit("doc", 1)[1])

    def gap_partials(b: pa.Table) -> pa.Table:
        items = extract_batch(b)
        firsts: list[int] = []
        rests: list[int] = []
        for src, links in zip(
            items["url"].to_pylist(), items["links"].to_pylist()
        ):
            sid = _uid(src)
            succ = sorted({_uid(x) for x in links})
            if not succ:
                continue
            x = succ[0] - sid
            firsts.append(2 * x if x >= 0 else -2 * x - 1)
            for prev, cur in zip(succ, succ[1:]):
                rests.append(cur - prev - 1)

        kinds, buckets, ns, gbits, vbytes = [], [], [], [], []
        for kind, vals in (("first", firsts), ("rest", rests)):
            if not vals:
                continue
            v = np.asarray(vals, np.int64)
            # exact integer exponent: frexp(n) = (m, e) with m in
            # [0.5, 1) => floor(log2(n)) = e - 1 for every int n >= 1
            bucket = (np.frexp((v + 1).astype(np.float64))[1] - 1).astype(
                np.int64
            )
            vb = (
                np.frexp(np.maximum(v, 1).astype(np.float64))[1] - 1
            ).astype(np.int64) // 7 + 1
            uniq, inv = np.unique(bucket, return_inverse=True)
            kinds.extend([kind] * uniq.size)
            buckets.extend(uniq.tolist())
            ns.extend(np.bincount(inv).astype(np.int64).tolist())
            gbits.extend(
                np.bincount(inv, weights=(2 * bucket + 1))
                .astype(np.int64)
                .tolist()
            )
            vbytes.extend(np.bincount(inv, weights=vb).astype(np.int64).tolist())
        return pa.table(
            {
                "kind": pa.array(kinds, pa.string()),
                "bucket": pa.array(buckets, pa.int64()),
                "n_gaps": pa.array(ns, pa.int64()),
                "gamma_bits": pa.array(gbits, pa.int64()),
                "varint_bytes": pa.array(vbytes, pa.int64()),
            }
        )

    partials = pages.map_batches(gap_partials, batch_format="pyarrow")
    return partials.groupby(["kind", "bucket"]).aggregate(
        _Sum("n_gaps", alias_name="n_gaps"),
        _Sum("gamma_bits", alias_name="gamma_bits"),
        _Sum("varint_bytes", alias_name="varint_bytes"),
    )


SQL_GRAPH_COMPRESS = """
WITH nn AS (SELECT count(*) AS n FROM documents),
e AS (
  SELECT DISTINCT s, d FROM (
    SELECT CAST(doc_id AS BIGINT) AS s,
           CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS d
    FROM documents, nn
    UNION ALL
    SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn)),
g AS (
  SELECT s, d,
         row_number() OVER (PARTITION BY s ORDER BY d) AS rn,
         lag(d) OVER (PARTITION BY s ORDER BY d) AS pd
  FROM e),
vals AS (
  SELECT CASE WHEN rn = 1 THEN 'first' ELSE 'rest' END AS kind,
         CASE WHEN rn = 1 THEN
                (CASE WHEN d >= s THEN 2 * (d - s) ELSE 2 * (s - d) - 1 END)
              ELSE d - pd - 1 END AS v
  FROM g)
SELECT kind,
       CAST(floor(log2(v + 1)) AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_gaps,
       CAST(sum(2 * CAST(floor(log2(v + 1)) AS BIGINT) + 1) AS BIGINT)
         AS gamma_bits,
       CAST(sum(CAST(floor(log2(greatest(v, 1))) AS BIGINT) // 7 + 1)
         AS BIGINT) AS varint_bytes
FROM vals GROUP BY kind, bucket
"""


def _salsa_ppm(cs, di, cd, n_auth: int):
    """score_ppm = (comp_size * d_in * 1e6) // (n_auth * comp_din) as
    int64 arrays, overflow-safe: numerator or denominator products
    wrap int64 once cs*di > ~9.2e12 or n_auth*cd > ~9.2e18 (plausible
    at 10^10 pages), so vectorize only when BOTH max-product bounds
    prove safety and otherwise fall back to exact arbitrary-precision
    Python ints per row. The quotient itself always fits: d_in <=
    comp_din and comp_size <= n_auth, so ppm <= 1e6 by construction
    (property-tested over the domain in test_r5_kernel_properties)."""
    if len(cs) == 0 or (
        int(cs.max()) * int(di.max()) * 1_000_000 < 2**63
        and n_auth * int(cd.max()) < 2**63
    ):
        return (cs * di * 1_000_000) // (n_auth * cd)
    return np.fromiter(
        (
            (int(c) * int(d) * 1_000_000) // (n_auth * int(t))
            for c, d, t in zip(cs, di, cd)
        ),
        dtype=np.int64,
        count=len(cs),
    )


def q_salsa_scores(sf_dir: str):
    """SALSA authority scores (Lempel & Moran 2000, "SALSA: the
    stochastic approach for link-structure analysis") over the hubbed
    multihost page graph — the TKC-effect-free alternative to HITS
    that powered web search authority ranking. SALSA's authority
    chain has a CLOSED-FORM stationary distribution: within each
    connected component C of the co-citation support graph,
    pi(a) = (|C|/|A|) * (d_in(a) / sum_{a' in C} d_in(a')) — no
    power iteration needed, which is why it scales where HITS can't.

    Pipeline: per-page successor lists (tree links from the REAL
    extract path + the same planted hub edges as degree_distribution,
    derived per-source arithmetically) yield in-degree rows and
    consecutive co-citation pairs with NO shuffle; one Count groupby
    for d_in; Dataset-native min-label connected components over the
    support pairs; two partitioned hash joins attach component stats.
    All-exact output: score_ppm = floor(comp_size * d_in * 1e6 /
    (n_auth * comp_din)) — a single integer division of exact int64
    terms, bit-identical to the DuckDB recursive-CTE oracle."""
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Sum as _Sum

    from ..stages.dedup import connected_components
    from ..stages.joins import partitioned_hash_join

    _, _, pages = _mh_int_graph(sf_dir)

    def _uid(u: str) -> int:
        return int(u.rsplit("doc", 1)[1])

    HUBS = ((2, 0), (3, 1), (5, 2))

    def _succ(b: pa.Table):
        items = extract_batch(b)
        for src, links in zip(
            items["url"].to_pylist(), items["links"].to_pylist()
        ):
            sid = _uid(src)
            succ = {_uid(x) for x in links}
            succ.update(h for m, h in HUBS if sid % m == 0 and sid != h)
            yield sid, sorted(succ)

    def succ_rows(b: pa.Table) -> pa.Table:
        sids, succs = [], []
        for sid, succ in _succ(b):
            sids.append(sid)
            succs.append(succ)
        return pa.table(
            {
                "sid": pa.array(sids, pa.int64()),
                "succ": pa.array(succs, pa.list_(pa.int64())),
            }
        )

    def edge_rows(b: pa.Table) -> pa.Table:
        srcs, dsts = [], []
        for sid, succ in zip(b["sid"].to_pylist(), b["succ"].to_pylist()):
            srcs.extend([sid] * len(succ))
            dsts.extend(succ)
        return pa.table(
            {
                "src": pa.array(srcs, pa.int64()),
                "dst": pa.array(dsts, pa.int64()),
            }
        )

    def pair_rows(b: pa.Table) -> pa.Table:
        a_, b_ = [], []
        for succ in b["succ"].to_pylist():
            a_.extend(succ[:-1])
            b_.extend(succ[1:])
        return pa.table(
            {
                "doc_a": pa.array(a_, pa.int64()),
                "doc_b": pa.array(b_, pa.int64()),
            }
        )

    # ONE extract pass: the HTML kernel is the expensive stage, so the
    # successor lists materialize once (narrow int64 list rows) and
    # both the edge table and the co-citation pairs derive from them
    succ_ds = pages.map_batches(succ_rows, batch_format="pyarrow").materialize()
    edges = succ_ds.map_batches(edge_rows, batch_format="pyarrow")
    pairs = succ_ds.map_batches(pair_rows, batch_format="pyarrow")

    din = (
        edges.groupby("dst")
        .aggregate(_Count(alias_name="d_in"))
        .map_batches(
            lambda b: b.rename_columns(["node", "d_in"]),
            batch_format="pyarrow",
        )
        .materialize()  # consumed 4x (auth, count, CC seed, join) —
        # without this each consumer re-runs the extract+groupby
    )
    auth = din.select_columns(["node"])
    n_auth = auth.count()

    labels = connected_components(pairs, auth, id_col="node")

    from ..stages.graph import BROADCAST_SCORE_ROWS

    if n_auth <= BROADCAST_SCORE_ROWS:
        # broadcast arm (graph.py's stats-driven planner): the label
        # table and the per-component stats are authority-dimensioned
        # — fold them once (bounded by the guard), ship one plasma
        # object, and a SINGLE vectorized pass over din attaches
        # cluster ids, component stats and scores with no further
        # all-to-all. At sf0.1 this replaces two partitioned joins +
        # one groupby (~6 s of fixed exchange cost) with ~0.3 s.
        lab_map: dict[int, int] = {}
        for blk in labels.iter_batches(batch_format="pyarrow"):
            lab_map.update(
                zip(blk["node"].to_pylist(), blk["cluster_id"].to_pylist())
            )
        comp_size: dict[int, int] = {}
        comp_din: dict[int, int] = {}
        for blk in din.iter_batches(batch_format="pyarrow"):
            for n, d in zip(
                blk["node"].to_pylist(), blk["d_in"].to_pylist()
            ):
                c = lab_map[n]
                comp_size[c] = comp_size.get(c, 0) + 1
                comp_din[c] = comp_din.get(c, 0) + int(d)
        import ray as _ray

        maps_ref = _ray.put((lab_map, comp_size, comp_din))

        def score_bcast(b: pa.Table) -> pa.Table:
            import ray as _r

            lab, csz, cdn = _r.get(maps_ref)
            nodes_np = b["node"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            di = b["d_in"].to_numpy(zero_copy_only=False).astype(np.int64)
            cid = np.fromiter(
                (lab[n] for n in nodes_np), np.int64, count=len(nodes_np)
            )
            cs = np.fromiter(
                (csz[c] for c in cid), np.int64, count=len(cid)
            )
            cd = np.fromiter(
                (cdn[c] for c in cid), np.int64, count=len(cid)
            )
            ppm = _salsa_ppm(cs, di, cd, n_auth)
            return pa.table(
                {
                    "node": pa.array(nodes_np),
                    "d_in": pa.array(di),
                    "cluster_id": pa.array(cid),
                    "comp_size": pa.array(cs),
                    "comp_din": pa.array(cd),
                    "score_ppm": pa.array(ppm),
                }
            )

        return din.map_batches(score_bcast, batch_format="pyarrow")

    lab_din = partitioned_hash_join(din, labels, "node", "node")
    comp = lab_din.groupby("cluster_id").aggregate(
        _Count(alias_name="comp_size"), _Sum("d_in", alias_name="comp_din")
    )
    joined = partitioned_hash_join(lab_din, comp, "cluster_id", "cluster_id")

    def score(b: pa.Table) -> pa.Table:
        cs = b["comp_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        di = b["d_in"].to_numpy(zero_copy_only=False).astype(np.int64)
        cd = b["comp_din"].to_numpy(zero_copy_only=False).astype(np.int64)
        ppm = _salsa_ppm(cs, di, cd, n_auth)
        return pa.table(
            {
                "node": b["node"].cast(pa.int64()),
                "d_in": pa.array(di),
                "cluster_id": b["cluster_id"].cast(pa.int64()),
                "comp_size": pa.array(cs),
                "comp_din": pa.array(cd),
                "score_ppm": pa.array(ppm),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow")


SQL_SALSA_SCORES = """
WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
e AS (
  SELECT DISTINCT s, d FROM (
    SELECT CAST(doc_id AS BIGINT) AS s,
           CAST((2 * doc_id + 1) % nn.n AS BIGINT) AS d
    FROM documents, nn
    UNION ALL
    SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn
    UNION ALL
    SELECT CAST(doc_id AS BIGINT), CAST(h.hub AS BIGINT)
    FROM documents, (VALUES (2, 0), (3, 1), (5, 2)) h(m, hub)
    WHERE doc_id % h.m = 0 AND doc_id <> h.hub)),
din AS (SELECT d AS node, CAST(count(*) AS BIGINT) AS d_in FROM e GROUP BY d),
na AS (SELECT count(*) AS n_auth FROM din),
succ AS (
  SELECT s, d, row_number() OVER (PARTITION BY s ORDER BY d) AS rn FROM e),
prs AS (
  SELECT a.d AS doc_a, b.d AS doc_b
  FROM succ a JOIN succ b ON a.s = b.s AND b.rn = a.rn + 1),
ue AS (
  SELECT doc_a AS src, doc_b AS dst FROM prs
  UNION ALL SELECT doc_b, doc_a FROM prs),
reach(node, label) AS (
  SELECT node, node FROM din
  UNION
  SELECT CAST(ue.dst AS BIGINT), r.label FROM reach r JOIN ue ON ue.src = r.node),
cc AS (SELECT node, min(label) AS cluster_id FROM reach GROUP BY node),
comp AS (
  SELECT cluster_id, CAST(count(*) AS BIGINT) AS comp_size,
         CAST(sum(d.d_in) AS BIGINT) AS comp_din
  FROM cc JOIN din d USING (node) GROUP BY cluster_id)
SELECT d.node, d.d_in, c.cluster_id, p.comp_size, p.comp_din,
       CAST((p.comp_size * d.d_in * 1000000)
            // (na.n_auth * p.comp_din) AS BIGINT) AS score_ppm
FROM din d JOIN cc c USING (node) JOIN comp p USING (cluster_id), na
"""


def q_cdx_shards(sf_dir: str):
    """CDX index shard publishing (the Common Crawl / Internet
    Archive cdx-[00..NN] layout): assign every SURT-keyed URL record
    to one of 16 balanced, contiguous key-range shards and publish
    the shard manifest (count + inclusive key range per shard) — the
    table a ZipNum/CDXJ reader uses to binary-search the right shard.

    Scale shape — this is the range-partitioner build, done without
    a driver-side sort: (1) splitter discovery: one Min/Max aggregate
    gives the global lexicographic extremes, whose longest common
    prefix P every key provably shares (any key diverging from P
    below min or above max couldn't be between them), so the 7 bytes
    AFTER P are an order-preserving int64 bucket; (2) the existing
    distributed prefix-sum (stages/scan.py — per-bucket totals are
    the only driver rows) turns bucket-local cumsums into exact
    global ranks; (3) shard = floor(rank * S / N) and one tiny
    groupby emits the manifest. No full materialization anywhere;
    the skew assumption (bucket granularity = 7 post-prefix bytes)
    is the documented partitioning assumption."""
    import ray.data as _rd
    from ray.data.aggregate import Count as _Count

    from ..functions.urls import surt as _surt
    from ..stages.scan import prefix_sum

    S = 16
    corpus = multihost_corpus_dir(sf_dir)

    def key(b: pa.Table) -> pa.Table:
        urls = b["url"].to_pylist()
        return pa.table(
            {
                "surt": pa.array([_surt(u) for u in urls], pa.string()),
                "url": b["url"],
                "one": pa.array(np.ones(len(urls), np.int64)),
            }
        )

    keys = _rd.read_parquet(corpus, columns=["url"]).map_batches(
        key, batch_format="pyarrow"
    )
    ext = keys.aggregate(
        Min("surt", alias_name="lo"), Max("surt", alias_name="hi")
    )
    lo, hi = ext["lo"], ext["hi"]
    lcp = len(os.path.commonprefix([lo, hi]))
    n_total = keys.count()

    def bucket_fn(b: pa.Table) -> pa.Array:
        out = np.zeros(b.num_rows, np.int64)
        for i, s in enumerate(b["surt"].to_pylist()):
            tail = s[lcp : lcp + 7].encode()
            v = 0
            for j in range(7):
                v = (v << 8) | (tail[j] if j < len(tail) else 0)
            out[i] = v
        return pa.array(out)

    ranked = prefix_sum(
        keys, order_cols=["surt", "url"], val_col="one", bucket_fn=bucket_fn
    )

    def assign(b: pa.Table) -> pa.Table:
        rk = b["prefix_excl"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "shard_id": pa.array(rk * S // n_total),
                "surt": b["surt"],
            }
        )

    return (
        ranked.map_batches(assign, batch_format="pyarrow")
        .groupby("shard_id")
        .aggregate(
            _Count(alias_name="n_records"),
            Min("surt", alias_name="lo_key"),
            Max("surt", alias_name="hi_key"),
        )
    )


SQL_CDX_SHARDS = (
    _SQL_MH_CTE
    + """,
ks AS (
  SELECT array_to_string(list_reverse(string_split(host, '.')), ',')
           || ')/' || substr(url, 7 + length(host) + 2) AS surt,
         url
  FROM pg),
tot AS (SELECT count(*) AS n FROM ks),
r AS (
  SELECT surt,
         row_number() OVER (ORDER BY surt, url) - 1 AS rk
  FROM ks)
SELECT CAST((r.rk * 16) // tot.n AS BIGINT) AS shard_id,
       CAST(count(*) AS BIGINT) AS n_records,
       min(r.surt) AS lo_key, max(r.surt) AS hi_key
FROM r, tot GROUP BY 1
"""
)


def q_feed_discovery(sf_dir: str):
    """RSS/Atom feed discovery (sources/feeds.py): each corpus host
    publishes TWO feeds — an RSS 2.0 channel carrying its 10 most
    recently modified EVEN-doc pages (RFC-822 pubDates) and an Atom
    feed carrying its 10 most recent ODD-doc pages (ISO-8601
    updated) — and the engine parses both wire formats distributed
    into normalized (host, fmt, url, pub_date) seed rows, the
    fresh-page discovery channel a polling crawler feeds its frontier
    from. Recency rule is the corpus lastmod convention (2024-01-01 +
    doc_id%365 days); ties break by url. XML synthesis is one
    groupby(host).map_groups (a feed is host-sized); the parse —
    including the locale-free RFC-822 month-name decode — is a
    stateless flat map, so the only shuffle is the host grouping."""
    import datetime as _dt

    import ray.data as _rd

    from ..sources.feeds import feed_items, rfc822_date

    corpus = multihost_corpus_dir(sf_dir)
    base = _dt.date(2024, 1, 1)

    def build_feeds(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(day=g["doc_id"] % 365).sort_values(
            ["day", "url"], ascending=[False, True]
        )
        host = g["host"].iloc[0]
        rss = ['<rss version="2.0"><channel><title>', host, "</title>"]
        even = g[g["doc_id"] % 2 == 0].head(10)
        for u, d in zip(even["url"], even["day"]):
            pub = rfc822_date(base + _dt.timedelta(days=int(d)))
            rss.append(f"<item><link>{u}</link><pubDate>{pub}</pubDate></item>")
        rss.append("</channel></rss>")
        atom = ['<feed xmlns="http://www.w3.org/2005/Atom">']
        odd = g[g["doc_id"] % 2 == 1].head(10)
        for u, d in zip(odd["url"], odd["day"]):
            iso = (base + _dt.timedelta(days=int(d))).isoformat()
            atom.append(
                f'<entry><link href="{u}"/><updated>{iso}T00:00:00Z</updated></entry>'
            )
        atom.append("</feed>")
        return pd.DataFrame(
            {
                "host": [host, host],
                "xml": ["".join(rss), "".join(atom)],
            }
        )

    feeds = (
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(_host_rows, batch_format="pyarrow")
        .groupby("host")
        .map_groups(build_feeds, batch_format="pandas")
    )
    return feed_items(feeds).sort(["host", "fmt", "url"])


SQL_FEED_DISCOVERY = (
    _SQL_MH_CTE
    + """,
ranked AS (
  SELECT host, url, doc_id,
         strftime(DATE '2024-01-01' + (doc_id % 365) * INTERVAL 1 DAY,
                  '%Y-%m-%d') AS pub_date,
         row_number() OVER (
           PARTITION BY host, doc_id % 2
           ORDER BY doc_id % 365 DESC, url) AS rn
  FROM pg)
SELECT host, CASE WHEN doc_id % 2 = 0 THEN 'rss' ELSE 'atom' END AS fmt,
       url, pub_date
FROM ranked WHERE rn <= 10
ORDER BY host, fmt, url
"""
)


def q_change_rate_classes(sf_dir: str):
    """Change-rate estimation for revisit scheduling (Cho & GM,
    "Estimating Frequency of Change" — stages/recrawl.py:
    change_rate_classes): 6 deterministic snapshots of the documents
    table, change rule ``doc_id % (t+1) == 0`` (X varies 0..5 across
    the corpus, content gains ' r<cum>' per change) with OBSERVATION
    GAPS — docs with ``doc_id % 13 == 4`` are absent from snapshots 2
    and 3, so their observed-interval count drops from 5 to 2 and the
    estimator must count only the pairs it saw (the paper's X/n
    discipline). The engine recovers everything from content
    fingerprints; the oracle computes n and X analytically from the
    rule and buckets with the same exact integer cross-
    multiplications (see the stage docstring for the lambda-hat
    threshold derivation)."""
    from ..stages.recrawl import change_rate_classes

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    k = 6

    def snapshots(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        parts = []
        cum = np.zeros(len(ids), np.int64)
        for t in range(k):
            if t >= 1:
                cum = cum + (ids % (t + 1) == 0)
            if t in (2, 3):
                keep = ids % 13 != 4
            else:
                keep = np.ones(len(ids), bool)
            content = pc.binary_join_element_wise(
                b["text"].cast(pa.string()),
                pa.array([f" r{c}" for c in cum], pa.string()),
                "",
            )
            parts.append(
                pa.table(
                    {
                        "doc_id": b["doc_id"].cast(pa.int64()),
                        "snap": pa.array(
                            np.full(len(ids), t, np.int64), pa.int64()
                        ),
                        "content": content,
                    }
                ).filter(pa.array(keep))
            )
        return pa.concat_tables(parts)

    obs = docs.map_batches(snapshots, batch_format="pyarrow")
    return change_rate_classes(obs, n_snaps=k, key_col="doc_id")


SQL_CHANGE_RATE_CLASSES = """
WITH d AS (SELECT CAST(doc_id AS BIGINT) AS doc_id FROM documents),
prs AS (
  SELECT d.doc_id, t.t,
         CASE WHEN d.doc_id % 13 = 4 AND t.t IN (2, 3, 4) THEN 0
              ELSE 1 END AS seen
  FROM d, (SELECT unnest([1, 2, 3, 4, 5]) AS t) t),
st AS (
  SELECT doc_id,
         CAST(sum(seen) AS BIGINT) AS n_intervals,
         CAST(sum(CASE WHEN seen = 1 AND doc_id % (t + 1) = 0
                       THEN 1 ELSE 0 END) AS BIGINT) AS x_changes
  FROM prs GROUP BY doc_id),
cl AS (
  SELECT doc_id, n_intervals, x_changes,
         CAST(CASE
           WHEN 4 * (2 * (n_intervals - x_changes) + 1)
                  <= 2 * n_intervals + 1 THEN 3
           WHEN 2 * (2 * (n_intervals - x_changes) + 1)
                  <= 2 * n_intervals + 1 THEN 2
           WHEN 4 * (2 * (n_intervals - x_changes) + 1)
                  <= 3 * (2 * n_intervals + 1) THEN 1
           ELSE 0 END AS BIGINT) AS freq_class
  FROM st)
SELECT doc_id, n_intervals, x_changes, freq_class,
       CAST(CASE freq_class WHEN 3 THEN 1 WHEN 2 THEN 2
            WHEN 1 THEN 4 ELSE 8 END AS BIGINT) AS revisit_rounds
FROM cl
"""


def q_crawl_adaptive_recrawl(sf_dir: str):
    """Adaptive recrawl composition — the Cho-GM change-rate
    estimator DRIVING the TTL machinery (the closed loop the paper
    proposes): pass-1 full crawl; a 4-snapshot fingerprint history of
    the crawled pages (change rule doc_id % (t+1) == 0, t=1..3, so
    X in 0..3) feeds stages/recrawl.py:change_rate_classes; exactly
    the pages the ESTIMATOR observed changing (freq_class >= 1,
    i.e. X >= 1 at n = 3 — a 3/4 density that keeps the expired
    subgraph supercritical, so pass 2 genuinely propagates) expire
    from the cuckoo seen-front via Frontier.expire(); pass 2 then
    re-reaches a page only through a path of expired pages. The
    expire set resolves from the fingerprint-recovered classes —
    only the oracle uses the arithmetic shortcut (X >= 1 iff any of
    doc%2, doc%3, doc%4 is 0)."""
    import ray.data as _rd

    from ..stages.recrawl import change_rate_classes
    from .crawl import CrawlConfig, Frontier, pages_expand, run_frontier

    corpus = pages_corpus_dir(sf_dir)
    k = 4

    def snapshots(b: pa.Table) -> pa.Table:
        ids = np.array(
            [int(u.rsplit("doc", 1)[1]) for u in b["url"].to_pylist()],
            np.int64,
        )
        parts = []
        cum = np.zeros(len(ids), np.int64)
        for t in range(k):
            if t >= 1:
                cum = cum + (ids % (t + 1) == 0)
            content = pc.binary_join_element_wise(
                b["html"].cast(pa.string()),
                pa.array([f" r{c}" for c in cum], pa.string()),
                "",
            )
            parts.append(
                pa.table(
                    {
                        "url": b["url"],
                        "snap": pa.array(
                            np.full(len(ids), t, np.int64), pa.int64()
                        ),
                        "content": content,
                    }
                )
            )
        return pa.concat_tables(parts)

    obs = _rd.read_parquet(corpus, columns=["url", "html"]).map_batches(
        snapshots, batch_format="pyarrow"
    )
    hot_warm = {
        r["url"]
        for r in change_rate_classes(obs, n_snaps=k)
        .filter(lambda r: r["freq_class"] >= 1)
        .take_all()
    }

    seed = _site_seed(sf_dir)
    cfg = CrawlConfig(n_shards=4, max_depth=6, max_rounds=16, mode="cuckoo")
    frontier = Frontier(cfg)
    try:
        expand = pages_expand(corpus, cfg, None, 0)
        r1 = run_frontier(expand, [seed], cfg, frontier=frontier)
        expired = [u for u in r1.order["url"].to_pylist() if u in hot_warm]
        n = frontier.expire(expired)
        assert n == len(expired), (n, len(expired))
        r2 = run_frontier(expand, [seed], cfg, frontier=frontier)
    finally:
        frontier.release()

    def tag(res, p):
        t = res.order
        return t.append_column(
            "pass", pa.array([p] * t.num_rows, pa.int32())
        ).select(["pass", "round", "depth", "url"])

    return pa.concat_tables([tag(r1, 1), tag(r2, 2)])


SQL_CRAWL_ADAPTIVE_RECRAWL = (
    "WITH RECURSIVE "
    + _SQL_PAGE_CTE.replace("WITH ", "", 1)
    + f""",
edges AS (
  SELECT url AS src, '{SITE}' || c1_path AS dst FROM pg
  UNION ALL SELECT url, '{SITE}' || c2_path FROM pg),
walk(url, depth) AS (
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 6),
walk2(url, depth) AS (
  -- pass 2: only pages the estimator saw change (X >= 1 of the
  -- three change rules doc%2, doc%3, doc%4) were expired, so the
  -- re-crawl propagates only through them
  SELECT url, 0 FROM pg WHERE doc_id = 0
  UNION ALL
  SELECT e.dst, w.depth + 1
  FROM walk2 w JOIN edges e ON e.src = w.url
  JOIN pg pd ON pd.url = e.dst
  WHERE w.depth < 6
    AND (CASE WHEN pd.doc_id % 2 = 0 THEN 1 ELSE 0 END
       + CASE WHEN pd.doc_id % 3 = 0 THEN 1 ELSE 0 END
       + CASE WHEN pd.doc_id % 4 = 0 THEN 1 ELSE 0 END) >= 1)
SELECT CAST(1 AS INTEGER) AS pass, CAST(min(depth) AS INTEGER) AS round,
       CAST(min(depth) AS INTEGER) AS depth, url
FROM walk GROUP BY url
UNION ALL
SELECT CAST(2 AS INTEGER), CAST(min(depth) AS INTEGER),
       CAST(min(depth) AS INTEGER), url
FROM walk2 GROUP BY url
"""
)


def q_sitemap_index(sf_dir: str):
    """Nested ``<sitemapindex>`` resolution (sitemaps.org: a site over
    50k urls MUST shard into child sitemaps behind an index) — the
    recursive half of the protocol that q_sitemap_seeds' flat urlset
    doesn't exercise. Each host publishes 3 child sitemaps (urls
    sharded by doc_id%3, lastmod = 2024-01-01 + doc_id%365 days) and
    one index referencing them; the engine parses the index level
    distributed (kind='sitemap' rows), FETCHES the referenced child
    documents as a partitioned hash join against the sitemap store
    (the fetch-and-ingest driver loop, expressed as a join — at scale
    the store is the fetched-pages corpus, same join), and parses the
    child level carrying provenance (host, child shard) through to
    the leaf rows. Oracle recomputes the closed form."""
    import datetime as _dt

    import ray.data as _rd

    from ..sources.sitemaps import parse_sitemap, sitemap_seeds
    from ..stages.joins import partitioned_hash_join

    corpus = multihost_corpus_dir(sf_dir)
    base = _dt.date(2024, 1, 1)

    def build_site(g: pd.DataFrame) -> pd.DataFrame:
        host = g["host"].iloc[0]
        sm_urls, xmls = [], []
        for j in range(3):
            part = g[g["doc_id"] % 3 == j].sort_values("url")
            doc = ['<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">']
            for u, d in zip(part["url"], part["doc_id"]):
                lm = (base + _dt.timedelta(days=int(d) % 365)).isoformat()
                doc.append(f"<url><loc>{u}</loc><lastmod>{lm}</lastmod></url>")
            doc.append("</urlset>")
            sm_urls.append(f"http://{host}/sitemap{j}.xml")
            xmls.append("".join(doc))
        idx = ['<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">']
        for su in sm_urls:
            idx.append(f"<sitemap><loc>{su}</loc></sitemap>")
        idx.append("</sitemapindex>")
        sm_urls.append(f"http://{host}/sitemap_index.xml")
        xmls.append("".join(idx))
        return pd.DataFrame({"sm_url": sm_urls, "xml": xmls})

    site = (
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(_host_rows, batch_format="pyarrow")
        .groupby("host")
        .map_groups(build_site, batch_format="pandas")
    )
    is_index = lambda b: b.filter(  # noqa: E731
        pc.match_substring(b["sm_url"], "sitemap_index")
    )
    store = site.map_batches(
        lambda b: b.filter(
            pc.invert(pc.match_substring(b["sm_url"], "sitemap_index"))
        ),
        batch_format="pyarrow",
    )
    refs = (
        sitemap_seeds(site.map_batches(is_index, batch_format="pyarrow"))
        .filter(lambda r: r["kind"] == "sitemap")
        .map_batches(
            lambda b: pa.table({"sm_url": b["url"]}), batch_format="pyarrow"
        )
    )
    fetched = partitioned_hash_join(refs, store, "sm_url", "sm_url")

    def parse_children(b: pa.Table) -> pa.Table:
        hosts, childs, urls, mods = [], [], [], []
        for sm_url, xml in zip(
            b["sm_url"].to_pylist(), b["xml"].to_pylist()
        ):
            kind, entries = parse_sitemap(xml, strict=True)
            assert kind == "urlset", (kind, sm_url)
            host = sm_url.split("//", 1)[1].split("/", 1)[0]
            child = int(sm_url.rsplit("sitemap", 1)[1].split(".")[0])
            for loc, lastmod, _p, _c in entries:
                hosts.append(host)
                childs.append(child)
                urls.append(loc)
                mods.append(lastmod)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "child": pa.array(childs, pa.int64()),
                "url": pa.array(urls, pa.string()),
                "lastmod": pa.array(mods, pa.string()),
            }
        )

    return fetched.map_batches(
        parse_children, batch_format="pyarrow"
    ).sort(["host", "child", "url"])


SQL_SITEMAP_INDEX = (
    _SQL_MH_CTE
    + """
SELECT host, CAST(doc_id % 3 AS BIGINT) AS child, url,
       strftime(DATE '2024-01-01' + (doc_id % 365) * INTERVAL 1 DAY,
                '%Y-%m-%d') AS lastmod
FROM pg
ORDER BY host, child, url
"""
)


def q_coverage_estimate(sf_dir: str):
    """Capture-recapture web-size estimation (Lawrence & Giles 1998 /
    Bharat & Broder 1998 — two independent crawlers each sample the
    web; the overlap of their catches estimates the population no
    single crawler saw): crawler A keeps urls with
    md5_number_lower(url) % 5 < 2, crawler B keeps
    md5_number_lower('b|' || url) % 7 < 3 (independent hash families),
    and the Lincoln-Petersen estimator N-hat = n1*n2/m (one IEEE
    division of exact int64 counts) plus the bias-corrected Chapman
    estimator (n1+1)(n2+1)//(m+1) - 1 (exact integer) recover the
    corpus size. Scale shape: membership is decided per block, the
    shuffle carries THREE int64 partial counters per block, nothing
    else — the estimator is one tiny global aggregate over any corpus
    size."""
    import ray.data as _rd
    from ray.data.aggregate import Sum as _Sum

    corpus = multihost_corpus_dir(sf_dir)

    def partials(b: pa.Table) -> pa.Table:
        import hashlib as _h

        a = np.zeros(b.num_rows, bool)
        bb = np.zeros(b.num_rows, bool)
        for i, u in enumerate(b["url"].to_pylist()):
            ha = int.from_bytes(_h.md5(u.encode()).digest()[8:16], "little")
            hb = int.from_bytes(
                _h.md5(f"b|{u}".encode()).digest()[8:16], "little"
            )
            a[i] = ha % 5 < 2
            bb[i] = hb % 7 < 3
        return pa.table(
            {
                "n1": pa.array([int(a.sum())], pa.int64()),
                "n2": pa.array([int(bb.sum())], pa.int64()),
                "m": pa.array([int((a & bb).sum())], pa.int64()),
            }
        )

    agg = (
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(partials, batch_format="pyarrow")
        .aggregate(
            _Sum("n1", alias_name="n1"),
            _Sum("n2", alias_name="n2"),
            _Sum("m", alias_name="m"),
        )
    )
    n1, n2, m = int(agg["n1"]), int(agg["n2"]), int(agg["m"])
    return _coverage_table(n1, n2, m)


def _coverage_table(n1: int, n2: int, m: int) -> pa.Table:
    """Capture-recapture result row. DuckDB yields NULL on division by
    zero, so a disjoint sample pair (m = 0) must produce a null
    lp_est here, not a ZeroDivisionError."""
    return pa.table(
        {
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "m": pa.array([m], pa.int64()),
            "chapman_est": pa.array(
                [(n1 + 1) * (n2 + 1) // (m + 1) - 1], pa.int64()
            ),
            "lp_est": pa.array(
                [n1 * n2 / m if m else None], pa.float64()
            ),
        }
    )


SQL_COVERAGE_ESTIMATE = (
    _SQL_MH_CTE
    + """,
f AS (
  SELECT md5_number_lower(url) % 5 < 2 AS a,
         md5_number_lower('b|' || url) % 7 < 3 AS b
  FROM pg),
c AS (
  SELECT CAST(sum(CASE WHEN a THEN 1 ELSE 0 END) AS BIGINT) AS n1,
         CAST(sum(CASE WHEN b THEN 1 ELSE 0 END) AS BIGINT) AS n2,
         CAST(sum(CASE WHEN a AND b THEN 1 ELSE 0 END) AS BIGINT) AS m
  FROM f)
SELECT n1, n2, m,
       CAST((n1 + 1) * (n2 + 1) // (m + 1) - 1 AS BIGINT) AS chapman_est,
       CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE) / CAST(m AS DOUBLE) AS lp_est
FROM c
"""
)


def q_zipf_buckets(sf_dir: str):
    """Frequency-of-frequencies table in log2 buckets — the lexical
    twin of degree_distribution and the standard Zipf/Estoup evidence
    plot (how many terms occur [2^b, 2^(b+1)) times; Zipfian corpora
    put ~half the vocabulary in bucket 0 = hapax legomena, the
    statistic LNRE vocabulary models and Good-Turing smoothing start
    from). Two shuffles, both combiner-pruned: per-block term-Counter
    partials -> one term-keyed Sum groupby (distinct terms only, never
    per-token rows), then per-block bucket partials -> one O(buckets)
    groupby carrying term and token subtotals. Exact int64; bucket
    exponents via np.frexp (exact), hapax_share is derivable from the
    rows rather than emitted as a float. The raw heap text is
    frequency-UNIFORM (a 2-bucket table — no gate), so a 1/k Zipfian
    overlay is planted: term z_k occurs once in every k-th document
    (k = 1..64), giving the exact harmonic frequency spectrum the
    table exists to show."""
    from ray.data.aggregate import Sum as _Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = docs.map_batches(ts.vocab_partial_batch, batch_format="pyarrow")

    def zipf_overlay(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        terms, tfs, dfs = [], [], []
        for k in range(1, 65):
            c = int((ids % k == 0).sum())
            if c:
                terms.append(f"z{k}")
                tfs.append(c)
                dfs.append(c)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "total_tf": pa.array(tfs, pa.int64()),
                "df": pa.array(dfs, pa.int64()),
            }
        )

    partials = partials.union(
        docs.map_batches(zipf_overlay, batch_format="pyarrow")
    )
    tf = partials.groupby("term").aggregate(
        _Sum("total_tf", alias_name="tf")
    )

    def bucketize(b: pa.Table) -> pa.Table:
        f = b["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        bk = (np.frexp(f.astype(np.float64))[1] - 1).astype(np.int64)
        uniq, inv = np.unique(bk, return_inverse=True)
        return pa.table(
            {
                "bucket": pa.array(uniq),
                "n_terms": pa.array(np.bincount(inv).astype(np.int64)),
                "tokens": pa.array(
                    np.bincount(inv, weights=f).astype(np.int64)
                ),
            }
        )

    return (
        tf.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(
            _Sum("n_terms", alias_name="n_terms"),
            _Sum("tokens", alias_name="tokens"),
        )
    )


SQL_ZIPF_BUCKETS = """
WITH t AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents
  UNION ALL
  SELECT 'z' || k.k
  FROM documents, (SELECT unnest(generate_series(1, 64)) AS k) k
  WHERE doc_id % k.k = 0),
tf AS (SELECT term, CAST(count(*) AS BIGINT) AS f FROM t GROUP BY term)
SELECT CAST(floor(log2(f)) AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(f) AS BIGINT) AS tokens
FROM tf GROUP BY bucket
"""


def q_postings_compress(sf_dir: str):
    """Inverted-index compression sizing (Zobel & Moffat 2006,
    "Inverted files for text search engines" — the d-gap accounting
    an index store runs before choosing codes, the IR twin of
    graph_compress): per term, sort the postings (doc ids), take
    d-gaps (first gap = doc_id + 1 so every value is >= 1, rest =
    delta), and charge each gap its Elias-gamma bit cost
    (2*floor(log2(g))+1 for g >= 1) and LEB128 varint byte cost.
    Frequent terms have DENSE postings -> tiny gaps -> few bits/gap;
    rare terms cost ~log2(N) bits/gap — the df-bucketed table shows
    exactly that trade, which is why gamma-coded indexes fit in a
    fraction of the raw id array. Shuffle shape: per-block (term,
    doc) partials -> ONE term-keyed groupby whose reducer computes the
    gap costs for its own postings (a group owns its term's full
    list), then an O(buckets) groupby — no second wide exchange.
    The uniform heap vocabulary clusters in 1-2 df buckets, so the
    zipf_buckets overlay is planted here too (term z_k posted in
    every k-th doc, k=1..64): df spans the bucket range AND the gap
    structure varies with k — z_1's gaps are all 1 (the dense-list
    best case), z_64's are 64 (the sparse tail)."""
    from ray.data.aggregate import Sum as _Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = docs.map_batches(
        ts.inverted_partial_batch, batch_format="pyarrow"
    )

    def zipf_postings(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        terms, dids = [], []
        for k in range(1, 65):
            sel = ids[ids % k == 0]
            terms.extend([f"z{k}"] * sel.size)
            dids.extend(sel.tolist())
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "doc_id": pa.array(dids, pa.int64()),
            }
        )

    partials = partials.select_columns(["term", "doc_id"]).union(
        docs.map_batches(zipf_postings, batch_format="pyarrow")
    )

    def gap_costs(g: pd.DataFrame) -> pd.DataFrame:
        # np.unique also guards a text token colliding with an overlay
        # term (duplicate (term, doc) would fabricate a zero gap)
        ids = np.unique(g["doc_id"].to_numpy(np.int64))
        gaps = np.diff(ids, prepend=np.int64(-1))  # first gap = id+1
        e = (np.frexp(gaps.astype(np.float64))[1] - 1).astype(np.int64)
        df = len(ids)
        return pd.DataFrame(
            {
                "df_bucket": [
                    int(np.frexp(np.float64(df))[1] - 1)
                ],
                "n_terms": [1],
                "n_postings": [df],
                "gamma_bits": [int((2 * e + 1).sum())],
                "varint_bytes": [int((e // 7 + 1).sum())],
            }
        )

    per_term = partials.groupby("term").map_groups(
        gap_costs, batch_format="pandas"
    )
    return per_term.groupby("df_bucket").aggregate(
        _Sum("n_terms", alias_name="n_terms"),
        _Sum("n_postings", alias_name="n_postings"),
        _Sum("gamma_bits", alias_name="gamma_bits"),
        _Sum("varint_bytes", alias_name="varint_bytes"),
    )


SQL_POSTINGS_COMPRESS = """
WITH t AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
    FROM documents
    UNION ALL
    SELECT doc_id, 'z' || k.k
    FROM documents, (SELECT unnest(generate_series(1, 64)) AS k) k
    WHERE doc_id % k.k = 0)),
g AS (
  SELECT term,
         CAST(doc_id AS BIGINT)
           - CAST(coalesce(lag(doc_id) OVER (
               PARTITION BY term ORDER BY doc_id), -1) AS BIGINT) AS gap
  FROM t),
costs AS (
  SELECT term, CAST(count(*) AS BIGINT) AS df,
         CAST(sum(2 * CAST(floor(log2(gap)) AS BIGINT) + 1) AS BIGINT)
           AS gbits,
         CAST(sum(CAST(floor(log2(gap)) AS BIGINT) // 7 + 1) AS BIGINT)
           AS vbytes
  FROM g GROUP BY term)
SELECT CAST(floor(log2(df)) AS BIGINT) AS df_bucket,
       CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(df) AS BIGINT) AS n_postings,
       CAST(sum(gbits) AS BIGINT) AS gamma_bits,
       CAST(sum(vbytes) AS BIGINT) AS varint_bytes
FROM costs GROUP BY df_bucket
"""


def q_robots_sitemaps(sf_dir: str):
    """robots.txt ``Sitemap:`` discovery (the REP extension directive
    sitemaps.org designates as THE discovery channel — a crawler that
    only walks links never finds an unlinked sitemap): each host's
    robots.txt carries two Sitemap: directives pointing at its url
    shards (doc_id%2), buried between Disallow noise, a foreign-field
    line, mixed-case keys and a BOM-ish comment — the robustness the
    state/politeness.py:sitemaps_in_robots kernel claims; discovery
    parses the robots bodies distributed, the referenced sitemaps are
    FETCHED via a partitioned hash join against the sitemap store,
    and the urlset parse carries (host, shard) provenance to the leaf
    rows (same join-expressed fetch loop as q_sitemap_index)."""
    import datetime as _dt

    import ray.data as _rd

    from ..sources.sitemaps import parse_sitemap
    from ..state.politeness import sitemaps_in_robots
    from ..stages.joins import partitioned_hash_join

    corpus = multihost_corpus_dir(sf_dir)
    base = _dt.date(2024, 1, 1)

    def build_site(g: pd.DataFrame) -> pd.DataFrame:
        host = g["host"].iloc[0]
        sm_urls, xmls = [], []
        for j in range(2):
            part = g[g["doc_id"] % 2 == j].sort_values("url")
            doc = ['<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">']
            for u, d in zip(part["url"], part["doc_id"]):
                lm = (base + _dt.timedelta(days=int(d) % 365)).isoformat()
                doc.append(f"<url><loc>{u}</loc><lastmod>{lm}</lastmod></url>")
            doc.append("</urlset>")
            sm_urls.append(f"http://{host}/maps/part{j}.xml")
            xmls.append("".join(doc))
        robots = "\n".join(
            [
                "# synthetic robots",
                "User-agent: *",
                "Disallow: /private/",
                f"SITEMAP: {sm_urls[0]}",
                "Crawl-delay: 2",
                "Unknown-field: ignored",
                f"sitemap:   {sm_urls[1]}",
                "Disallow: /tmp/",
            ]
        )
        sm_urls.append(f"http://{host}/robots.txt")
        xmls.append(robots)
        return pd.DataFrame({"sm_url": sm_urls, "xml": xmls})

    site = (
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(_host_rows, batch_format="pyarrow")
        .groupby("host")
        .map_groups(build_site, batch_format="pandas")
    )
    store = site.map_batches(
        lambda b: b.filter(
            pc.invert(pc.match_substring(b["sm_url"], "robots.txt"))
        ),
        batch_format="pyarrow",
    )

    def discover(b: pa.Table) -> pa.Table:
        refs = []
        for sm_url, body in zip(
            b["sm_url"].to_pylist(), b["xml"].to_pylist()
        ):
            if sm_url.endswith("robots.txt"):
                refs.extend(sitemaps_in_robots(body))
        return pa.table({"sm_url": pa.array(refs, pa.string())})

    refs = site.map_batches(discover, batch_format="pyarrow")
    fetched = partitioned_hash_join(refs, store, "sm_url", "sm_url")

    def parse_children(b: pa.Table) -> pa.Table:
        hosts, childs, urls, mods = [], [], [], []
        for sm_url, xml in zip(b["sm_url"].to_pylist(), b["xml"].to_pylist()):
            kind, entries = parse_sitemap(xml, strict=True)
            assert kind == "urlset", (kind, sm_url)
            host = sm_url.split("//", 1)[1].split("/", 1)[0]
            child = int(sm_url.rsplit("part", 1)[1].split(".")[0])
            for loc, lastmod, _p, _c in entries:
                hosts.append(host)
                childs.append(child)
                urls.append(loc)
                mods.append(lastmod)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "shard": pa.array(childs, pa.int64()),
                "url": pa.array(urls, pa.string()),
                "lastmod": pa.array(mods, pa.string()),
            }
        )

    return fetched.map_batches(
        parse_children, batch_format="pyarrow"
    ).sort(["host", "shard", "url"])


SQL_ROBOTS_SITEMAPS = (
    _SQL_MH_CTE
    + """
SELECT host, CAST(doc_id % 2 AS BIGINT) AS shard, url,
       strftime(DATE '2024-01-01' + (doc_id % 365) * INTERVAL 1 DAY,
                '%Y-%m-%d') AS lastmod
FROM pg
ORDER BY host, shard, url
"""
)


def q_frontier_wait_times(sf_dir: str):
    """Frontier queue-wait telemetry under throttling (the Mercator
    back-queue starvation statistic: how many rounds a discovered URL
    sits in pending before its host's token bucket serves it —
    uniform-BFS waits are all 0, so this table only exists because
    politeness binds): runs the exact multihost token-bucket gate
    (7 hosts x refill 2 / burst 4), derives each fetched URL's
    discovery round as min(fetch round of its link parents) via one
    partitioned join of the REAL extracted edge set against the
    (url, round) order, and histograms wait = fetch - discovery - 1.
    Seeds (round 0, no discovering parent) are excluded. Scale shape:
    the order table is round-streamed parquet at 10^10 (here the gate
    corpus's in-memory order), edges join it partitioned, the
    histogram is O(max wait) rows."""
    import ray.data as _rd
    from ray.data.aggregate import Count as _Count

    from ..stages.joins import partitioned_hash_join
    from .crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        n_shards=4,
        max_depth=6,
        max_rounds=96,
        per_host_budget=2,
        politeness="token_bucket",
    )
    corpus = multihost_corpus_dir(sf_dir)
    res = run_crawl(corpus, [_mh_seed(sf_dir)], cfg)
    ord_tbl = res.order.select(["round", "url"])

    pages = _rd.read_parquet(corpus, columns=["url", "html"])

    def edge_rows(b: pa.Table) -> pa.Table:
        items = extract_batch(b)
        srcs, dsts = [], []
        for src, links in zip(
            items["url"].to_pylist(), items["links"].to_pylist()
        ):
            for d in dict.fromkeys(links):
                srcs.append(src)
                dsts.append(d)
        return pa.table(
            {
                "src": pa.array(srcs, pa.string()),
                "dst": pa.array(dsts, pa.string()),
            }
        )

    edges = pages.map_batches(edge_rows, batch_format="pyarrow")
    ord_src = _rd.from_arrow(
        ord_tbl.rename_columns(["parent_round", "src"])
    )
    ord_dst = _rd.from_arrow(ord_tbl.rename_columns(["round", "dst"]))

    j = partitioned_hash_join(edges, ord_src, "src", "src")
    minp = j.groupby("dst").aggregate(
        Min("parent_round", alias_name="parent_round")
    )
    j2 = partitioned_hash_join(minp, ord_dst, "dst", "dst")

    def waits(b: pa.Table) -> pa.Table:
        r = b["round"].cast(pa.int64())
        p = b["parent_round"].cast(pa.int64())
        t = pa.table(
            {"round": r, "wait": pc.subtract(pc.subtract(r, p), 1)}
        )
        return t.filter(pc.greater(t["round"], 0))

    return (
        j2.map_batches(waits, batch_format="pyarrow")
        .groupby("wait")
        .aggregate(_Count(alias_name="n_urls"))
    )


SQL_FRONTIER_WAIT_TIMES = (
    _SQL_MH_BUDGET_SIM
    + """,
ord AS (
  SELECT CAST(min(round) - 1 AS INTEGER) AS round, url
  FROM sim WHERE done AND url <> '' GROUP BY url),
d2 AS (
  SELECT o.url, o.round, min(p.round) AS parent_round
  FROM ord o
  JOIN edges e ON e.dst = o.url
  JOIN ord p ON p.url = e.src
  WHERE o.round > 0
  GROUP BY o.url, o.round)
SELECT CAST(round - parent_round - 1 AS BIGINT) AS wait,
       CAST(count(*) AS BIGINT) AS n_urls
FROM d2 GROUP BY 1
"""
)


def q_crawl_feed_seeded(sf_dir: str):
    """Feed-driven fetch scheduling — the poll loop a news crawler
    runs (discover fresh URLs from feeds, fetch newest-first under
    politeness): every host's RSS + Atom feeds (the q_feed_discovery
    corpus: 10 freshest even-doc items as RSS, 10 freshest odd-doc as
    Atom) are parsed DISTRIBUTED, each item's recency score = days
    since 2024-01-01 resolves FROM THE PARSED pub_date (the
    arithmetic shortcut lives only in the oracle), and a score_desc
    crawl seeded with every feed URL at depth 0 (max_depth=0 — the
    feed already lists what to fetch, pure scheduling) drains
    per-host top-2 by (-score, url). Closed-form ranked-batch oracle
    like sitemap_priority_crawl's."""
    import datetime as _dt

    import ray.data as _rd

    from ..sources.feeds import feed_items, rfc822_date
    from .crawl import CrawlConfig, run_crawl

    corpus = multihost_corpus_dir(sf_dir)
    base = _dt.date(2024, 1, 1)

    def build_feeds(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(day=g["doc_id"] % 365).sort_values(
            ["day", "url"], ascending=[False, True]
        )
        host = g["host"].iloc[0]
        rss = ['<rss version="2.0"><channel><title>', host, "</title>"]
        even = g[g["doc_id"] % 2 == 0].head(10)
        for u, d in zip(even["url"], even["day"]):
            pub = rfc822_date(base + _dt.timedelta(days=int(d)))
            rss.append(f"<item><link>{u}</link><pubDate>{pub}</pubDate></item>")
        rss.append("</channel></rss>")
        atom = ['<feed xmlns="http://www.w3.org/2005/Atom">']
        odd = g[g["doc_id"] % 2 == 1].head(10)
        for u, d in zip(odd["url"], odd["day"]):
            iso = (base + _dt.timedelta(days=int(d))).isoformat()
            atom.append(
                f'<entry><link href="{u}"/><updated>{iso}T00:00:00Z</updated></entry>'
            )
        atom.append("</feed>")
        return pd.DataFrame(
            {"host": [host, host], "xml": ["".join(rss), "".join(atom)]}
        )

    feeds = (
        _rd.read_parquet(corpus, columns=["url"])
        .map_batches(_host_rows, batch_format="pyarrow")
        .groupby("host")
        .map_groups(build_feeds, batch_format="pandas")
    )
    scores = {
        r["url"]: (_dt.date.fromisoformat(r["pub_date"]) - base).days
        for r in feed_items(feeds).take_all()
    }
    cfg = CrawlConfig(
        n_shards=4,
        max_depth=0,
        max_rounds=128,
        per_host_budget=2,
        priority="score_desc",
        priority_scores=scores,
    )
    res = run_crawl(corpus, sorted(scores), cfg)
    return res.order


SQL_CRAWL_FEED_SEEDED = (
    _SQL_MH_CTE
    + """,
items AS (
  SELECT host, url, doc_id % 365 AS day,
         row_number() OVER (
           PARTITION BY host, doc_id % 2
           ORDER BY doc_id % 365 DESC, url) AS rn
  FROM pg)
SELECT CAST((row_number() OVER (
           PARTITION BY host ORDER BY day DESC, url) - 1) // 2
       AS INTEGER) AS round,
       CAST(0 AS INTEGER) AS depth, url
FROM items WHERE rn <= 10
"""
)


QUERIES = {
    # relational / reference operator mappings
    "q1_pricing_summary": q_q1_pricing_summary,
    "segment_revenue": q_segment_revenue,
    "order_lineitem_join": q_order_lineitem_join,
    "shipping_priority": q_shipping_priority,
    "anti_join_unused_parts": q_anti_join_unused_parts,
    "recency_top10": q_recency_top10,
    "frontier_order_topk": q_frontier_order_topk,
    "event_type_histogram": q_event_type_histogram,
    "distinct_users_per_type": q_distinct_users_per_type,
    "storage_stats": q_storage_stats,
    "log_durations": q_log_durations,
    "upsert_latest_event": q_upsert_latest_event,
    "edges_dedup": q_edges_dedup,
    "union_dedup": q_union_dedup,
    # url/page kernels + crawl
    "url_canonicalize": q_url_canonicalize,
    "filter_en": q_filter_en,
    "whitespace_normalize": q_whitespace_normalize,
    "extract_text": q_extract_text,
    "extract_children": q_extract_children,
    "link_edges": q_link_edges,
    "crawl_pages_bfs": q_crawl_pages_bfs,
    "crawl_metrics": q_crawl_metrics,
    "crawl_pages_bfs_404": q_crawl_pages_bfs_404,
    "crawl_pages_bfs_budget": q_crawl_pages_bfs_budget,
    "crawl_ttl_recrawl": q_crawl_ttl_recrawl,
    "crawl_multihost_bfs": q_crawl_multihost_bfs,
    "crawl_multihost_budget": q_crawl_multihost_budget,
    "crawl_delay_budget": q_crawl_delay_budget,
    "crawl_traps": q_crawl_traps,
    "crawl_trap_guard": q_crawl_trap_guard,
    "crawl_retry_backoff": q_crawl_retry_backoff,
    "crawl_metrics_retry": q_crawl_metrics_retry,
    "crawl_capped_budget": q_crawl_capped_budget,
    "crawl_ip_groups": q_crawl_ip_groups,
    "crawl_meta_robots": q_crawl_meta_robots,
    "canonical_consolidate": q_canonical_consolidate,
    "hreflang_clusters": q_hreflang_clusters,
    "crawl_backlink_priority": q_crawl_backlink_priority,
    "crawl_opic": q_crawl_opic,
    "crawl_relevance_priority": q_crawl_relevance_priority,
    "crawl_pagerank_priority": q_crawl_pagerank_priority,
    "mirror_hosts": q_mirror_hosts,
    "sitemap_priority_crawl": q_sitemap_priority_crawl,
    "robots_wildcards": q_robots_wildcards,
    "crawl_robots_rfc": q_crawl_robots_rfc,
    "sitemap_recrawl": q_sitemap_recrawl,
    "url_normalize": q_url_normalize,
    "crawl_redirects": q_crawl_redirects,
    "crawl_full_policy": q_crawl_full_policy,
    "crawl_metrics_budget": q_crawl_metrics_budget,
    "crawl_multihost_capped": q_crawl_multihost_capped,
    "crawl_multihost_domains": q_crawl_multihost_domains,
    "crawl_priority_short": q_crawl_priority_short,
    "crawl_priority_indegree": q_crawl_priority_indegree,
    "anchor_texts": q_anchor_texts,
    "crawl_robots": q_crawl_robots,
    "crawl_salted": q_crawl_salted,
    "crawl_graph_bfs": q_crawl_graph_bfs,
    "js_need": q_js_need,
    "content_predicates": q_content_predicates,
    "tumbling_window": q_tumbling_window,
    "session_windows": q_session_windows,
    "asof_last_order": q_asof_last_order,
    "asof_last_order_big": q_asof_last_order_big,
    "approx_distinct_users": q_approx_distinct_users,
    "approx_price_quantiles": q_approx_price_quantiles,
    # text analysis
    "token_counts": q_token_counts,
    "quality_scores": q_quality_scores,
    "lang_id": q_lang_id,
    "fingerprints": q_fingerprints,
    "duplicate_ngrams": q_duplicate_ngrams,
    "dup_doc_coverage": q_dup_doc_coverage,
    "domain_mix": q_domain_mix,
    "dsir_topk": q_dsir_topk,
    "snapshot_delta": q_snapshot_delta,
    "index_delta": q_index_delta,
    "recrawl_priority": q_recrawl_priority,
    "crawl_recrawl_scheduled": q_crawl_recrawl_scheduled,
    "host_budgets": q_host_budgets,
    "surt_index": q_surt_index,
    "warc_roundtrip": q_warc_roundtrip,
    "wet_export": q_wet_export,
    "wat_export": q_wat_export,
    "soft404": q_soft404,
    "registered_domains": q_registered_domains,
    "boilerplate_strip": q_boilerplate_strip,
    "dust_rules": q_dust_rules,
    "lexical_near_pairs": q_lexical_near_pairs,
    "cms_term_counts": q_cms_term_counts,
    "hll_md5_distinct": q_hll_md5_distinct,
    "lsh_components": q_lsh_components,
    "harmonic_centrality": q_harmonic_centrality,
    "hyperball_md5": q_hyperball_md5,
    "mime_sniff": q_mime_sniff,
    "warc_revisit": q_warc_revisit,
    "bowtie_components": q_bowtie_components,
    "local_supplier_volume": q_local_supplier_volume,
    "customer_distribution": q_customer_distribution,
    "crawl_conditional_get": q_crawl_conditional_get,
    "triangle_counts": q_triangle_counts,
    "k_core": q_k_core,
    "lpa_communities": q_lpa_communities,
    "distance_histogram": q_distance_histogram,
    "temperature_resample": q_temperature_resample,
    "kmv_distinct_users": q_kmv_distinct_users,
    "vocab_growth": q_vocab_growth,
    "degree_distribution": q_degree_distribution,
    "graph_compress": q_graph_compress,
    "salsa_scores": q_salsa_scores,
    "cdx_shards": q_cdx_shards,
    "feed_discovery": q_feed_discovery,
    "change_rate_classes": q_change_rate_classes,
    "crawl_adaptive_recrawl": q_crawl_adaptive_recrawl,
    "sitemap_index": q_sitemap_index,
    "coverage_estimate": q_coverage_estimate,
    "zipf_buckets": q_zipf_buckets,
    "postings_compress": q_postings_compress,
    "robots_sitemaps": q_robots_sitemaps,
    "frontier_wait_times": q_frontier_wait_times,
    "crawl_feed_seeded": q_crawl_feed_seeded,
    "reciprocal_links": q_reciprocal_links,
    "shingle_containment": q_shingle_containment,
    "idn_hosts": q_idn_hosts,
    "index_freshness": q_index_freshness,
    "crawl_from_warc": q_crawl_from_warc,
    "crawl_host_discovery": q_crawl_host_discovery,
    "curation_v2": q_curation_v2,
    "crawl_domain_budget": q_crawl_domain_budget,
    "crawl_fairness": q_crawl_fairness,
    "sitemap_seeds": q_sitemap_seeds,
    "host_graph": q_host_graph,
    "bpe_merges": q_bpe_merges,
    "bpe_encode": q_bpe_encode,
    "curation_pipeline": q_curation_pipeline,
    "gopher_quality": q_gopher_quality,
    "price_quantiles": q_price_quantiles,
    "top_orders_per_customer": q_top_orders_per_customer,
    "sliding_window": q_sliding_window,
    "interval_join": q_interval_join,
    "c4_line_filter": q_c4_line_filter,
    "stratified_sample": q_stratified_sample,
    "vocab_stats": q_vocab_stats,
    "inverted_index": q_inverted_index,
    "inverted_index_sharded": q_inverted_index_sharded,
    "bigram_counts": q_bigram_counts,
    "bigram_lift_topk": q_bigram_lift_topk,
    "line_dedup": q_line_dedup,
    "top_principal_component": q_top_principal_component,
    "train_val_split": q_train_val_split,
    "dedup_survivors": q_dedup_survivors,
    "dedup_span_removal": q_dedup_span_removal,
    "decontaminate": q_decontaminate,
    "weighted_sample": q_weighted_sample,
    "tfidf_top_terms": q_tfidf_top_terms,
    "bm25_topk": q_bm25_topk,
    "search_rank_fusion": q_search_rank_fusion,
    # vector clustering
    "label_centroids": q_label_centroids,
    "kmeans_assign": q_kmeans_assign,
    "semdedup": q_semdedup,
    "percentile_filter": q_percentile_filter,
    "percentile_rank": q_percentile_rank,
    "profile_orders": q_profile_orders,
    "embedding_topk_quantized": q_embedding_topk_quantized,
    "heavy_hitters": q_heavy_hitters,
    "pii_redact": q_pii_redact,
    "repetition_filter": q_repetition_filter,
    "token_budget_select": q_token_budget_select,
    "pack_sequences": q_pack_sequences,
    "shuffle_rank": q_shuffle_rank,
    "perplexity_buckets": q_perplexity_buckets,
    # graph / scale joins
    "pagerank": q_pagerank,
    "trustrank": q_trustrank,
    "spam_mass": q_spam_mass,
    "hits_scores": q_hits_scores,
    "bloom_semi_join": q_bloom_semi_join,
    # dedup / similarity
    "exact_dedup": q_exact_dedup,
    "ngram_jaccard": q_ngram_jaccard,
    "dedup_clusters": q_dedup_clusters,
    "cosine_near_pairs": q_cosine_near_pairs,
    "embedding_topk": q_embedding_topk,
    # rows-only (non-SQL-expressible)
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "rolling_fingerprints": q_rolling_fingerprints,
    # exact-oracle md5/codepoint companions of the three above (r4)
    "rolling_fp_cp": q_rolling_fp_cp,
    "minhash_md5_sigs": q_minhash_md5_sigs,
    "minhash_md5_pairs": q_minhash_md5_pairs,
    "simhash_md5": q_simhash_md5,
    "lsh_topk": q_lsh_topk,
    "ivf_topk": q_ivf_topk,
    "pq_topk": q_pq_topk,
    "ivfpq_topk": q_ivfpq_topk,
    "cosine_near_lsh": q_cosine_near_lsh,
    "chunk_documents": q_chunk_documents,
    "embed_chunks": q_embed_chunks,
}

ORACLE_SQL = {
    "rolling_fp_cp": SQL_ROLLING_FP_CP,
    "minhash_md5_sigs": SQL_MINHASH_MD5_SIGS,
    "minhash_md5_pairs": SQL_MINHASH_MD5_PAIRS,
    "simhash_md5": SQL_SIMHASH_MD5,
    "q1_pricing_summary": SQL_Q1,
    "segment_revenue": SQL_SEGMENT_REVENUE,
    "order_lineitem_join": SQL_ORDER_LINEITEM_JOIN,
    "shipping_priority": SQL_SHIPPING_PRIORITY,
    "anti_join_unused_parts": SQL_ANTI_JOIN_UNUSED_PARTS,
    "recency_top10": SQL_RECENCY_TOP10,
    "frontier_order_topk": SQL_FRONTIER_ORDER_TOPK,
    "event_type_histogram": SQL_EVENT_TYPE_HISTOGRAM,
    "distinct_users_per_type": SQL_DISTINCT_USERS_PER_TYPE,
    "storage_stats": SQL_STORAGE_STATS,
    "log_durations": SQL_LOG_DURATIONS,
    "upsert_latest_event": SQL_UPSERT_LATEST_EVENT,
    "edges_dedup": SQL_EDGES_DEDUP,
    "union_dedup": SQL_UNION_DEDUP,
    "url_canonicalize": SQL_URL_CANONICALIZE,
    "filter_en": SQL_FILTER_EN,
    "whitespace_normalize": SQL_WHITESPACE_NORMALIZE,
    "extract_text": SQL_EXTRACT_TEXT,
    "extract_children": SQL_EXTRACT_CHILDREN,
    "link_edges": SQL_LINK_EDGES,
    "crawl_pages_bfs": SQL_CRAWL_PAGES_BFS,
    "crawl_metrics": SQL_CRAWL_METRICS,
    "crawl_pages_bfs_404": SQL_CRAWL_PAGES_BFS,
    "crawl_pages_bfs_budget": SQL_CRAWL_PAGES_BFS_BUDGET,
    "crawl_ttl_recrawl": SQL_CRAWL_TTL_RECRAWL,
    "crawl_multihost_bfs": SQL_CRAWL_MULTIHOST_BFS,
    "crawl_multihost_budget": SQL_CRAWL_MULTIHOST_BUDGET,
    "crawl_delay_budget": SQL_CRAWL_DELAY_BUDGET,
    "crawl_traps": SQL_CRAWL_TRAPS,
    "crawl_trap_guard": SQL_CRAWL_TRAP_GUARD,
    "crawl_retry_backoff": SQL_CRAWL_RETRY_BACKOFF,
    "crawl_metrics_retry": SQL_CRAWL_METRICS_RETRY,
    "crawl_capped_budget": SQL_CRAWL_CAPPED_BUDGET,
    "crawl_ip_groups": SQL_CRAWL_IP_GROUPS,
    "crawl_meta_robots": SQL_CRAWL_META_ROBOTS,
    "canonical_consolidate": SQL_CANONICAL_CONSOLIDATE,
    "hreflang_clusters": SQL_HREFLANG_CLUSTERS,
    "crawl_backlink_priority": SQL_CRAWL_BACKLINK_PRIORITY,
    "crawl_opic": SQL_CRAWL_OPIC,
    "crawl_relevance_priority": SQL_CRAWL_RELEVANCE_PRIORITY,
    "crawl_pagerank_priority": SQL_CRAWL_PAGERANK_PRIORITY,
    "mirror_hosts": SQL_MIRROR_HOSTS,
    "sitemap_priority_crawl": SQL_SITEMAP_PRIORITY_CRAWL,
    "robots_wildcards": SQL_ROBOTS_WILDCARDS,
    "crawl_robots_rfc": SQL_CRAWL_ROBOTS_RFC,
    "sitemap_recrawl": SQL_SITEMAP_RECRAWL,
    "url_normalize": SQL_URL_NORMALIZE,
    "crawl_redirects": SQL_CRAWL_REDIRECTS,
    "crawl_full_policy": SQL_CRAWL_FULL_POLICY,
    "crawl_metrics_budget": SQL_CRAWL_METRICS_BUDGET,
    "crawl_multihost_capped": SQL_CRAWL_MULTIHOST_CAPPED,
    "crawl_multihost_domains": SQL_CRAWL_MULTIHOST_DOMAINS,
    "crawl_priority_short": SQL_CRAWL_PRIORITY_SHORT,
    "crawl_priority_indegree": SQL_CRAWL_PRIORITY_INDEGREE,
    "anchor_texts": SQL_ANCHOR_TEXTS,
    "crawl_robots": SQL_CRAWL_ROBOTS,
    "crawl_salted": SQL_CRAWL_PAGES_BFS,
    "crawl_graph_bfs": SQL_CRAWL_GRAPH_BFS,
    "js_need": SQL_JS_NEED,
    "content_predicates": SQL_CONTENT_PREDICATES,
    "tumbling_window": SQL_TUMBLING_WINDOW,
    "session_windows": SQL_SESSION_WINDOWS,
    "asof_last_order": SQL_ASOF_LAST_ORDER,
    "asof_last_order_big": SQL_ASOF_LAST_ORDER,
    "token_counts": SQL_TOKEN_COUNTS,
    "quality_scores": SQL_QUALITY_SCORES,
    "lang_id": SQL_LANG_ID,
    "fingerprints": SQL_FINGERPRINTS,
    "duplicate_ngrams": SQL_DUPLICATE_NGRAMS,
    "dup_doc_coverage": SQL_DUP_DOC_COVERAGE,
    "domain_mix": SQL_DOMAIN_MIX,
    "dsir_topk": SQL_DSIR_TOPK,
    "snapshot_delta": SQL_SNAPSHOT_DELTA,
    "index_delta": SQL_INDEX_DELTA,
    "recrawl_priority": SQL_RECRAWL_PRIORITY,
    "crawl_recrawl_scheduled": SQL_CRAWL_RECRAWL_SCHEDULED,
    "host_budgets": SQL_HOST_BUDGETS,
    "surt_index": SQL_SURT_INDEX,
    "warc_roundtrip": SQL_WARC_ROUNDTRIP,
    "wet_export": SQL_WET_EXPORT,
    "wat_export": SQL_WAT_EXPORT,
    "soft404": SQL_SOFT404,
    "registered_domains": SQL_REGISTERED_DOMAINS,
    "boilerplate_strip": SQL_BOILERPLATE_STRIP,
    "dust_rules": SQL_DUST_RULES,
    "lexical_near_pairs": SQL_LEXICAL_NEAR_PAIRS,
    "cms_term_counts": SQL_CMS_TERM_COUNTS,
    "hll_md5_distinct": SQL_HLL_MD5_DISTINCT,
    "lsh_components": SQL_LSH_COMPONENTS,
    "harmonic_centrality": SQL_HARMONIC_CENTRALITY,
    "hyperball_md5": SQL_HYPERBALL_MD5,
    "mime_sniff": SQL_MIME_SNIFF,
    "warc_revisit": SQL_WARC_REVISIT,
    "bowtie_components": SQL_BOWTIE_COMPONENTS,
    "local_supplier_volume": SQL_LOCAL_SUPPLIER_VOLUME,
    "customer_distribution": SQL_CUSTOMER_DISTRIBUTION,
    "crawl_conditional_get": SQL_CRAWL_CONDITIONAL_GET,
    "triangle_counts": SQL_TRIANGLE_COUNTS,
    "k_core": SQL_K_CORE,
    "lpa_communities": SQL_LPA_COMMUNITIES,
    "distance_histogram": SQL_DISTANCE_HISTOGRAM,
    "temperature_resample": SQL_TEMPERATURE_RESAMPLE,
    "kmv_distinct_users": SQL_KMV_DISTINCT_USERS,
    "vocab_growth": SQL_VOCAB_GROWTH,
    "degree_distribution": SQL_DEGREE_DISTRIBUTION,
    "graph_compress": SQL_GRAPH_COMPRESS,
    "salsa_scores": SQL_SALSA_SCORES,
    "cdx_shards": SQL_CDX_SHARDS,
    "feed_discovery": SQL_FEED_DISCOVERY,
    "change_rate_classes": SQL_CHANGE_RATE_CLASSES,
    "crawl_adaptive_recrawl": SQL_CRAWL_ADAPTIVE_RECRAWL,
    "sitemap_index": SQL_SITEMAP_INDEX,
    "coverage_estimate": SQL_COVERAGE_ESTIMATE,
    "zipf_buckets": SQL_ZIPF_BUCKETS,
    "postings_compress": SQL_POSTINGS_COMPRESS,
    "robots_sitemaps": SQL_ROBOTS_SITEMAPS,
    "frontier_wait_times": SQL_FRONTIER_WAIT_TIMES,
    "crawl_feed_seeded": SQL_CRAWL_FEED_SEEDED,
    "reciprocal_links": SQL_RECIPROCAL_LINKS,
    "shingle_containment": SQL_SHINGLE_CONTAINMENT,
    "idn_hosts": SQL_IDN_HOSTS,
    "index_freshness": SQL_INDEX_FRESHNESS,
    "crawl_from_warc": SQL_CRAWL_PAGES_BFS,
    "crawl_host_discovery": SQL_CRAWL_HOST_DISCOVERY,
    "curation_v2": SQL_CURATION_V2,
    "crawl_domain_budget": SQL_CRAWL_DOMAIN_BUDGET,
    "crawl_fairness": SQL_CRAWL_FAIRNESS,
    "sitemap_seeds": SQL_SITEMAP_SEEDS,
    "host_graph": SQL_HOST_GRAPH,
    "curation_pipeline": SQL_CURATION_PIPELINE,
    "gopher_quality": SQL_GOPHER_QUALITY,
    "price_quantiles": SQL_PRICE_QUANTILES,
    "top_orders_per_customer": SQL_TOP_ORDERS_PER_CUSTOMER,
    "sliding_window": SQL_SLIDING_WINDOW,
    "interval_join": SQL_INTERVAL_JOIN,
    "c4_line_filter": SQL_C4_LINE_FILTER,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "vocab_stats": SQL_VOCAB_STATS,
    "inverted_index": SQL_INVERTED_INDEX,
    "inverted_index_sharded": SQL_INVERTED_INDEX_SHARDED,
    "bigram_counts": SQL_BIGRAM_COUNTS,
    "bigram_lift_topk": SQL_BIGRAM_LIFT_TOPK,
    "line_dedup": SQL_LINE_DEDUP,
    "train_val_split": SQL_TRAIN_VAL_SPLIT,
    "dedup_survivors": SQL_DEDUP_SURVIVORS,
    "dedup_span_removal": SQL_DEDUP_SPAN_REMOVAL,
    "decontaminate": SQL_DECONTAMINATE,
    "weighted_sample": SQL_WEIGHTED_SAMPLE,
    "tfidf_top_terms": SQL_TFIDF_TOP_TERMS,
    "bm25_topk": SQL_BM25_TOPK,
    "search_rank_fusion": SQL_SEARCH_RANK_FUSION,
    "label_centroids": SQL_LABEL_CENTROIDS,
    "kmeans_assign": SQL_KMEANS_ASSIGN,
    "semdedup": SQL_SEMDEDUP,
    "percentile_filter": SQL_PERCENTILE_FILTER,
    "percentile_rank": SQL_PERCENTILE_RANK,
    "profile_orders": SQL_PROFILE_ORDERS,
    "heavy_hitters": SQL_HEAVY_HITTERS,
    "pii_redact": SQL_PII_REDACT,
    "repetition_filter": SQL_REPETITION_FILTER,
    "token_budget_select": SQL_TOKEN_BUDGET_SELECT,
    "pack_sequences": SQL_PACK_SEQUENCES,
    "shuffle_rank": SQL_SHUFFLE_RANK,
    "perplexity_buckets": SQL_PERPLEXITY_BUCKETS,
    "pagerank": SQL_PAGERANK,
    "trustrank": SQL_TRUSTRANK,
    "spam_mass": SQL_SPAM_MASS,
    "hits_scores": SQL_HITS_SCORES,
    "bloom_semi_join": SQL_BLOOM_SEMI_JOIN,
    "exact_dedup": SQL_EXACT_DEDUP,
    "ngram_jaccard": SQL_NGRAM_JACCARD,
    "dedup_clusters": SQL_DEDUP_CLUSTERS,
    "cosine_near_pairs": SQL_COSINE_NEAR_PAIRS,
    "embedding_topk": SQL_EMBEDDING_TOPK,
}
