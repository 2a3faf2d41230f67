"""Ray Data extract stage: pages -> crawl_items (+ link edges).

The goldie ``convert_to_crawl_item`` (reference goldie.py:10-45) as a
stateless ``map_batches`` transform over zero-copy Arrow batches. The
per-row extract is row-wise Python (one tokenizer pass per page, no
DOM), but it runs batch-wise over Arrow columns and emits Arrow arrays
— no pandas conversion, no Python-object blocks.

Usage:
    ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=128)

Batch size is modest because rows are wide (html payloads, FIXTURES.md
953 B - 152 KB); block splitting handles the rest.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.dom import MarkupRejected
from ..functions.html_kernels import extract_page

CRAWL_ITEMS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("title", pa.string()),
        ("lang", pa.string()),
        ("html_content", pa.large_string()),
        ("last_crawled", pa.timestamp("us")),
        ("last_updated", pa.string()),
        ("depth", pa.int32()),
        ("children", pa.list_(pa.string())),
        ("links", pa.list_(pa.string())),
        ("redirect", pa.string()),
        ("meta_robots", pa.string()),
        ("canonical", pa.string()),
    ]
)


def extract_batch(
    batch: pa.Table,
    now_us: int = 0,
    allowed_domains: list[str] | None = None,
    profile: str = "goldie",
) -> pa.Table:
    """pages(url, html[, depth]) -> crawl_items.

    ``now_us`` is the injected deterministic clock (reference uses
    int(time.time()), goldie.py:16 — injected here for reproducibility,
    SURVEY §2.2 M9). ``depth`` passes through when present (set by the
    frontier; items.py:18 note: only the parallel spider sets it).
    ``profile`` picks the cleaning profile (``extract_page``'s option).
    """
    urls = batch["url"].to_pylist()
    htmls = html_strs(batch["html"])
    depths = (
        batch["depth"].to_pylist()
        if "depth" in batch.column_names
        else [0] * len(urls)
    )
    return extract_items(urls, htmls, depths, now_us, allowed_domains, profile)


def html_strs(col, rows=None) -> list:
    """The values of a pages ``html`` column (binary, large_binary or
    string; an Array or a ChunkedArray) at ``rows`` (int indices, all
    rows when None) as ``str``, copied once: a binary buffer is viewed
    as string (no copy, no validation), and each contiguous run of rows
    is a zero-copy slice whose ``to_pylist`` decodes strict UTF-8
    straight into str. ``take`` would copy the rows first, and a
    bytes result would be copied again by ``decode``. A run with bytes
    that are not UTF-8 goes row by row, and only a row the strict
    decoder rejects is decoded with ``errors="replace"``."""
    import numpy as np

    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
    if isinstance(col, pa.ChunkedArray):
        out: list = []
        off = 0
        for c in col.chunks:
            n = len(c)
            if rows is None:
                out.extend(html_strs(c))
            else:
                loc = rows[(rows >= off) & (rows < off + n)] - off
                if loc.size:
                    out.extend(html_strs(c, loc))
            off += n
        return out
    if pa.types.is_binary(col.type):
        sv = col.view(pa.string())
    elif pa.types.is_large_binary(col.type):
        sv = col.view(pa.large_string())
    else:
        sv = col
    if rows is None:
        runs = [(0, len(col))]
    else:
        cut = np.flatnonzero(np.diff(rows) != 1) + 1
        runs = [
            (int(rows[a]), int(b - a))
            for a, b in zip(np.r_[0, cut], np.r_[cut, rows.size])
        ]
    out = []
    for lo, cnt in runs:
        try:
            out.extend(sv.slice(lo, cnt).to_pylist())
        except UnicodeDecodeError:
            for r in range(lo, lo + cnt):
                try:
                    out.append(sv[r].as_py())
                except UnicodeDecodeError:
                    out.append(col[r].as_py().decode("utf-8", errors="replace"))
    return out


def extract_items(
    urls: list,
    htmls: list,
    depths: list,
    now_us: int = 0,
    allowed_domains: list[str] | None = None,
    profile: str = "goldie",
    extra: dict[str, pa.Array] | None = None,
) -> pa.Table:
    """Core of extract_batch over plain Python lists — lets callers that
    already hold row-selected strings (the round task's corpus source
    pulls html values straight out of the pinned corpus block with
    :func:`html_strs`, one Arrow→str copy) skip the table detour.
    ``htmls`` are ``str`` (:func:`html_strs` of the html column).

    A page html.parser rejects (:class:`MarkupRejected`), or one with
    an href ``urllib.parse`` cannot split (``ValueError``, e.g.
    ``//[bad/x``), yields no row: in a crawl it is never recorded
    fetched, so it ends errored like a failed fetch and sends no
    candidates (Scrapy likewise drops the item of a page whose parse
    callback raises and crawls on). ``extra`` columns (one value
    per input row) ride along, aligned to the rows kept."""
    out: dict[str, list] = {
        "url": [],
        "title": [],
        "lang": [],
        "html_content": [],
        "last_crawled": [],
        "last_updated": [],
        "depth": [],
        "children": [],
        "links": [],
        "redirect": [],
        "meta_robots": [],
        "canonical": [],
    }
    kept: list[int] = []
    for i, (url, html, depth) in enumerate(zip(urls, htmls, depths)):
        try:
            rec = extract_page(
                url, html, now=now_us, allowed_domains=allowed_domains, profile=profile
            )
        except (MarkupRejected, ValueError):
            continue
        kept.append(i)
        out["url"].append(rec["url"])
        out["title"].append(rec["title"])
        out["lang"].append(rec["lang"])
        out["html_content"].append(rec["html_content"])
        out["last_crawled"].append(now_us)
        out["last_updated"].append(rec["last_updated"])
        out["depth"].append(depth)
        out["children"].append(rec["children"])
        out["links"].append(rec["links"])
        out["redirect"].append(rec.get("redirect"))
        out["meta_robots"].append(rec.get("meta_robots", ""))
        out["canonical"].append(rec.get("canonical"))
    tbl = pa.table(
        {
            "url": pa.array(out["url"], pa.string()),
            "title": pa.array(out["title"], pa.string()),
            "lang": pa.array(out["lang"], pa.string()),
            "html_content": pa.array(out["html_content"], pa.large_string()),
            "last_crawled": pa.array(out["last_crawled"], pa.timestamp("us")),
            "last_updated": pa.array(out["last_updated"], pa.string()),
            "depth": pa.array(out["depth"], pa.int32()),
            "children": pa.array(out["children"], pa.list_(pa.string())),
            "links": pa.array(out["links"], pa.list_(pa.string())),
            "redirect": pa.array(out["redirect"], pa.string()),
            "meta_robots": pa.array(out["meta_robots"], pa.string()),
            "canonical": pa.array(out["canonical"], pa.string()),
        }
    )
    for name, col in (extra or {}).items():
        if len(kept) < len(urls):
            col = col.take(pa.array(kept, pa.int64()))
        tbl = tbl.append_column(name, col)
    return tbl


def edges_batch(batch: pa.Table) -> pa.Table:
    """Explode crawl_items.links into link-graph edges (src, dst, depth)
    — the reference's page_links side output (middlewares.py:104-113,
    db.py:671-683). Vectorized via Arrow list flattening: no Python loop
    over rows; dst depth = src depth + 1."""
    links = batch["links"]
    if isinstance(links, pa.ChunkedArray):
        links = links.combine_chunks()
    counts = pa.compute.list_value_length(links).fill_null(0)
    src = batch["url"].combine_chunks() if isinstance(batch["url"], pa.ChunkedArray) else batch["url"]
    depth = batch["depth"].combine_chunks() if isinstance(batch["depth"], pa.ChunkedArray) else batch["depth"]
    # repeat src/depth per link count (numpy repeat on indices)
    import numpy as np

    idx = np.repeat(np.arange(len(batch)), counts.to_numpy(zero_copy_only=False))
    dst = links.flatten()
    return pa.table(
        {
            "src": src.take(pa.array(idx, pa.int64())),
            "dst": dst,
            "depth": pa.compute.add(
                depth.take(pa.array(idx, pa.int64())).cast(pa.int32()), 1
            ),
        }
    )
