"""Deterministic synthetic Common-Crawl-style pages corpus.

The crawl input mandated by BASELINE.json input_hint is a Parquet table
``(url:string, warc_ts:timestamp, html:binary, text:string, lang:string)``.
No external data is allowed, so this module synthesizes that table:

* :func:`pages_from_documents` derives one page per row of a testdata
  ``documents`` table. The page HTML is CFIA-shaped (main/aside/script/
  .pagedetails/.nojs-hide/.alert noise, comments, a link farm exercising
  every filter in the reference's requests.py:4-20 and goldie.py:22-35)
  and is constructed WITHOUT inter-tag whitespace, so the expected
  cleaned output of the goldie profile is an exact string concatenation
  — expressible in ANSI SQL for the DuckDB oracle.
* :func:`synth_documents` generates a standalone word-salad documents
  table of any size (seeded) for bench-scale corpora.

Link graph: page ``i`` links to ``(2i+1) mod n`` and ``(2i+2) mod n``
(binary-heap edges with wraparound) — from seed page 0 the BFS depth of
every page is well-defined and reproducible.
"""

from __future__ import annotations

import random
import re

import pyarrow as pa

_WS_RE = re.compile(r"\s+")

SITE = "http://inspection.canada.ca"


def lang_segment(lang: str) -> str:
    """URL path segment: 'fra' for French (so the goldie /fra/ language
    rule fires, goldie.py:17-19), the raw code otherwise."""
    return "fra" if lang == "fr" else lang


def page_url(doc_id: int, lang: str, source: str) -> str:
    return f"{SITE}/{lang_segment(lang)}/{source}/doc{doc_id}"


def page_date(doc_id: int) -> str:
    return f"2024-01-{(doc_id % 28) + 1:02d}"


def child_ids(doc_id: int, n: int) -> tuple[int, int]:
    return (2 * doc_id + 1) % n, (2 * doc_id + 2) % n


def child_ids_k(doc_id: int, n: int, k: int) -> list[int]:
    """k-ary heap children with wraparound (k=2 == child_ids)."""
    return [(k * doc_id + j) % n for j in range(1, k + 1)]


def page_title(doc_id: int, source: str) -> str:
    return f"Doc {doc_id} {source}"


def build_page_html(
    doc_id: int,
    text: str,
    lang: str,
    source: str,
    c1_path: str,
    c2_path: str,
    pad_bytes: int = 0,
    extra_child_paths: list[str] | None = None,
) -> str:
    """One synthetic page. Zero inter-tag whitespace so the cleaned
    output is an exact concatenation (SQL-expressible). ``pad_bytes``
    adds an HTML comment of that size inside <main> — parsed and then
    stripped by the cleaner, so padding exercises the parser at
    realistic page sizes without changing the expected output.
    ``extra_child_paths`` appends more links (wider fanout for bench
    corpora); the default 2-child layout is byte-stable for the oracle."""
    title = page_title(doc_id, source)
    body = _WS_RE.sub(" ", text).strip()
    date = page_date(doc_id)
    extra = "".join(
        f'<a href="{p}">c{j}</a>' for j, p in enumerate(extra_child_paths or [], 3)
    )
    pad = f"<!--pad {'x' * pad_bytes}-->" if pad_bytes > 0 else ""
    return (
        f"<html><head><title>{title}</title></head><body>"
        f"<nav>site nav</nav>"
        f'<main class="container">'
        f"<h1>{title}</h1>"
        f"<!--doc {doc_id}-->"
        f"<aside>related links</aside>"
        f"<script>var x=1;</script>"
        f'<div class="pagedetails">meta</div>'
        f'<div class="nojs-hide">enable js</div>'
        f'<div class="alert">alert</div>'
        f"<p>{body}</p>"
        f"<time>{date}</time>"
        f'<a href="{c1_path}">next</a>'
        f'<a href="{c2_path}">more</a>'
        f'<a href="#top">top</a>'
        f'<a href="mailto:info@example.ca">mail</a>'
        f'<a href="/files/report.pdf">pdf</a>'
        f'<a href="{c1_path}?ref=nav">dup</a>'
        f"{extra}"
        f"{pad}"
        f"</main><footer>footer</footer></body></html>"
    )


def expected_clean_html(
    doc_id: int, text: str, source: str, c1_path: str, c2_path: str
) -> str:
    """What the goldie cleaner must produce for :func:`build_page_html`
    — the golden value, also computable in SQL by the oracle."""
    title = page_title(doc_id, source)
    body = _WS_RE.sub(" ", text).strip()
    date = page_date(doc_id)
    return (
        f'<html><body><main class="container">'
        f"<h1>{title}</h1>"
        f"<p>{body}</p>"
        f"<time>{date}</time>"
        f'<a href="{c1_path}">next</a>'
        f'<a href="{c2_path}">more</a>'
        f'<a href="#top">top</a>'
        f'<a href="mailto:info@example.ca">mail</a>'
        f'<a href="/files/report.pdf">pdf</a>'
        f'<a href="{c1_path}?ref=nav">dup</a>'
        f"</main></body></html>"
    )


PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_EPOCH_US = 1_700_000_000_000_000  # fixed base; warc_ts = base + doc_id sec


def pages_from_documents(
    documents: pa.Table,
    pad_bytes: int = 0,
    n_children: int = 2,
    n_hosts: int = 1,
    id_range: tuple[int, int] | None = None,
) -> pa.Table:
    """``n_hosts > 1`` spreads pages across synthetic hosts
    (``http://h{doc_id %% n_hosts}.example.ca``) with ABSOLUTE child
    links — the multi-host shape of a real Common-Crawl frontier, so
    host-sharded state (politeness, seen) actually distributes. The
    default single-host layout (site-relative links) is byte-stable for
    the SQL oracles. ``id_range=(lo, hi)`` emits only that doc-id slice
    while keeping the FULL table's link graph (parallel shard-wise
    corpus generation).

    Child link paths depend on the *child's* lang/source, so the whole
    (small) documents table is consulted; documents is a dimension-sized
    table (500 rows at sf0.01) — at 100 TB the pages corpus would be
    generated shard-wise with the same id arithmetic.
    """
    import numpy as np

    n = documents.num_rows
    ids_np = documents["doc_id"].to_numpy()
    langs_np = documents["lang"].to_numpy(zero_copy_only=False)
    sources_np = documents["source"].to_numpy(zero_copy_only=False)
    # child paths are keyed by doc_id: id -> (lang, source) lookup.
    # Bench corpora have doc_id == row position (synth_documents), so a
    # direct array index replaces the 2M-entry dict a per-slice worker
    # would otherwise rebuild (the r4 spill-holdout OOM); arbitrary-id
    # tables keep the dict path with identical semantics.
    if n and ids_np[0] == 0 and ids_np[-1] == n - 1 and len(ids_np) == n:
        def meta_at(c: int):
            return langs_np[c], sources_np[c]
    else:
        meta = dict(zip(ids_np.tolist(), zip(langs_np, sources_np)))

        def meta_at(c: int):
            return meta[c]

    def base_of(d: int) -> str:
        return f"http://h{d % n_hosts}.example.ca" if n_hosts > 1 else ""

    # materialize ONLY the requested slice's rows (id_range callers pass
    # a small window over a large table; to_pylist of the full columns
    # was the other half of the OOM)
    if id_range is not None:
        lo, hi = id_range
        sub = documents.take(
            pa.array(np.flatnonzero((ids_np >= lo) & (ids_np < hi)))
        )
    else:
        sub = documents
    doc_ids = sub["doc_id"].to_pylist()
    texts = sub["text"].to_pylist()
    langs = sub["lang"].to_pylist()
    sources = sub["source"].to_pylist()

    urls, tss, htmls, out_texts, out_langs = [], [], [], [], []
    for d, text, lang, source in zip(doc_ids, texts, langs, sources):
        kids = child_ids_k(d, n, max(2, n_children))
        paths = []
        for c in kids:
            cl, cs = meta_at(c)
            paths.append(f"{base_of(c)}/{lang_segment(cl)}/{cs}/doc{c}")
        if n_hosts > 1:
            urls.append(
                f"{base_of(d)}/{lang_segment(lang)}/{source}/doc{d}"
            )
        else:
            urls.append(page_url(d, lang, source))
        tss.append(_EPOCH_US + d * 1_000_000)
        htmls.append(
            build_page_html(
                d,
                text,
                lang,
                source,
                paths[0],
                paths[1],
                pad_bytes,
                extra_child_paths=paths[2:],
            ).encode()
        )
        out_texts.append(_WS_RE.sub(" ", text).strip())
        out_langs.append(lang)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(out_texts, pa.string()),
            "lang": pa.array(out_langs, pa.string()),
        }
    )


_WORDS = (
    "agency food inspection safety plant animal health import export permit "
    "licence sample test report guide notice recall label organic meat dairy "
    "grain seed soil pest disease program standard policy trade market farm"
).split()

_LANGS = ("en", "en", "en", "fr", "fr", "es", "de", "zh")


def synth_documents(n: int, seed: int = 42, words_per_doc: int = 60) -> pa.Table:
    """Standalone deterministic documents table (for bench-scale pages
    corpora; no external data)."""
    rng = random.Random(seed)
    texts = [
        " ".join(rng.choice(_WORDS) for _ in range(words_per_doc)) for _ in range(n)
    ]
    langs = [_LANGS[rng.randrange(len(_LANGS))] for _ in range(n)]
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
        }
    )


def url_bucket(url: str, n_buckets: int) -> int:
    import hashlib

    return (
        int.from_bytes(hashlib.blake2b(url.encode(), digest_size=8).digest(), "big")
        % n_buckets
    )


def write_pages_parquet(
    pages: pa.Table,
    out_dir: str,
    rows_per_file: int = 4096,
    bucket_by_url: bool = False,
) -> None:
    """Write the pages corpus as a directory of Parquet part files.

    ``bucket_by_url=True`` lays files out as ``bucket-{b}.parquet`` with
    ``b = blake2b64(url) % B`` and drops a ``_BUCKETS.json`` marker —
    the partitioning the frontier's fetch join prunes on (a round
    reads only the buckets its selected URLs hash into, a pure function
    of the URL: no driver-side index, works at any corpus size). This
    is the 100 TB layout; the sequential layout remains for corpora we
    don't control (fetch falls back to a full scan-filter per round).
    """
    import json
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    n = pages.num_rows
    if not bucket_by_url:
        part = 0
        for start in range(0, n, rows_per_file):
            chunk = pages.slice(start, rows_per_file)
            pq.write_table(chunk, os.path.join(out_dir, f"part-{part:05d}.parquet"))
            part += 1
        return
    n_buckets = max(1, (n + rows_per_file - 1) // rows_per_file)
    buckets = [url_bucket(u, n_buckets) for u in pages["url"].to_pylist()]
    tagged = pages.append_column("__bucket", pa.array(buckets, pa.int32()))
    for b in range(n_buckets):
        sub = tagged.filter(pa.compute.equal(tagged["__bucket"], b)).drop(
            ["__bucket"]
        )
        # url-sorted with small row groups so point lookups prune on
        # row-group statistics (pq filters=[('url','in',...)])
        sub = sub.sort_by("url")
        pq.write_table(
            sub,
            os.path.join(out_dir, f"bucket-{b:05d}.parquet"),
            row_group_size=256,
        )
    with open(os.path.join(out_dir, "_BUCKETS.json"), "w") as f:
        json.dump({"n_buckets": n_buckets}, f)


def build_once(out_dir: str, build) -> str:
    """Build a derived corpus directory once and commit it atomically.

    Returns ``out_dir`` at once when ``out_dir/_DONE`` exists.
    Otherwise ``build(tmp)`` writes the corpus into a fresh per-process
    ``{out_dir}.build-{pid}`` directory, which gets ``_DONE`` and is
    renamed onto ``out_dir``: concurrent processes never see a
    half-written corpus. If another process commits first, the rename
    fails and this process drops its own copy and uses theirs. A
    directory at ``out_dir`` without ``_DONE`` was never committed (an
    interrupted in-place build) and is replaced.

    The cache key, i.e. ``out_dir``, decides reuse, not the code of
    ``build``: after a builder changes, its old corpus is still served
    until the directory is removed or the key changes.
    """
    import os
    import shutil

    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    tmp = f"{out_dir}.build-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)  # left by a dead process, same pid
    os.makedirs(tmp)
    build(tmp)
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok")
    if os.path.isdir(out_dir) and not os.path.exists(done):
        # an uncommitted leftover would make the rename fail
        shutil.rmtree(out_dir, ignore_errors=True)
    try:
        os.rename(tmp, out_dir)
    except OSError:
        # another process won the race; use its corpus
        shutil.rmtree(tmp, ignore_errors=True)
    return out_dir
