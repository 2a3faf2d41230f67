"""Seeded pages corpus for the benchmark, and the crawl order it implies.

The corpus is built only through the library's public source entry
points (``synth_documents`` -> ``pages_from_documents`` ->
``write_pages_parquet(bucket_by_url=True)``). The expected crawl order
is computed here independently: a pure-Python BFS over the k-ary heap
link graph those pages encode, with URLs spelled from the documents
table, so a crawler bug cannot also corrupt its own oracle.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass

N_CHILDREN = 8
N_HOSTS = 64


@dataclass(frozen=True)
class Corpus:
    path: str
    n_pages: int
    langs: tuple[str, ...]
    sources: tuple[str, ...]
    seed_url: str
    # a seeded sample of (url, html) pages for the serial kernel probes
    sample: tuple[tuple[str, str], ...]

    def url(self, doc_id: int) -> str:
        lang = self.langs[doc_id]
        seg = "fra" if lang == "fr" else lang
        return (
            f"http://h{doc_id % N_HOSTS}.example.ca/{seg}/"
            f"{self.sources[doc_id]}/doc{doc_id}"
        )


def build_corpus(
    out_dir: str, n_pages: int, pad_bytes: int, seed: int, n_sample: int = 64
) -> Corpus:
    from louis_crawler_legacy_ray.sources.pages import (
        pages_from_documents,
        synth_documents,
        write_pages_parquet,
    )

    docs = synth_documents(n_pages, seed=seed)
    pages = pages_from_documents(
        docs, pad_bytes=pad_bytes, n_children=N_CHILDREN, n_hosts=N_HOSTS
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    write_pages_parquet(pages, out_dir, bucket_by_url=True)
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(n_pages), min(n_sample, n_pages)))
    urls = pages["url"].take(picks).to_pylist()
    htmls = [h.decode() for h in pages["html"].take(picks).to_pylist()]
    corpus = Corpus(
        path=out_dir,
        n_pages=n_pages,
        langs=tuple(docs["lang"].to_pylist()),
        sources=tuple(docs["source"].to_pylist()),
        seed_url=pages["url"][0].as_py(),
        sample=tuple(zip(urls, htmls)),
    )
    if corpus.url(0) != corpus.seed_url:
        raise RuntimeError(
            f"corpus URL scheme changed: {corpus.seed_url!r} != {corpus.url(0)!r}"
        )
    return corpus


def bfs_order(corpus: Corpus) -> list[tuple[int, int, str]]:
    """(round, depth, url) of a plain BFS from doc 0, sorted the way
    ``CrawlResult.order`` is. Page ``i`` links to ``(k*i + j) mod n``
    for ``j = 1..k``; one round per depth level."""
    n, k = corpus.n_pages, N_CHILDREN
    depth = {0: 0}
    level = [0]
    rows = []
    while level:
        d = depth[level[0]]
        rows.extend((d, d, corpus.url(i)) for i in level)
        nxt = []
        for i in level:
            for j in range(1, k + 1):
                c = (k * i + j) % n
                if c not in depth:
                    depth[c] = d + 1
                    nxt.append(c)
        level = nxt
    return sorted(rows)
