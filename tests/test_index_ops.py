"""Unit tests for the index/statistics operators beyond their DuckDB
oracles: inverted-index postings assembly, bigram co-occurrence
counts, and the deterministic train/val split — naive-recompute
parity, block-layout invariance, and edge cases (empty text, repeated
terms, single-word docs) the synthetic corpus does not isolate."""

import hashlib
from collections import Counter

import pyarrow as pa
import ray.data

from louis_crawler_legacy_ray.stages.textstats import (
    bigram_partial_batch,
    inverted_partial_batch,
    postings_group,
    split_assign_batch,
)

DOCS = [
    {"doc_id": 1, "text": "the cat sat on the mat"},
    {"doc_id": 2, "text": "the dog sat"},
    {"doc_id": 3, "text": ""},
    {"doc_id": 4, "text": "cat"},
    {"doc_id": 5, "text": "Cat CAT cat!"},
]


def _index_via_ray(ds):
    partials = ds.map_batches(inverted_partial_batch, batch_format="pyarrow")
    out = (
        partials.groupby("term")
        .map_groups(postings_group, batch_format="pandas")
        .to_pandas()
        .sort_values(["df", "term"], ascending=[False, True])
        .reset_index(drop=True)
    )
    return {
        r["term"]: (r["df"], r["total_tf"], r["postings"])
        for _, r in out.iterrows()
    }


def test_inverted_index_naive_parity(ray_session):
    import re

    got = _index_via_ray(ray.data.from_items(DOCS).repartition(3))
    # naive recompute
    want: dict = {}
    for d in DOCS:
        c = Counter(re.findall(r"[a-z0-9]+", d["text"].lower()))
        for term, tf in c.items():
            df, total, docs = want.get(term, (0, 0, []))
            want[term] = (df + 1, total + tf, docs + [d["doc_id"]])
    want = {
        t: (df, total, ",".join(str(i) for i in sorted(docs)))
        for t, (df, total, docs) in want.items()
    }
    assert got == want
    # spot-check the hard rows: case folding + punctuation splits
    assert got["cat"] == (3, 5, "1,4,5")
    assert got["the"] == (2, 3, "1,2")


def test_inverted_index_block_layout_invariant(ray_session):
    one = _index_via_ray(ray.data.from_items(DOCS).repartition(1))
    many = _index_via_ray(ray.data.from_items(DOCS).repartition(5))
    assert one == many


def test_bigram_partials_sum_to_naive():
    batch = pa.table(
        {
            "doc_id": [d["doc_id"] for d in DOCS],
            "text": [d["text"] for d in DOCS],
        }
    )
    out = bigram_partial_batch(batch)
    got = Counter()
    for w1, w2, c in zip(
        out["w1"].to_pylist(), out["w2"].to_pylist(), out["cnt"].to_pylist()
    ):
        got[(w1, w2)] += c
    import re

    want = Counter()
    for d in DOCS:
        ws = re.findall(r"[a-z0-9]+", d["text"].lower())
        want.update(zip(ws, ws[1:]))
    assert got == want
    assert got[("the", "cat")] == 1
    assert got[("cat", "cat")] == 2  # "Cat CAT cat!" folds + splits
    # single-word and empty docs contribute no bigrams
    assert all(c > 0 for c in got.values())


def test_split_assign_matches_md5_rule():
    batch = pa.table(
        {"doc_id": list(range(200)), "text": ["one two three"] * 200}
    )
    out = split_assign_batch(batch)
    rows = dict(
        zip(out["split"].to_pylist(), zip(out["n_docs"].to_pylist(),
                                          out["total_words"].to_pylist()))
    )
    n_val = sum(
        1
        for i in range(200)
        if int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100 < 5
    )
    assert rows["val"][0] == n_val
    assert rows["train"][0] == 200 - n_val
    # every doc has exactly 3 words
    assert rows["train"][1] == 3 * rows["train"][0]
    assert rows["val"][1] == 3 * rows["val"][0]


def test_line_dedup_first_occurrence(ray_session):
    """Line survives only at its lexicographically first (doc, line_no);
    docs with nothing left vanish."""
    import ray.data

    from louis_crawler_legacy_ray.stages.dedup import line_dedup

    docs = [
        {"doc_id": 1, "text": "a\nb"},
        {"doc_id": 2, "text": "b\nc\na"},
        {"doc_id": 3, "text": "c"},
        {"doc_id": 4, "text": "d\nd\nd"},  # self-duplicate lines
    ]
    out = (
        line_dedup(ray.data.from_items(docs).repartition(3))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = {
        int(r["doc_id"]): (int(r["n_kept"]), r["clean_text"])
        for _, r in out.iterrows()
    }
    # doc3 vanishes (its only line first occurred in doc 2); in-doc
    # repeats keep only the first copy
    assert got == {1: (2, "a\nb"), 2: (1, "c"), 4: (1, "d")}


def test_sharded_postings_merge_to_unsharded(ray_session):
    """Union of a term's posting shards equals the unsharded postings
    (the scale path loses nothing); shard assignment follows the md5
    rule."""
    import ray.data

    from louis_crawler_legacy_ray.stages.textstats import (
        inverted_shard_partial_batch,
        sharded_postings_group,
    )

    ds = ray.data.from_items(DOCS).repartition(3)
    shards = (
        ds.map_batches(inverted_shard_partial_batch, batch_format="pyarrow")
        .groupby(["term", "pshard"])
        .map_groups(sharded_postings_group, batch_format="pandas")
        .to_pandas()
    )
    merged: dict = {}
    for _, r in shards.iterrows():
        df0, tf0, docs0 = merged.get(r["term"], (0, 0, []))
        merged[r["term"]] = (
            df0 + r["df"],
            tf0 + r["total_tf"],
            docs0 + [int(x) for x in r["postings"].split(",")],
        )
    flat = _index_via_ray(ds)
    assert {
        t: (df0, tf0, ",".join(str(d) for d in sorted(docs0)))
        for t, (df0, tf0, docs0) in merged.items()
    } == flat
    # shard id is the md5 rule
    for _, r in shards.iterrows():
        for d in r["postings"].split(","):
            assert (
                int(hashlib.md5(d.encode()).hexdigest()[:8], 16) % 4
                == r["pshard"]
            )


def test_bm25_topk_known_answer(ray_session):
    import math

    import ray.data as rd

    from louis_crawler_legacy_ray.stages.textstats import bm25_topk

    docs = [
        (0, "apple banana apple"),          # tf(apple)=2, dl=3
        (1, "apple cherry cherry cherry"),  # tf(apple)=1, dl=4
        (2, "banana banana"),               # no query term
        (3, "apple"),                       # tf=1, dl=1 (short doc boost)
    ]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in docs])
    got = bm25_topk(ds, ["apple"], k=10).to_pandas()

    n, df, avgdl = 4, 3, 10 / 4
    idf = math.log((n - df + 0.5) / (df + 0.5) + 1)

    def s(tf, dl):
        return idf * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl))

    exp = sorted(
        [(0, s(2, 3)), (1, s(1, 4)), (3, s(1, 1))],
        key=lambda p: (-p[1], p[0]),
    )
    assert list(got["doc_id"]) == [d for d, _ in exp]
    assert list(got["rank"]) == [1, 2, 3]
    # doc 2 (no query term) never ranks
    assert 2 not in set(got["doc_id"])
    # short doc with tf=1 outranks long doc with tf=1 (length norm)
    assert list(got["doc_id"]).index(3) < list(got["doc_id"]).index(1)
