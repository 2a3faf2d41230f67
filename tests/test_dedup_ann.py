"""Dedup-family + ANN + textstats stage tests."""

import numpy as np
import pyarrow as pa
import ray.data

from louis_crawler_legacy_ray.stages.ann import brute_force_topk, lsh_topk
from louis_crawler_legacy_ray.stages.dedup import (
    cosine_near_pairs,
    exact_dedup_groups,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    shingle_set,
    simhash64,
    simhash_near_pairs,
)
from louis_crawler_legacy_ray.stages.textstats import (
    lang_id_batch,
    quality_batch,
    token_count_batch,
)

BASE = "the quick brown fox jumps over the lazy dog and runs far away today"
NEAR = "the quick brown fox jumps over the lazy dog and runs far away now"
OTHER = "completely different text about food inspection agencies of canada"


def _docs():
    return pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": [BASE, BASE, NEAR, OTHER],
        }
    )


def test_exact_dedup(ray_session):
    out = exact_dedup_groups(ray.data.from_arrow(_docs())).to_pandas()
    assert len(out) == 3  # BASE appears twice
    dup = out[out["n"] == 2]
    assert len(dup) == 1 and dup.iloc[0]["keep_id"] == 0


def test_ngram_jaccard_pairs(ray_session):
    out = ngram_jaccard_pairs(
        ray.data.from_arrow(_docs()), tau_num=5, tau_den=10
    ).to_pandas()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 1) in pairs  # identical
    assert (0, 2) in pairs or (1, 2) in pairs  # near-dup
    assert not any(3 in p for p in pairs)
    # exact math: identical docs have inter == uni
    row01 = out[(out["doc_a"] == 0) & (out["doc_b"] == 1)].iloc[0]
    assert row01["inter"] == row01["uni"]


def test_minhash_lsh_finds_near_dups(ray_session):
    docs = ray.data.from_arrow(_docs())
    out = minhash_lsh_pairs(
        docs,
        verify_tau=0.5,
        verify_docs=docs,
    ).to_pandas()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 1) in pairs
    assert not any(3 in p for p in pairs)
    j01 = out[(out["doc_a"] == 0) & (out["doc_b"] == 1)].iloc[0]["jaccard"]
    assert j01 == 1.0


def test_simhash_hamming(ray_session):
    assert simhash64(BASE) == simhash64(BASE)
    x = simhash64(BASE) ^ simhash64(NEAR)
    assert bin(x & 0xFFFFFFFFFFFFFFFF).count("1") <= 12  # near texts are close
    out = simhash_near_pairs(ray.data.from_arrow(_docs()), max_hamming=3).to_pandas()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 1) in pairs


def test_cosine_near_pairs(ray_session):
    rng = np.random.RandomState(0)
    m = rng.normal(size=(6, 8))
    m[1] = m[0] + 0.01 * rng.normal(size=8)  # near-dup of 0
    ids = np.arange(6, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array(m.tolist(), pa.list_(pa.float64())),
            }
        )
    )
    out = cosine_near_pairs(ds, m, ids, tau=0.99).to_pandas()
    assert (0, 1) in set(zip(out["doc_a"], out["doc_b"]))


def test_brute_force_topk_and_lsh_recall(ray_session):
    rng = np.random.RandomState(3)
    m = rng.normal(size=(200, 16))
    ids = np.arange(200, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array(m.tolist(), pa.list_(pa.float64())),
            }
        )
    ).repartition(4)
    q = m[:3]
    exact = brute_force_topk(ds, q, [0, 1, 2], k=5)
    by_q = {}
    for r in exact.to_pylist():
        by_q.setdefault(r["query_id"], []).append(r)
    for qid in (0, 1, 2):
        rows = sorted(by_q[qid], key=lambda r: r["rank"])
        assert rows[0]["vec_id"] == qid  # self is nearest
        assert abs(rows[0]["cosine"] - 1.0) < 1e-9
        assert len(rows) == 5
    approx = lsh_topk(ds, q, [0, 1, 2], dim=16, k=5, n_planes=8)
    arows = {r["query_id"]: [] for r in approx.to_pylist()}
    for r in approx.to_pylist():
        arows[r["query_id"]].append(r["vec_id"])
    # recall of the true nearest (self) must survive LSH probing
    for qid in (0, 1, 2):
        assert qid in arows.get(qid, [])


def test_textstats_kernels():
    b = _docs()
    tc = token_count_batch(b)
    assert tc["token_count"][0].as_py() == len(BASE.split())
    q = quality_batch(b)
    assert q["n_chars"][0].as_py() == len(BASE)
    assert q["keep"][0].as_py()  # has stopwords + >=10 words
    li = lang_id_batch(b)
    assert li["predicted_lang"][0].as_py() == "en"


def test_shingle_set():
    s = shingle_set("a b c d", 3)
    assert s == {"a b c", "b c d"}
    assert shingle_set("a b", 3) == set()


def test_attach_pair_docs_modes_agree(ray_session):
    """The broadcast (small-scale) and partitioned (100TB-scale) text
    attachment paths produce identical verified pairs."""
    import ray.data as rd

    from louis_crawler_legacy_ray.stages.dedup import attach_pair_docs

    docs = rd.from_arrow(_docs())
    pairs = rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([0, 0, 1], pa.int64()),
                "doc_b": pa.array([1, 2, 3], pa.int64()),
            }
        )
    )
    out_b = (
        attach_pair_docs(pairs, docs, mode="broadcast")
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    out_p = (
        attach_pair_docs(pairs, docs, mode="partitioned")
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert out_b[["doc_a", "doc_b", "text_a", "text_b"]].equals(
        out_p[["doc_a", "doc_b", "text_a", "text_b"]]
    )
    assert len(out_b) == 3


def test_ivf_topk_recall(ray_session):
    """IVF coarse-quantized ANN: self must be found, and recall@5 of the
    exact top-5 stays high at nprobe=4/16."""
    from louis_crawler_legacy_ray.stages.ann import ivf_topk

    rng = np.random.RandomState(11)
    m = rng.normal(size=(300, 16))
    ids = np.arange(300, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array(m.tolist(), pa.list_(pa.float64())),
            }
        )
    ).repartition(4)
    q = m[:4]
    exact = brute_force_topk(ds, q, [0, 1, 2, 3], k=5)
    approx = ivf_topk(ds, q, [0, 1, 2, 3], k=5, n_lists=16, nprobe=4, train_sample=300)
    ex = {}
    for r in exact.to_pylist():
        ex.setdefault(r["query_id"], set()).add(r["vec_id"])
    ap = {}
    for r in approx.to_pylist():
        ap.setdefault(r["query_id"], set()).add(r["vec_id"])
    hits = total = 0
    for qid in (0, 1, 2, 3):
        assert qid in ap[qid]  # self is always in its own probed list
        hits += len(ex[qid] & ap[qid])
        total += len(ex[qid])
    assert hits / total >= 0.5  # random gaussians are a worst case for IVF


def test_cosine_near_pairs_lsh_recall(ray_session):
    """LSH-banded near-dup (the scale path) recovers planted near-dups
    that the exact broadcast operator finds, with exact-threshold
    precision (the verify step recomputes true cosine)."""
    from louis_crawler_legacy_ray.stages.dedup import cosine_near_pairs_lsh

    rng = np.random.RandomState(2)
    dim = 16
    base = rng.normal(size=(60, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    noise = rng.normal(size=(60, dim))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    pert = base + 0.15 * noise  # cos ~0.99 with its base vector
    m = np.vstack([base, pert])
    ids = np.arange(120, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array(m.tolist(), pa.list_(pa.float64())),
            }
        )
    ).repartition(3)

    out = cosine_near_pairs_lsh(ds, dim=dim, tau=0.9).to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))
    planted = {(i, i + 60) for i in range(60)}
    recall = len(got & planted) / len(planted)
    assert recall >= 0.9
    # precision is exact: every returned pair truly has cosine >= tau
    mm = m / np.linalg.norm(m, axis=1, keepdims=True)
    for a, b in got:
        assert float(mm[a] @ mm[b]) >= 0.9


# ------------------------------------------------------- int8 quantized ANN


def test_quantized_topk_recall(ray_session):
    """int8 scalar quantization: per-dim error bounded by half a step,
    and quantized brute-force top-10 keeps >=90% recall vs exact."""
    import numpy as np
    import ray.data

    from louis_crawler_legacy_ray.stages.ann import (
        brute_force_topk,
        embedding_scale,
        quantize_embeddings,
        topk_quantized,
    )

    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((500, 16))
    rows = [
        {"vec_id": i, "embedding": vecs[i].tolist()} for i in range(500)
    ]
    ds = ray.data.from_items(rows).repartition(5)
    lo, hi = embedding_scale(ds)
    assert np.allclose(lo, vecs.min(axis=0)) and np.allclose(hi, vecs.max(axis=0))

    qds = quantize_embeddings(ds, lo, hi).materialize()
    # dequantization error bound: half a quantization step per dim
    codes = np.array(
        [r["codes"] for r in sorted(qds.take_all(), key=lambda r: r["vec_id"])],
        dtype=np.float64,
    )
    span = np.where(hi > lo, hi - lo, 1.0)
    deq = (codes + 128.0) / 255.0 * span + lo
    assert np.abs(deq - vecs).max() <= (span / 510.0 + 1e-12).max()

    q = vecs[:5]
    exact = brute_force_topk(ds, q, list(range(5)), k=10)
    quant = topk_quantized(qds, lo, hi, q, list(range(5)), k=10)
    ex = {}
    for r in exact.to_pylist():
        ex.setdefault(r["query_id"], set()).add(r["vec_id"])
    hits = total = 0
    for r in quant.to_pylist():
        total += 1
        hits += r["vec_id"] in ex[r["query_id"]]
    assert hits / total >= 0.9


def test_mirror_host_pairs_flags_and_threshold(ray_session):
    """mirror_host_pairs: full mirror flagged, sub-half overlap not;
    diagonal totals never leak into the output."""
    import pyarrow as pa
    import ray.data

    from louis_crawler_legacy_ray.stages.dedup import mirror_host_pairs

    rows = []
    # a <-> b: full mirror (3/3 shared)
    for i in range(3):
        rows.append((f"http://a.ca/p{i}", f"text-{i}"))
        rows.append((f"http://b.ca/p{i}", f"text-{i}"))
    # c: shares 1 of its 3 pages with a (1 < 3/2 -> not a mirror)
    rows.append(("http://c.ca/p0", "text-0"))
    rows.append(("http://c.ca/q1", "only-c-1"))
    rows.append(("http://c.ca/q2", "only-c-2"))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array([u for u, _ in rows], pa.string()),
                "text": pa.array([t for _, t in rows], pa.string()),
            }
        )
    )
    out = mirror_host_pairs(ds).to_pandas()
    got = {
        (r.host_a, r.host_b): (r.shared, r.is_mirror)
        for r in out.itertuples()
    }
    assert got[("a.ca", "b.ca")] == (3, True)
    assert got[("a.ca", "c.ca")] == (1, False)
    assert got[("b.ca", "c.ca")] == (1, False)
    assert all(a != b for a, b in got)  # no diagonal rows in the output


def test_remove_duplicate_spans_known_answer(ray_session):
    import ray.data as rd

    from louis_crawler_legacy_ray.stages.dedup import remove_duplicate_spans

    shared = "alpha beta gamma delta epsilon"  # 5-gram shared by docs 0/1
    docs = [
        (0, f"intro {shared} outro words here"),
        (1, f"{shared} tail"),
        (2, "totally unique words nothing shared at all"),
    ]
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in docs])
    got = (
        remove_duplicate_spans(ds, k=5, min_docs=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # the shared 5-gram's tokens vanish; neighbors survive
    assert got.loc[0, "clean_text"] == "intro outro words here"
    assert got.loc[0, "n_removed"] == 5
    assert got.loc[1, "clean_text"] == "tail"
    assert got.loc[1, "n_removed"] == 5
    # untouched doc passes through byte-identical (already normalized)
    assert got.loc[2, "clean_text"] == docs[2][1]
    assert got.loc[2, "n_removed"] == 0


def test_pq_topk_recall_and_code_layout(ray_session):
    """Product quantization: codes are uint8 in-range, encoding is
    block-layout-invariant, each query recovers itself, and ADC
    recall@5 vs exact stays high at 16x256 on random gaussians."""
    from louis_crawler_legacy_ray.stages.ann import pq_encode, pq_fit, pq_topk

    rng = np.random.RandomState(13)
    m = rng.normal(size=(300, 32))
    ids = np.arange(300, dtype=np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array(m.tolist(), pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)

    books = pq_fit(m, m_sub=8, n_codes=32, seed=3)
    c1 = pq_encode(ds, books).to_pandas().sort_values("vec_id")
    c2 = (
        pq_encode(ray.data.from_arrow(t).repartition(7), books)
        .to_pandas()
        .sort_values("vec_id")
    )
    assert [list(x) for x in c1["pq_codes"]] == [list(x) for x in c2["pq_codes"]]
    assert all(len(x) == 8 and max(x) < 32 for x in c1["pq_codes"])

    q = m[:4]
    exact = brute_force_topk(ds, q, [0, 1, 2, 3], k=5)
    approx = pq_topk(ds, q, [0, 1, 2, 3], k=5, m_sub=8, n_codes=64, train_sample=300)
    ex, ap = {}, {}
    for r in exact.to_pylist():
        ex.setdefault(r["query_id"], set()).add(r["vec_id"])
    for r in approx.to_pylist():
        ap.setdefault(r["query_id"], set()).add(r["vec_id"])
    hits = total = 0
    for qid in (0, 1, 2, 3):
        assert qid in ap[qid]  # self-recovery: own code table peaks at self
        hits += len(ex[qid] & ap[qid])
        total += len(ex[qid])
    assert hits / total >= 0.5  # random gaussians are PQ's worst case


def test_ivfpq_topk_recall(ray_session):
    """IVF-PQ composition: coarse lists prune, PQ codes rank; self is
    found and recall@5 vs exact stays reasonable on random gaussians."""
    from louis_crawler_legacy_ray.stages.ann import ivfpq_topk

    rng = np.random.RandomState(17)
    m = rng.normal(size=(300, 32))
    ids = np.arange(300, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array(m.tolist(), pa.list_(pa.float64())),
            }
        )
    ).repartition(4)
    q = m[:4]
    exact = brute_force_topk(ds, q, [0, 1, 2, 3], k=5)
    approx = ivfpq_topk(
        ds, q, [0, 1, 2, 3], k=5, n_lists=8, nprobe=4,
        m_sub=8, n_codes=64, train_sample=300,
    )
    ex, ap = {}, {}
    for r in exact.to_pylist():
        ex.setdefault(r["query_id"], set()).add(r["vec_id"])
    for r in approx.to_pylist():
        ap.setdefault(r["query_id"], set()).add(r["vec_id"])
    hits = total = 0
    for qid in (0, 1, 2, 3):
        assert qid in ap[qid]
        hits += len(ex[qid] & ap[qid])
        total += len(ex[qid])
    assert hits / total >= 0.4  # pruning x quantization compounds loss


def test_dust_rules_learns_and_filters(ray_session):
    """DUST: pair diff learns the substitution; min_support kills
    coincidental single pairs; multiplicity-3 groups contribute all
    C(3,2) pairs of the same rule."""
    from louis_crawler_legacy_ray.stages.dedup import dust_rules

    rows = []
    for d in range(6):
        base = f"http://h.ca/p/doc{d}"
        rows.append({"url": base, "html": f"content {d}".encode()})
        rows.append({"url": base + "?sid=1", "html": f"content {d}".encode()})
    # one coincidental pair -> rule support 1 -> filtered
    rows.append({"url": "http://h.ca/odd/a", "html": b"same odd"})
    rows.append({"url": "http://h.ca/odd/b", "html": b"same odd"})
    ds = ray.data.from_items(rows).repartition(3)
    out = dust_rules(ds, min_support=3).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["rule_from"], r["rule_to"], r["support"]) == ("?sid=1", "", 6)


def test_lexical_near_pairs_exact_threshold(ray_session):
    """Exact-int cosine on hashed counts: identical docs pair at
    cosine 1, disjoint-vocab docs never pair, and a clone-with-extras
    sits on the computable side of the 0.95 threshold."""
    from louis_crawler_legacy_ray.stages.dedup import lexical_near_pairs

    rows = [
        {"doc_id": 0, "text": "alpha beta gamma delta " * 10},
        {"doc_id": 1, "text": "alpha beta gamma delta " * 10},  # clone
        {"doc_id": 2, "text": "zeta eta theta iota " * 10},     # disjoint
        {"doc_id": 3, "text": ("alpha beta gamma delta " * 10) + "kappa"},
    ]
    ds = ray.data.from_items(rows).repartition(2)
    out = lexical_near_pairs(ds, th_num=95, th_den=100).to_pandas()
    got = {(a, b) for a, b in zip(out["doc_a"], out["doc_b"])}
    assert (0, 1) in got                       # exact clone
    assert not any(2 in p for p in got)        # disjoint never pairs
    # the near-clone passes at 0.95 (one extra token among 41)
    assert (0, 3) in got and (1, 3) in got
    r = out[(out.doc_a == 0) & (out.doc_b == 1)].iloc[0]
    assert r["dot"] == r["normsq_a"] == r["normsq_b"]  # cosine exactly 1


def test_containment_pairs_asymmetric(ray_session):
    """Containment: a doc embedded in a larger doc is flagged in the
    subset->superset direction only; unrelated docs never pair."""
    from louis_crawler_legacy_ray.stages.dedup import containment_pairs

    core = "one two three four five six seven eight nine ten"
    rows = [
        {"doc_id": 0, "text": core},
        {"doc_id": 1, "text": core + " plus lots of extra words here " * 3},
        {"doc_id": 2, "text": "totally different vocabulary in this doc entirely"},
    ]
    ds = ray.data.from_items(rows).repartition(2)
    out = containment_pairs(ds, num=9, den=10).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["doc_a"], r["doc_b"]) == (0, 1)
    assert r["contains_ab"] and not r["contains_ba"]
    assert r["inter"] == r["size_a"]  # full containment of the subset


def test_lsh_components_planted_copies_cluster(ray_session):
    """q_lsh_components: every planted copy (doc_id + 1M, identical
    text) lands in its original's cluster with cluster_id = the
    original id; sig-less short docs stay singletons."""
    from louis_crawler_legacy_ray.pipelines.queries import q_lsh_components

    out = q_lsh_components("/root/testdata/sf0.001")
    rows = out.take_all() if hasattr(out, "take_all") else out.to_pylist()
    label = {r["doc_id"]: r["cluster_id"] for r in rows}
    origs = [d for d in label if d < 1_000_000]
    assert origs and len(label) == 2 * len(origs)
    for d in origs:
        assert label[d + 1_000_000] == label[d]
        # min-label invariant: a cluster is named by its smallest member
        assert label[d] <= d
