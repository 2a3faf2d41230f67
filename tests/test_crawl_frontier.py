"""Frontier engine tests (SURVEY §5 test plan b/c): BFS depth parity
against a pure-Python reference BFS, URL-seen set equality, politeness
budget behavior, errored quarantine, and checkpoint/resume identity."""

import pyarrow as pa
import pytest

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    edges_expand,
    run_crawl,
    run_frontier,
)
from louis_crawler_legacy_ray.sources.pages import (
    child_ids,
    page_url,
    pages_from_documents,
    synth_documents,
    write_pages_parquet,
)


def _reference_bfs(edges: dict[str, list[str]], seeds: list[str], max_depth: int):
    """Plain BFS: url -> min depth (what the reference's seen-set +
    depth-sorted pending guarantees, goldie_playwright_parallel.py:
    647-664)."""
    depth = {s: 0 for s in seeds}
    frontier = list(seeds)
    while frontier:
        nxt = []
        for u in frontier:
            for v in edges.get(u, []):
                d = depth[u] + 1
                if d <= max_depth and v not in depth:
                    depth[v] = d
                    nxt.append(v)
        frontier = nxt
    return depth


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    docs = synth_documents(60, seed=5)
    pages = pages_from_documents(docs)
    d = str(tmp_path_factory.mktemp("crawl_pages"))
    write_pages_parquet(pages, d, rows_per_file=20)
    n = docs.num_rows
    # ground-truth link graph: M2 links of page i = {c1, c2} canonical urls
    edges = {}
    urls = {}
    for i in range(n):
        lang = docs["lang"][i].as_py()
        src = docs["source"][i].as_py()
        urls[i] = page_url(i, lang, src)
    for i in range(n):
        c1, c2 = child_ids(i, n)
        edges[urls[i]] = [urls[c1], urls[c2]]
    return d, urls, edges


def test_bfs_depth_and_seen_parity(ray_session, corpus):
    pages_dir, urls, edges = corpus
    seeds = [urls[0]]
    cfg = CrawlConfig(n_shards=3, max_depth=4, max_rounds=10)
    res = run_crawl(pages_dir, seeds, cfg)
    got = {
        u: d
        for u, d in zip(res.order["url"].to_pylist(), res.order["depth"].to_pylist())
    }
    want = _reference_bfs(edges, seeds, max_depth=4)
    assert got == want                      # same urls at same min-depth
    assert res.counts["seen"] == len(want)  # URL-seen set size parity
    assert res.counts["errored"] == 0
    assert res.counts["pending"] == 0
    # deterministic intra-round order: (depth, url) ascending per round
    order = list(
        zip(res.order["round"].to_pylist(), res.order["depth"].to_pylist(),
            res.order["url"].to_pylist())
    )
    assert order == sorted(order)


def test_unknown_seed_goes_to_errored(ray_session, corpus):
    pages_dir, urls, edges = corpus
    seeds = [urls[0], "http://inspection.canada.ca/en/missing/doc999"]
    cfg = CrawlConfig(n_shards=2, max_depth=1, max_rounds=5)
    res = run_crawl(pages_dir, seeds, cfg)
    assert res.counts["errored"] == 1
    fetched = set(res.order["url"].to_pylist())
    assert "http://inspection.canada.ca/en/missing/doc999" not in fetched


def test_politeness_budget_defers_not_drops(ray_session, corpus):
    """A per-host budget spreads fetches over more rounds but the final
    seen set is identical (politeness defers, never drops)."""
    pages_dir, urls, edges = corpus
    seeds = [urls[0]]
    want = _reference_bfs(edges, seeds, max_depth=3)

    free = run_crawl(pages_dir, seeds, CrawlConfig(n_shards=2, max_depth=3, max_rounds=40))
    capped = run_crawl(
        pages_dir,
        seeds,
        CrawlConfig(n_shards=2, max_depth=3, per_host_budget=5, max_rounds=40),
    )
    assert set(free.order["url"].to_pylist()) == set(want)
    assert set(capped.order["url"].to_pylist()) == set(want)
    assert capped.rounds > free.rounds  # budget stretched the schedule


def test_edges_expand_pure_bfs(ray_session):
    """The same frontier engine over a plain edge table."""
    edges = pa.table(
        {
            "src": ["a", "a", "b", "c", "d"],
            "dst": ["b", "c", "d", "d", "e"],
        }
    )
    cfg = CrawlConfig(n_shards=2, max_depth=10, max_rounds=10)
    res = run_frontier(edges_expand(edges), ["a"], cfg)
    got = dict(zip(res.order["url"].to_pylist(), res.order["depth"].to_pylist()))
    assert got == {"a": 0, "b": 1, "c": 1, "d": 2, "e": 3}


def test_edges_expand_takes_any_string_type(ray_session):
    """An edge table with large_string or dictionary columns (as pandas
    or polars parquet often comes back) crawls like a string one; rows
    with a null are dropped."""
    src = ["a", "a", "b", "c", "d", None]
    dst = ["b", "c", "d", "d", "e", "f"]
    cfg = CrawlConfig(n_shards=2, max_depth=10, max_rounds=10)
    plain = run_frontier(edges_expand(pa.table({"src": src, "dst": dst})), ["a"], cfg)
    other = pa.table(
        {
            "src": pa.array(src, pa.large_string()),
            "dst": pa.array(dst).dictionary_encode(),
        }
    )
    res = run_frontier(edges_expand(other), ["a"], cfg)
    assert res.order.to_pylist() == plain.order.to_pylist()
    assert res.order.num_rows == 5


def test_checkpoint_resume_identical(ray_session, corpus, tmp_path):
    """Kill after round k, resume from checkpoint: final outputs equal
    an uninterrupted run (FIXTURES.md §5 resume fixture)."""
    pages_dir, urls, edges = corpus
    seeds = [urls[0]]

    full = run_crawl(
        pages_dir, seeds, CrawlConfig(n_shards=2, max_depth=4, max_rounds=20)
    )

    ck = str(tmp_path / "ckpt")
    # run only 2 rounds ("kill" via max_rounds), checkpointing each round
    partial_cfg = CrawlConfig(
        n_shards=2, max_depth=4, max_rounds=2, checkpoint_dir=ck
    )
    partial = run_crawl(pages_dir, seeds, partial_cfg)
    assert partial.rounds == 2

    resumed_cfg = CrawlConfig(
        n_shards=2, max_depth=4, max_rounds=20, checkpoint_dir=ck
    )
    resumed = run_crawl(pages_dir, seeds, resumed_cfg, resume=True)

    full_map = dict(
        zip(full.order["url"].to_pylist(), full.order["depth"].to_pylist())
    )
    combined = dict(
        zip(partial.order["url"].to_pylist(), partial.order["depth"].to_pylist())
    )
    combined.update(
        zip(resumed.order["url"].to_pylist(), resumed.order["depth"].to_pylist())
    )
    assert combined == full_map
    assert resumed.counts["seen"] == full.counts["seen"]
    assert resumed.counts["pending"] == 0


def test_approx_mode_matches_exact(ray_session, corpus):
    pages_dir, urls, edges = corpus
    seeds = [urls[0]]
    exact = run_crawl(pages_dir, seeds, CrawlConfig(n_shards=2, max_depth=3, mode="exact"))
    approx = run_crawl(pages_dir, seeds, CrawlConfig(n_shards=2, max_depth=3, mode="approx"))
    assert set(exact.order["url"].to_pylist()) == set(approx.order["url"].to_pylist())


def test_suggest_hot_host_salt(ray_session, tmp_path, monkeypatch):
    """The skew advisor flags only hosts above the per-shard target,
    sizes salts as ceil(count/target), and crawling with the suggested
    salt map yields the identical fetched-URL set (salting moves queue
    ownership, never results). The filter runs in the Dataset: only
    hot hosts' rows reach the driver."""
    import pyarrow as pa
    import ray.data

    from louis_crawler_legacy_ray.pipelines.crawl import (
        CrawlConfig,
        run_crawl,
        suggest_hot_host_salt,
    )
    from louis_crawler_legacy_ray.sources.pages import (
        pages_from_documents,
        synth_documents,
        write_pages_parquet,
    )

    # 2 hosts: n_hosts=2 concentrates ~150 pages per host
    pages = pages_from_documents(synth_documents(300), n_children=4, n_hosts=2)
    d = str(tmp_path / "pages")
    write_pages_parquet(pages, d)
    driver_rows = []
    iter_rows = ray.data.Dataset.iter_rows

    def counting_iter_rows(self, *a, **kw):
        for row in iter_rows(self, *a, **kw):
            driver_rows.append(row)
            yield row

    monkeypatch.setattr(ray.data.Dataset, "iter_rows", counting_iter_rows)
    salt = suggest_hot_host_salt(d, per_shard_target=100)
    # both hosts exceed 100 pages -> 2 salts each
    assert salt and all(v == 2 for v in salt.values())
    assert len(driver_rows) == len(salt)
    driver_rows.clear()
    assert suggest_hot_host_salt(d, per_shard_target=10_000) == {}
    assert driver_rows == []
    monkeypatch.undo()

    seeds = [pages["url"][0].as_py()]
    plain = run_crawl(d, seeds, CrawlConfig(n_shards=2, max_depth=3))
    salted = run_crawl(
        d, seeds, CrawlConfig(n_shards=2, max_depth=3, hot_host_salt=salt)
    )
    assert set(plain.order["url"].to_pylist()) == set(
        salted.order["url"].to_pylist()
    )
