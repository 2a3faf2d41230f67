"""Round-2 frontier behaviors: exact global round cap, query-bearing
seed routing, bucket-pruned task fan-out, and errored-URL quarantine
checked against a DuckDB oracle that walks only existing pages."""

import duckdb
import pyarrow as pa
import pytest

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    clear_pages_cache,
    run_crawl,
)
from louis_crawler_legacy_ray.sources.pages import (
    lang_segment,
    pages_from_documents,
    synth_documents,
    write_pages_parquet,
)


def _page(url: str, links: list[str]) -> str:
    anchors = "".join(f'<a href="{l}">x</a>' for l in links)
    return f"<html><body><main><h1>t</h1>{anchors}</main></body></html>"


def _corpus(tmp_path, name: str, pages: dict[str, list[str]], **kw) -> str:
    t = pa.table(
        {
            "url": pa.array(list(pages.keys()), pa.string()),
            "html": pa.array(
                [_page(u, ls) for u, ls in pages.items()], pa.string()
            ),
        }
    )
    d = str(tmp_path / name)
    write_pages_parquet(t, d, **kw)
    return d


def test_round_limit_exact_below_n_shards(ray_session, tmp_path):
    """round_limit=1 with n_shards=4 must select EXACTLY one URL per
    round (the old per-shard division selected up to n_shards), and the
    overflow is requeued, never dropped."""
    pages = {
        f"http://h{i}.ca/p": [f"http://h{j}.ca/p" for j in range(6)]
        for i in range(6)
    }
    d = _corpus(tmp_path, "exact_cap", pages)
    res = run_crawl(
        d,
        [f"http://h{i}.ca/p" for i in range(4)],  # 4 seeds spread over shards
        CrawlConfig(n_shards=4, max_depth=3, max_rounds=40, round_limit=1),
    )
    assert all(m["selected"] == 1 for m in res.metrics)
    # nothing dropped: all 6 pages eventually crawled
    assert sorted(set(res.order["url"].to_pylist())) == sorted(pages)


def test_query_string_seed_not_quarantined(ray_session, tmp_path):
    """A seed URL with a query string must be recorded as fetched by its
    owning shard (the vectorized netloc regex must stop at '?' like
    urlparse), not erroneously quarantined as not_found."""
    seed = "http://site.ca/p?id=1&lang=en"
    pages = {
        seed: ["/child1", "/child2"],
        "http://site.ca/child1": [],
        "http://site.ca/child2": [],
    }
    d = _corpus(tmp_path, "qseed", pages)
    clear_pages_cache()
    res = run_crawl(
        d,
        [seed],
        CrawlConfig(
            n_shards=4,
            max_depth=2,
            max_rounds=10,
        ),
    )
    assert res.counts["errored"] == 0
    assert set(res.order["url"].to_pylist()) == set(pages)


@pytest.mark.parametrize("fanout", ["tasks"])
def test_bucketed_corpus_pruned_rounds_match_full_scan(
    ray_session, tmp_path, fanout
):
    """The bucket-pruned distributed rounds (tasks submitted only for
    blocks whose url-hash buckets intersect the round) produce the
    identical crawl as the full-scan layout."""
    docs = synth_documents(60, seed=11)
    pages = pages_from_documents(docs)
    seed = (
        f"http://inspection.canada.ca/{lang_segment(docs['lang'][0].as_py())}"
        f"/{docs['source'][0].as_py()}/doc0"
    )
    d_flat = str(tmp_path / f"flat_{fanout}")
    d_bkt = str(tmp_path / f"bkt_{fanout}")
    write_pages_parquet(pages, d_flat, rows_per_file=16)
    write_pages_parquet(pages, d_bkt, rows_per_file=16, bucket_by_url=True)
    cfg = dict(
        n_shards=2,
        max_depth=4,
        max_rounds=12,
    )
    clear_pages_cache()
    flat = run_crawl(d_flat, [seed], CrawlConfig(**cfg))
    clear_pages_cache()
    bkt = run_crawl(d_bkt, [seed], CrawlConfig(**cfg))
    clear_pages_cache()
    assert flat.order.to_pydict() == bkt.order.to_pydict()
    assert flat.counts["seen"] == bkt.counts["seen"]


def test_errored_quarantine_vs_duckdb_oracle(ray_session, tmp_path):
    """Pages linking to URLs missing from the corpus: the missing ones
    are quarantined as errored and excluded from the crawl order; the
    order must equal a DuckDB recursive BFS that walks ONLY existing
    pages (reference 404 path, responses.py:30-35)."""
    # a -> b, dead1 ; b -> c, dead2 ; c -> a  (dead* not in the corpus)
    pages = {
        "http://s.ca/a": ["/b", "/dead1"],
        "http://s.ca/b": ["/c", "/dead2"],
        "http://s.ca/c": ["/a"],
        "http://s.ca/island": ["/a"],  # unreachable from the seed
    }
    d = _corpus(tmp_path, "errored", pages)
    clear_pages_cache()
    res = run_crawl(
        d,
        ["http://s.ca/a"],
        CrawlConfig(n_shards=2, max_depth=5, max_rounds=10),
    )
    got = sorted(
        zip(res.order["depth"].to_pylist(), res.order["url"].to_pylist())
    )

    con = duckdb.connect()
    con.execute(
        "CREATE TABLE edges AS SELECT * FROM (VALUES "
        "('http://s.ca/a','http://s.ca/b'),"
        "('http://s.ca/a','http://s.ca/dead1'),"
        "('http://s.ca/b','http://s.ca/c'),"
        "('http://s.ca/b','http://s.ca/dead2'),"
        "('http://s.ca/c','http://s.ca/a'),"
        "('http://s.ca/island','http://s.ca/a')) t(src, dst)"
    )
    con.execute(
        "CREATE TABLE pages AS SELECT * FROM (VALUES "
        + ",".join(f"('{u}')" for u in pages)
        + ") t(url)"
    )
    oracle = con.execute(
        """
        WITH RECURSIVE bfs(url, depth) AS (
          SELECT 'http://s.ca/a', 0
          UNION
          SELECT e.dst, b.depth + 1
          FROM bfs b JOIN edges e ON e.src = b.url
          JOIN pages p ON p.url = e.dst        -- only existing pages fetch
          WHERE b.depth < 5
        )
        SELECT min(depth) AS depth, url FROM bfs GROUP BY url
        ORDER BY depth, url
        """
    ).fetchall()
    assert got == [(d_, u) for d_, u in oracle]
    # the two dead links were quarantined, the island never discovered
    assert res.counts["errored"] == 2
    assert "http://s.ca/island" not in set(res.order["url"].to_pylist())


def test_injected_fetcher_matches_corpus_crawl(ray_session, tmp_path):
    """The FetcherActor seam: swapping the corpus semi-join for an
    injected DictFetcher leaves the crawl result unchanged (order,
    seen set, errored quarantine)."""
    from louis_crawler_legacy_ray.pipelines.crawl import run_crawl_with_fetcher
    from louis_crawler_legacy_ray.stages.fetch import DictFetcher

    pages = {
        "http://f.ca/a": ["/b", "/dead"],
        "http://f.ca/b": ["/c"],
        "http://f.ca/c": ["/a"],
    }
    d = _corpus(tmp_path, "fetcher_corpus", pages)
    cfg = dict(n_shards=2, max_depth=4, max_rounds=10)
    clear_pages_cache()
    via_corpus = run_crawl(d, ["http://f.ca/a"], CrawlConfig(**cfg))

    html_by_url = {u: _page(u, ls) for u, ls in pages.items()}

    def factory():
        return DictFetcher(html_by_url)

    via_fetcher = run_crawl_with_fetcher(
        factory, ["http://f.ca/a"], CrawlConfig(**cfg)
    )
    assert via_corpus.order.to_pydict() == via_fetcher.order.to_pydict()
    assert via_corpus.counts["seen"] == via_fetcher.counts["seen"]
    assert via_corpus.counts["errored"] == via_fetcher.counts["errored"] == 1


@pytest.mark.parametrize(
    "policy",
    [
        dict(priority="depth_url"),
        dict(priority="backlink_desc"),
        dict(priority="opic"),
        dict(priority="relevance_desc", relevance_keyword="food"),
        dict(follow_redirects=True, obey_meta_robots=True),
    ],
    ids=["depth_url", "backlink_desc", "opic", "relevance_desc", "redirects_meta"],
)
def test_injected_fetcher_matches_corpus_crawl_over_policy(
    ray_session, tmp_path, policy
):
    """Corpus and fetcher page sources drive the same round task under
    every candidate policy: identical order and seen set on a bucketed
    corpus whose per-host budget makes the priority shape each round
    (with 3 children per page, each priority here yields a different
    schedule from depth_url). Fetcher rounds report the same per-task
    phase timings."""
    from louis_crawler_legacy_ray.pipelines.crawl import run_crawl_with_fetcher
    from louis_crawler_legacy_ray.stages.fetch import DictFetcher

    docs = synth_documents(120, seed=4)
    pages = pages_from_documents(docs, n_children=3)
    d = str(tmp_path / "pages")
    write_pages_parquet(pages, d, rows_per_file=16, bucket_by_url=True)
    seed = (
        f"http://inspection.canada.ca/{lang_segment(docs['lang'][0].as_py())}"
        f"/{docs['source'][0].as_py()}/doc0"
    )
    cfg = dict(n_shards=2, max_depth=6, max_rounds=64, per_host_budget=16, **policy)
    clear_pages_cache()
    via_corpus = run_crawl(d, [seed], CrawlConfig(**cfg))
    clear_pages_cache()

    html_by_url = {
        u: h.decode()
        for u, h in zip(pages["url"].to_pylist(), pages["html"].to_pylist())
    }

    def factory():
        return DictFetcher(html_by_url)

    via_fetcher = run_crawl_with_fetcher(factory, [seed], CrawlConfig(**cfg))
    assert via_corpus.order.to_pydict() == via_fetcher.order.to_pydict()
    assert via_corpus.counts["seen"] == via_fetcher.counts["seen"] > 1
    assert all(
        m["p_n_tasks"] >= 1 and "p_cpu_extract" in m for m in via_fetcher.metrics
    )


def test_fetcher_unrequested_urls_stay_out_of_seen_and_items(ray_session, tmp_path):
    """A fetcher that answers with rows the round never asked for — a
    redirect's final url, or the same page twice — must not add them
    to the seen set or the items sink: only the first row per
    requested url counts."""
    import glob

    import pyarrow.parquet as pq

    from louis_crawler_legacy_ray.pipelines.crawl import run_crawl_with_fetcher
    from louis_crawler_legacy_ray.stages.fetch import DictFetcher

    html_by_url = {
        "http://f.ca/a": _page("http://f.ca/a", ["/b"]),
        "http://f.ca/b": _page("http://f.ca/b", []),
    }
    extra = _page("http://f.ca/elsewhere", [])

    class OverEagerFetcher(DictFetcher):
        def fetch(self, urls):
            got = super().fetch(urls)
            return pa.concat_tables(
                [
                    got,
                    got,
                    pa.table(
                        {
                            "url": pa.array(["http://f.ca/elsewhere"], pa.string()),
                            "html": pa.array([extra], pa.string()),
                        }
                    ),
                ]
            )

    def factory():
        return OverEagerFetcher(html_by_url)

    out = str(tmp_path / "out")
    res = run_crawl_with_fetcher(
        factory,
        ["http://f.ca/a"],
        CrawlConfig(n_shards=2, max_depth=4, max_rounds=10),
        out_dir=out,
    )
    assert res.counts["seen"] == 2
    assert sorted(res.order["url"].to_pylist()) == sorted(html_by_url)
    items = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(f"{out}/crawl_items/round=*/*.parquet")]
    )
    assert sorted(items["url"].to_pylist()) == sorted(html_by_url)
    assert items["depth"].null_count == 0


def test_routing_fetcher_dual_path(ray_session):
    """M12 smart routing (reference base_playwright.py:185-272): pages
    flagged by the JS-need heuristic are refetched via the js fetcher;
    content-rich pages stay on the regular path; routing decisions are
    remembered per worker."""
    from louis_crawler_legacy_ray.stages.fetch import DictFetcher, RoutingFetcher

    rich = "<main>" + ("solid server-rendered words " * 40) + "</main>"
    shell = '<main data-reactroot="">loading...</main>'
    rendered = "<main>" + ("client content now present " * 40) + "</main>"
    regular = DictFetcher({"http://r.ca/rich": rich, "http://r.ca/app": shell})
    js = DictFetcher({"http://r.ca/app": rendered, "http://r.ca/rich": rich})
    f = RoutingFetcher(regular, js)

    import pyarrow as pa2

    out = f.fetch(pa2.array(["http://r.ca/rich", "http://r.ca/app"]))
    by_url = dict(zip(out["url"].to_pylist(), out["html"].to_pylist()))
    assert by_url["http://r.ca/rich"] == rich          # regular path
    assert by_url["http://r.ca/app"] == rendered       # refetched via js
    assert "http://r.ca/app" in f.playwright_urls
    assert "http://r.ca/rich" in f.regular_urls
    # second round: known-js url goes straight to the js fetcher
    out2 = f.fetch(pa2.array(["http://r.ca/app"]))
    assert out2["html"].to_pylist() == [rendered]
