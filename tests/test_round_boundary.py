"""The round boundary: ``take`` and ``finish_round`` hand the driver the
selection and the shard counts in the call that made them, and shards
write their own checkpoint files inside ``finish_round``, so a round
costs two waves (take, finish_round), a round a graceful stop cuts
included. Pins the wave count, the one round path every expand stage
(pages corpus, fetcher, edge table) takes, the ``round_limit``
truncation over a bucketed corpus (where ``truncate_selection`` cuts
the part take built instead of building another),
``new_candidates`` leaving out URLs quarantined at admission, and a
page html.parser or urllib.parse rejects taking the failed-fetch
path."""

import sys

import pyarrow as pa
import pytest
import ray

from louis_crawler_legacy_ray.functions.html_kernels import extract_page
from louis_crawler_legacy_ray.pipelines import crawl as crawl_mod
from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    Frontier,
    edges_expand,
    fetcher_expand,
    pages_expand,
    run_crawl,
    run_frontier,
)
from louis_crawler_legacy_ray.sources.pages import (
    PAGES_SCHEMA,
    pages_from_documents,
    synth_documents,
    write_pages_parquet,
)
from louis_crawler_legacy_ray.stages.fetch import DictFetcher
from louis_crawler_legacy_ray.state.checkpoint import (
    latest_complete_round,
    partial_round,
)
from louis_crawler_legacy_ray.state.seen import FrontierShard


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """The same 60 pages over 4 hosts (so several shards own some),
    flat and bucketed by URL hash."""
    pages = pages_from_documents(synth_documents(60, seed=5), n_hosts=4)
    flat = str(tmp_path_factory.mktemp("flat_pages"))
    bucketed = str(tmp_path_factory.mktemp("bucketed_pages"))
    write_pages_parquet(pages, flat, rows_per_file=20)
    write_pages_parquet(pages, bucketed, rows_per_file=20, bucket_by_url=True)
    return flat, bucketed, pages["url"][0].as_py()


def _order(res) -> list[tuple]:
    o = res.order
    return list(
        zip(o["round"].to_pylist(), o["depth"].to_pylist(), o["url"].to_pylist())
    )


@pytest.mark.parametrize("n_shards", [2, 3])
def test_round_limit_bucketed_matches_flat(ray_session, corpora, n_shards):
    """round_limit binds in most rounds (each shard's take caps itself at
    the limit, so the global truncation needs >1 shard); the truncated
    selection's bucket
    ranges must still slice the right rows, so a bucketed corpus crawls
    in exactly the flat corpus's order and reaches the same seen set."""
    flat, bucketed, seed = corpora
    cfg = CrawlConfig(n_shards=n_shards, max_depth=4, round_limit=5, max_rounds=60)
    a = run_crawl(flat, [seed], cfg)
    b = run_crawl(bucketed, [seed], cfg)
    # the global cap was applied by truncation (driver-side threshold
    # keys) in several rounds, and every such round kept exactly 5
    cut = [m for m in a.metrics if m["driver_rows"] > 0]
    assert len(cut) >= 2
    assert all(m["selected"] == 5 for m in cut)
    assert _order(a) == _order(b)
    assert a.counts["seen"] == b.counts["seen"] == len(_order(a))
    assert a.counts["errored"] == b.counts["errored"] == 0
    # against the uncapped crawl: the cap defers, never drops
    free = run_crawl(flat, [seed], CrawlConfig(n_shards=n_shards, max_depth=4))
    assert {u for _, _, u in _order(free)} == {u for _, _, u in _order(a)}
    assert a.rounds > free.rounds


def _count_shard_calls(monkeypatch) -> list[tuple[str, str]]:
    """Record every driver-side shard call as (method, caller): the
    caller is the nearest named crawl / checkpoint function
    (comprehension frames are skipped). Round tasks run in worker
    processes, so their deliveries are not seen here."""
    import ray.actor

    calls: list[tuple[str, str]] = []
    remote0 = ray.actor.ActorMethod._remote

    def counting_remote(self, *a, **kw):
        f = sys._getframe(1)
        while f is not None and (
            not f.f_code.co_filename.endswith(
                ("pipelines/crawl.py", "state/checkpoint.py")
            )
            or f.f_code.co_name.startswith("<")
        ):
            f = f.f_back
        calls.append((self._method_name, f.f_code.co_name if f else ""))
        return remote0(self, *a, **kw)

    monkeypatch.setattr(ray.actor.ActorMethod, "_remote", counting_remote)
    return calls


def test_shard_waves_per_round(ray_session, corpora, tmp_path, monkeypatch):
    """Driver-side shard calls per round and shard: take 1, finish_round
    1, no selection_part; a checkpointed crawl makes no dump / load
    call (shards write their own files inside finish_round);
    ``counts`` only once at the end for CrawlResult.counts."""
    flat, _bucketed, seed = corpora
    n = 3
    cfg = CrawlConfig(n_shards=n, max_depth=3, checkpoint_dir=str(tmp_path / "ck"))
    calls = _count_shard_calls(monkeypatch)
    res = run_crawl(flat, [seed], cfg)
    monkeypatch.undo()

    rounds = res.rounds
    assert rounds >= 3

    def n_calls(name, caller=None):
        return sum(
            1 for m, c in calls if m == name and (caller is None or c == caller)
        )

    # the crawl ends on an empty take, one wave past the last round
    assert n_calls("take") == n * (rounds + 1)
    assert n_calls("finish_round") == n * rounds
    assert n_calls("dump") == n_calls("load") == 0
    assert n_calls("checkpoint") == n_calls("restore") == 0
    assert latest_complete_round(cfg.checkpoint_dir) == rounds - 1
    assert n_calls("selection_part") == 0
    assert n_calls("truncate_selection") == n_calls("sel_sample") == 0
    # counts: only the one final Frontier.counts() — the round waits on
    # its deliveries' refs, not on a counts() poll
    assert n_calls("counts") == n
    assert n_calls("counts", "counts") == n
    # pending_lag and retry checks read the counts the calls returned
    assert res.metrics[-1]["pending_lag"] == res.counts["pending"] == 0


@pytest.mark.parametrize("stop", ["after_deliveries", "mid_round"])
def test_stopped_round_is_one_finish_round_wave(
    ray_session, corpora, tmp_path, monkeypatch, stop
):
    """A round a graceful stop cuts ends like any other: after its
    expand the driver makes one finish_round wave (the shards stash
    what did not land under the round's attempt and write their
    checkpoint files) and no shard call but the final ``counts``.
    Stopped after every delivery, the round commits complete and its
    row counts the fetches that landed on the shards; stopped as it
    starts, with its tasks still sleeping, it commits a ``.partial``
    with URLs deferred."""
    flat, _bucketed, seed = corpora
    n = 3
    cfg = CrawlConfig(
        n_shards=n,
        max_depth=3,
        checkpoint_dir=str(tmp_path / "ck"),
        task_delay_ms=200 if stop == "mid_round" else 0,
    )
    expand = pages_expand(flat, cfg, None, 0)
    marks = []

    def stopping(sel, round_no, frontier, part_tag=""):
        if round_no == 1 and stop == "mid_round":
            crawl_mod.request_graceful_stop()
        stats = expand(sel, round_no, frontier, part_tag=part_tag)
        if round_no == 1:
            if stop == "after_deliveries":
                crawl_mod.request_graceful_stop()
                # as for a task cancelled after its sends landed: the
                # round's fetches reach the shards, the task's count not
                stats.update(interrupted=True, fetched=0)
            marks.append(len(calls))
        return stats

    stopping.n_buckets = getattr(expand, "n_buckets", None)
    calls = _count_shard_calls(monkeypatch)
    try:
        res = run_frontier(stopping, [seed], cfg)
    finally:
        monkeypatch.undo()
        crawl_mod.clear_graceful_stop()

    assert [m["round"] for m in res.metrics] == [0, 1]
    assert sorted(m for m, _c in calls[marks[0]:]) == (
        ["counts"] * n + ["finish_round"] * n
    )
    ck = cfg.checkpoint_dir
    if stop == "mid_round":
        assert res.metrics[-1]["deferred"] > 0
        assert partial_round(ck)[0] == 1
        assert latest_complete_round(ck) == 0
    else:
        assert "deferred" not in res.metrics[-1]
        assert partial_round(ck) is None
        assert latest_complete_round(ck) == 1
        # nothing deferred: every selected URL landed, and the row
        # counts the shards' fetches
        assert res.metrics[-1]["fetched"] == res.metrics[-1]["selected"] > 0


def _expand_for(kind: str, flat: str, cfg: CrawlConfig):
    """The pages, fetcher or edge-table expand over the same 60 pages
    (the edge table holds each page's extracted links)."""
    if kind == "pages":
        return pages_expand(flat, cfg, None, 0)
    import pyarrow.parquet as pq

    tbl = pq.read_table(flat, columns=["url", "html"])
    htmls = dict(
        zip(tbl["url"].to_pylist(), (h.decode() for h in tbl["html"].to_pylist()))
    )
    if kind == "fetcher":
        return fetcher_expand(lambda: DictFetcher(htmls), cfg, None, 0)
    src, dst = [], []
    for u, h in htmls.items():
        links = extract_page(u, h, now=0)["links"]
        src += [u] * len(links)
        dst += links
    return edges_expand(pa.table({"src": src, "dst": dst}))


@pytest.mark.parametrize("kind", ["pages", "fetcher", "edges"])
def test_every_expand_takes_the_round_task_path(
    ray_session, corpora, monkeypatch, kind
):
    """One round path: whichever expand stage runs the rounds, the
    driver records no fetch and enqueues nothing beyond the seed (the
    round tasks deliver both), holds no selection row, and makes the
    same two shard waves per round."""
    flat, _bucketed, seed = corpora
    n = 3
    cfg = CrawlConfig(n_shards=n, max_depth=3)
    expand = _expand_for(kind, flat, cfg)
    calls = _count_shard_calls(monkeypatch)
    res = run_frontier(expand, [seed], cfg)
    monkeypatch.undo()

    def n_calls(name):
        return sum(1 for m, _c in calls if m == name)

    assert res.rounds >= 3
    assert res.counts["seen"] > 10
    assert n_calls("record_fetched") == 0
    assert n_calls("enqueue") == 1  # the seed's owning shard
    assert n_calls("take") == n * (res.rounds + 1)
    assert n_calls("finish_round") == n * res.rounds
    assert all(m["driver_rows"] == 0 for m in res.metrics)


def test_part_built_once_per_round_under_round_limit(ray_session, monkeypatch):
    """Under round_limit each shard builds its selection part once per
    round: take builds it, and in a round whose cap binds
    truncate_selection cuts that part instead of building another. A
    round whose cap does not bind makes no truncate_selection call."""

    class PartCountingShard(FrontierShard.__ray_actor_class__):
        def reset(self, shard_id, cfg):
            super().reset(shard_id, cfg)
            self.builds: dict[int, int] = {}  # round -> parts built

        def take(self, round_no, n_buckets=None):
            self.round_no = round_no
            return super().take(round_no, n_buckets)

        def _part(self, n_buckets):
            self.builds[self.round_no] = self.builds.get(self.round_no, 0) + 1
            return super()._part(n_buckets)

        def part_builds(self) -> dict:
            return self.builds

    hosts = [f"h{i}.ca" for i in range(6)]
    src = [f"http://{h}/root" for h in hosts for _ in range(5)]
    dst = [f"http://{h}/c{j}" for h in hosts for j in range(5)]
    src += dst
    dst += [u + "/leaf" for u in dst]
    cfg = CrawlConfig(n_shards=3, max_depth=3, round_limit=4, max_rounds=40)
    frontier = Frontier.__new__(Frontier)
    frontier.cfg = cfg
    frontier._pooled = False
    frontier.shards = [
        ray.remote(PartCountingShard).options(num_cpus=0).remote(i, cfg)
        for i in range(cfg.n_shards)
    ]
    try:
        seeds = [f"http://{h}/root" for h in hosts]
        expand = edges_expand(pa.table({"src": src, "dst": dst}))
        calls = _count_shard_calls(monkeypatch)
        res = run_frontier(expand, seeds, cfg, frontier=frontier)
        monkeypatch.undo()
        builds = ray.get([s.part_builds.remote() for s in frontier.shards])
    finally:
        frontier.release()
    assert res.counts["seen"] == len(seeds) + 2 * 30
    binding = sum(1 for m in res.metrics if m["driver_rows"] > 0)
    assert 5 <= binding < res.rounds
    assert sum(1 for m, _c in calls if m == "truncate_selection") == 3 * binding
    # one build per take, the final empty take included
    for per_round in builds:
        assert per_round == {r: 1 for r in range(res.rounds + 1)}


def test_new_candidates_leave_out_admission_quarantine(ray_session, tmp_path):
    """A link deny_url_patterns quarantines at admission lands in
    errored, not pending: it is no new candidate, on the pages path and
    the edge-table path alike."""
    graph = {
        "http://a.ca/root": ["/trap/1", "/page"],
        "http://a.ca/trap/1": ["/trap/2"],
        "http://a.ca/page": ["/leaf"],
        "http://a.ca/leaf": [],
    }
    cfg = CrawlConfig(n_shards=2, max_depth=4, deny_url_patterns=[r"/trap/"])
    htmls = {
        u: "<html><body><main><h1>t</h1>"
        + "".join(f'<a href="{h}">x</a>' for h in links)
        + "</main></body></html>"
        for u, links in graph.items()
    }
    n = len(htmls)
    d = str(tmp_path / "pages")
    write_pages_parquet(
        pa.table(
            {
                "url": pa.array(list(htmls), pa.string()),
                "warc_ts": pa.array([0] * n, pa.timestamp("us")),
                "html": pa.array([h.encode() for h in htmls.values()], pa.binary()),
                "text": pa.array([""] * n, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
            },
            schema=PAGES_SCHEMA,
        ),
        d,
    )
    edges = pa.table(
        {
            "src": [u for u, links in graph.items() for _ in links],
            "dst": [
                "http://a.ca" + h for links in graph.values() for h in links
            ],
        }
    )
    seed = ["http://a.ca/root"]
    for res in (run_crawl(d, seed, cfg), run_frontier(edges_expand(edges), seed, cfg)):
        assert [m["new_candidates"] for m in res.metrics] == [1, 1, 0]
        assert _order(res) == [
            (0, 0, "http://a.ca/root"),
            (1, 1, "http://a.ca/page"),
            (2, 2, "http://a.ca/leaf"),
        ]
        assert res.counts["errored"] == 1


def test_marked_section_page_is_a_failed_fetch(ray_session, tmp_path):
    """A page html.parser rejects ('<![v>' marked section) fails like a
    fetch: errored, no item row, no candidates; the rest of its round
    crawls as usual."""
    from louis_crawler_legacy_ray.pipelines.crawl import items_dataset

    def page(body: str) -> str:
        return f"<html><body><main><h1>t</h1>{body}</main></body></html>"

    htmls = {
        "http://a.ca/0": page('<a href="/1">1</a><a href="/2">2</a>'),
        # html.parser raises on the marked section; /3 is linked only here
        "http://a.ca/1": page('x<![v><p>y</p><a href="/3">3</a>'),
        "http://a.ca/2": page('<p>two</p><a href="/4">4</a>'),
        "http://a.ca/3": page("<p>three</p>"),
        "http://a.ca/4": page("<p>four</p>"),
    }
    n = len(htmls)
    pages = pa.table(
        {
            "url": pa.array(list(htmls), pa.string()),
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
            "html": pa.array([h.encode() for h in htmls.values()], pa.binary()),
            "text": pa.array([""] * n, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        },
        schema=PAGES_SCHEMA,
    )
    d = str(tmp_path / "pages")
    write_pages_parquet(pages, d)
    out = str(tmp_path / "out")
    res = run_crawl(d, ["http://a.ca/0"], CrawlConfig(n_shards=2, max_depth=3), out)
    assert _order(res) == [
        (0, 0, "http://a.ca/0"),
        (1, 1, "http://a.ca/2"),
        (2, 2, "http://a.ca/4"),
    ]
    assert res.counts["errored"] == 1
    assert res.counts["seen"] == 3
    assert res.counts["pending"] == 0
    items = items_dataset(out).to_pandas()
    assert sorted(items["url"]) == [
        "http://a.ca/0",
        "http://a.ca/2",
        "http://a.ca/4",
    ]


@pytest.mark.parametrize(
    "href, allowed_domains",
    [
        ("//[bad/x", None),  # urljoin raises in extract_children
        ("//[bad/x", ["a.ca"]),
        ("http://[bad/x", ["a.ca"]),  # urlparse raises in both link lists
    ],
)
def test_unsplittable_href_page_is_a_failed_fetch(ray_session, href, allowed_domains):
    """A page with an href urllib.parse raises on fails like a fetch:
    errored, no candidates (/3 is linked only from it); the crawl goes
    on instead of failing the round."""
    from louis_crawler_legacy_ray.pipelines.crawl import run_crawl_with_fetcher
    from louis_crawler_legacy_ray.stages.fetch import DictFetcher

    def page(body: str) -> str:
        return f"<html><body><main><h1>t</h1>{body}</main></body></html>"

    htmls = {
        "http://a.ca/0": page('<a href="/1">1</a><a href="/2">2</a>'),
        "http://a.ca/1": page(f'<a href="{href}">x</a><a href="/3">3</a>'),
        "http://a.ca/2": page('<p>two</p><a href="/4">4</a>'),
        "http://a.ca/3": page("<p>three</p>"),
        "http://a.ca/4": page("<p>four</p>"),
    }
    res = run_crawl_with_fetcher(
        lambda: DictFetcher(htmls),
        ["http://a.ca/0"],
        CrawlConfig(n_shards=2, max_depth=3, allowed_domains=allowed_domains),
    )
    assert _order(res) == [
        (0, 0, "http://a.ca/0"),
        (1, 1, "http://a.ca/2"),
        (2, 2, "http://a.ca/4"),
    ]
    assert res.counts["errored"] == 1
    assert res.counts["seen"] == 3
    assert res.counts["pending"] == 0
