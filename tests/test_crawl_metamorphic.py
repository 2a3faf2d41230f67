"""Metamorphic crawl properties over random link graphs. Edge tables
drive the same round tasks as a pages crawl, so they are the cheap
generator: hypothesis draws graphs of 20-80 URLs over 1-6 hosts with
0-4 out-links per page, self-loops, repeated links and dangling links
(to URLs no edge leaves from). For each graph the crawl must give the
same (round, depth, url) order, seen/errored counts and per-round
metrics counters

- for every shard count (1, 3, 7: one parametrized case each, so the
  pooled shard actors are reused within a case),
- with checkpointing off, and on with a ``max_rounds=k`` stop followed
  by ``resume=True`` (token-bucket politeness in the budgeted draws),
- and, in a case of its own, with a graceful stop raised as round k
  starts (its round tasks still sleeping) followed by ``resume=True``,
  a partial round's row folded into the row of its completion,

all equal to a shard-free round-by-round simulation, and, for the
unbudgeted draws, to the plain BFS of :func:`_reference_bfs`. The
draws are derandomized and not shrunk: a failure reports the drawn
graph as found, and a shrink would rerun hundreds of crawls."""

import shutil
import tempfile

import pyarrow as pa
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_crawl_frontier import _reference_bfs

from louis_crawler_legacy_ray.pipelines.crawl import (
    CrawlConfig,
    clear_graceful_stop,
    edges_expand,
    request_graceful_stop,
    run_frontier,
)

MAX_ROUNDS = 64


@st.composite
def _graphs(draw):
    n_hosts = draw(st.integers(1, 6))
    n_urls = draw(st.integers(20, 80))
    urls = [f"http://h{draw(st.integers(0, n_hosts - 1))}.ca/p{i}" for i in range(n_urls)]
    dangling = [f"http://h{j % n_hosts}.ca/x{j}" for j in range(draw(st.integers(0, 4)))]
    targets = urls + dangling
    links = {}
    for u in urls:
        out = [draw(st.sampled_from(targets)) for _ in range(draw(st.integers(0, 4)))]
        if out and draw(st.integers(0, 9)) == 0:
            out[0] = u  # self-loop
        links[u] = out
    seeds = draw(st.lists(st.sampled_from(urls), min_size=1, max_size=3, unique=True))
    return {
        "links": links,
        "seeds": seeds,
        "max_depth": draw(st.integers(2, 4)),
        "budget": draw(st.sampled_from([None, 2, 3])),
        "stop": draw(st.integers(1, 3)),
    }


def _simulate(links: dict, seeds: list, max_depth: int, budget: int | None):
    """The crawl with no shards: each round takes pending in (depth,
    url) order, each host capped by its token bucket (refill
    ``budget``, burst 2x, unspent tokens carried), fetches the taken
    URLs and admits their unseen links at depth + 1 (a rediscovery
    keeps the smaller depth). Returns the order rows, the metrics
    counters (round, selected, fetched, errored, new_candidates,
    pending_lag) per round and the URLs left pending."""
    pending = {s: 0 for s in seeds}
    known = set(seeds)
    tokens: dict[str, int] = {}
    order, rows = [], []
    for rnd in range(MAX_ROUNDS):
        if not pending:
            break
        caps: dict[str, int] = {}
        used: dict[str, int] = {}
        taken = []
        for url in sorted(pending, key=lambda u: (pending[u], u)):
            host = url.split("/")[2]
            if budget is not None:
                cap = caps.setdefault(
                    host, min(2 * budget, tokens.get(host, 0) + budget)
                )
                if used.get(host, 0) >= cap:
                    continue
                used[host] = used.get(host, 0) + 1
            taken.append((url, pending[url]))
        for host, cap in caps.items():
            tokens[host] = cap - used.get(host, 0)
        for url, depth in taken:
            del pending[url]
            order.append((rnd, depth, url))
        new = 0
        for url, depth in taken:
            if depth + 1 > max_depth:
                continue
            for v in links.get(url, []):
                if v not in known:
                    known.add(v)
                    pending[v] = depth + 1
                    new += 1
                elif v in pending:
                    pending[v] = min(pending[v], depth + 1)
        rows.append(
            {
                "round": rnd,
                "selected": len(taken),
                "fetched": len(taken),
                "errored": 0,
                "new_candidates": new,
                "pending_lag": len(pending),
            }
        )
    return order, rows, len(pending)


def _edge_table(links: dict) -> pa.Table:
    return pa.table(
        {
            "src": [u for u, out in links.items() for _ in out],
            "dst": [v for out in links.values() for v in out],
        },
        schema=pa.schema([("src", pa.string()), ("dst", pa.string())]),
    )


def _knobs(n_shards: int, g: dict) -> dict:
    knobs = dict(n_shards=n_shards, max_depth=g["max_depth"], max_rounds=MAX_ROUNDS)
    if g["budget"] is not None:
        knobs.update(per_host_budget=g["budget"], politeness="token_bucket")
    return knobs


def _outcome(res, metrics_rows) -> tuple:
    o = res.order
    order = list(zip(o["round"].to_pylist(), o["depth"].to_pylist(), o["url"].to_pylist()))
    counts = (res.counts["seen"], res.counts["errored"], res.counts["pending"])
    return order, counts, metrics_rows


@pytest.mark.parametrize("n_shards", [1, 3, 7])
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.generate],
)
@given(g=_graphs())
def test_crawl_is_invariant_to_shards_checkpoint_and_resume(ray_session, n_shards, g):
    links, seeds, max_depth, budget = g["links"], g["seeds"], g["max_depth"], g["budget"]
    edges = pa.table(
        {
            "src": [u for u, out in links.items() for _ in out],
            "dst": [v for out in links.values() for v in out],
        },
        schema=pa.schema([("src", pa.string()), ("dst", pa.string())]),
    )
    knobs = dict(n_shards=n_shards, max_depth=max_depth, max_rounds=MAX_ROUNDS)
    if budget is not None:
        knobs.update(per_host_budget=budget, politeness="token_bucket")
    expand = edges_expand(edges)

    plain = run_frontier(expand, seeds, CrawlConfig(**knobs))
    got = _outcome(plain, plain.metrics_table().to_pylist())

    ckdir = tempfile.mkdtemp(prefix="metamorphic_ck_")
    try:
        ck = dict(knobs, checkpoint_dir=ckdir)
        first = run_frontier(expand, seeds, CrawlConfig(**dict(ck, max_rounds=g["stop"])))
        resumed = run_frontier(expand, seeds, CrawlConfig(**ck), resume=True)
        stitched = _outcome(
            resumed,
            first.metrics_table().to_pylist() + resumed.metrics_table().to_pylist(),
        )
    finally:
        shutil.rmtree(ckdir, ignore_errors=True)
    assert stitched == got

    order, rows, left = _simulate(links, seeds, max_depth, budget)
    assert got == (order, (len(order), 0, left), rows)
    if budget is None:
        depth = _reference_bfs(links, seeds, max_depth)
        assert order == sorted((d, d, u) for u, d in depth.items())


_COUNTERS = ("round", "selected", "fetched", "errored", "new_candidates", "pending_lag")


def _stitch(first: list[dict], resumed: list[dict]) -> list[dict]:
    """The metrics counters of a stopped crawl and its resume, with a
    partial round's row and the row of its completion folded into one:
    the completion re-takes exactly the deferred URLs, so together
    they select, fetch and admit what the round does uninterrupted."""
    rows = [{k: m[k] for k in _COUNTERS} for m in first + resumed]
    if first and "partial_attempt" in first[-1]:
        part = first[-1]
        assert resumed and resumed[0]["round"] == part["round"]
        done = resumed[0]
        assert done["selected"] == part["deferred"] > 0
        assert part["fetched"] + part["deferred"] == part["selected"]
        k = len(first) - 1
        rows[k : k + 2] = [
            {
                "round": part["round"],
                "selected": part["selected"],
                "fetched": part["fetched"] + done["fetched"],
                "errored": part["errored"] + done["errored"],
                "new_candidates": part["new_candidates"] + done["new_candidates"],
                "pending_lag": done["pending_lag"],
            }
        ]
    return rows


@pytest.mark.parametrize("n_shards", [1, 3, 7])
@settings(
    max_examples=16,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.generate],
)
@given(g=_graphs(), delay_ms=st.sampled_from([20, 40, 80]))
def test_graceful_stop_then_resume_matches_plain_crawl(
    ray_session, n_shards, g, delay_ms
):
    """A graceful stop raised as round ``g["stop"]`` (or the crawl's
    last round) starts, then ``resume=True``. Round task t of the
    stopped crawl sleeps (t+1) * ``delay_ms``, so the stop finds the
    round's tasks still running. Whichever split the cancel race gives
    (every delivery landed and the round committed complete, some
    landed, or none), the stitched order, counts and metrics counters
    equal the plain crawl's."""
    links, seeds = g["links"], g["seeds"]
    knobs = _knobs(n_shards, g)
    expand = edges_expand(_edge_table(links))
    plain = run_frontier(expand, seeds, CrawlConfig(**knobs))
    # a round the crawl reaches (round 0 when the seeds are all of it)
    stop = min(g["stop"], len(plain.metrics) - 1)

    def stop_at_round(sel, round_no, frontier, part_tag=""):
        if round_no == stop:
            request_graceful_stop()
        return expand(sel, round_no, frontier, part_tag=part_tag)

    stop_at_round.n_buckets = getattr(expand, "n_buckets", None)
    ckdir = tempfile.mkdtemp(prefix="metamorphic_stop_")
    try:
        ck = dict(knobs, checkpoint_dir=ckdir)
        first = run_frontier(
            stop_at_round, seeds, CrawlConfig(**ck, task_delay_ms=delay_ms)
        )
        resumed = run_frontier(expand, seeds, CrawlConfig(**ck), resume=True)
        stitched = _outcome(resumed, _stitch(first.metrics, resumed.metrics))
    finally:
        clear_graceful_stop()
        shutil.rmtree(ckdir, ignore_errors=True)
    assert stitched == _outcome(plain, plain.metrics_table().to_pylist())
