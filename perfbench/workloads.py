"""The two closed-loop crawl workloads, their correctness gate and the
per-layer numbers read from each operation.

Every layer is driven and timed from here, through its public entry
point: ``pages_expand`` + ``run_frontier`` with a bench-owned
``Frontier`` (so ``take_round`` can be timed), the checkpoint module's
``write_checkpoint`` / ``load_checkpoint`` symbols as ``run_frontier``
resolves them, ``items_dataset`` -> ``map_batches(chunk_batch)``, and
serial probes of ``extract_page`` and ``chunk_html``.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import statistics
import time
from dataclasses import dataclass, replace

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .corpus import Corpus, bfs_order
from .tracing import Tracer

NOW_US = 0  # injected crawl clock: items are byte-stable across runs


@dataclass(frozen=True)
class Spec:
    name: str
    n_pages: int
    pad_bytes: int
    polite: bool = False  # token-bucket politeness, checkpoint per round, stop + resume
    chunk: bool = False  # items sink + Ray Data chunk stage


# Sizes are a quarter of the 8,191-page shapes (rounds scale with them),
# so several operations fit in one measured window on a 1-CPU box. Two
# workloads split the layers: the data plane (extract, items sink, chunk
# stage) and the control plane (round control, admission, checkpoints).
SPECS = {
    s.name: s
    for s in (
        # extract does most of the work; 5 BFS rounds, so per-round
        # control is a few percent of wall; the only workload writing the
        # items sink and chunking it
        Spec("crawl-heavy-chunk", n_pages=2047, pad_bytes=28000, chunk=True),
        # light pages, 2 URLs per host per round over 64 hosts: ~18
        # rounds, each paying take/finish/poll and a checkpoint write;
        # the stop + resume adds a checkpoint load
        Spec("crawl-polite-resume", n_pages=2047, pad_bytes=0, polite=True),
    )
}


def crawl_config(spec: Spec, ckpt_dir: str):
    from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig

    kw = dict(n_shards=4, max_depth=64, max_rounds=10_000, extract_batch_size=512)
    if spec.polite:
        kw.update(
            per_host_budget=2, politeness="token_bucket", checkpoint_dir=ckpt_dir
        )
    return CrawlConfig(**kw)


# -- correctness gate ---------------------------------------------------------


def order_rows(order: pa.Table) -> list[tuple[int, int, str]]:
    return list(
        zip(
            order["round"].to_pylist(),
            order["depth"].to_pylist(),
            order["url"].to_pylist(),
        )
    )


def check_order(actual: pa.Table, expected: list, what: str) -> list[str]:
    """Failure messages (empty when ``actual`` is exactly ``expected``)."""
    rows = order_rows(actual)
    if rows == expected:
        return []
    if len(rows) != len(expected):
        return [f"{what}: {len(rows)} order rows, expected {len(expected)}"]
    i = next(i for i, (a, b) in enumerate(zip(rows, expected)) if a != b)
    return [f"{what}: order row {i} is {rows[i]}, expected {expected[i]}"]


def check_counts(counts: dict, n_pages: int) -> list[str]:
    out = []
    if counts["seen"] != n_pages:
        out.append(f"seen {counts['seen']} != pages {n_pages}")
    for k in ("errored", "pending"):
        if counts[k]:
            out.append(f"{k} = {counts[k]}")
    return out


def check_items(out_dir: str, expected: dict[str, str]) -> list[str]:
    """Sink ``html_content`` must equal a serial ``extract_page`` for
    every sampled URL."""
    want = pa.array(sorted(expected))
    got: dict[str, str] = {}
    for f in glob.glob(f"{out_dir}/crawl_items/round=*/*.parquet"):
        t = pq.read_table(f, columns=["url", "html_content"])
        t = t.filter(pc.is_in(t["url"], value_set=want))
        got.update(zip(t["url"].to_pylist(), t["html_content"].to_pylist()))
    bad = [u for u, html in expected.items() if got.get(u) != html]
    return [f"html_content differs from extract_page for {len(bad)} URLs, e.g. {bad[0]}"] if bad else []


# -- per-op layer sums --------------------------------------------------------

_ROW_SUMS = {
    "selected": "selected",
    "fetched": "fetched",
    "errored": "errored",
    "admitted": "new_candidates",
    "t_take": "t_take",
    "t_expand": "t_expand",
    "t_finish": "t_finish",
    "t_counts_wait": "p_t_counts_wait",
    "t_poll": "p_t_poll",
    "task_n": "p_n_tasks",
    "cpu_filter": "p_cpu_filter",
    "cpu_extract": "p_cpu_extract",
    "cpu_send": "p_cpu_send",
    "end_spread": "p_end_spread",
}


def layer_sums(rows: list[dict]) -> dict:
    """Sum a crawl's own ``CrawlResult.metrics`` rows into one layers
    object (inline rounds carry no ``p_*`` task rollup and add 0)."""
    out = {k: sum(r.get(src) or 0 for r in rows) for k, src in _ROW_SUMS.items()}
    out["rounds"] = len(rows)
    out["pending_lag_max"] = max((r.get("pending_lag", 0) for r in rows), default=0)
    out["driver_rows_max"] = max((r.get("driver_rows", 0) for r in rows), default=0)
    return out


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


# -- the workload runner ------------------------------------------------------


class Bench:
    """One workload against one corpus: warm-up, operations, checks."""

    def __init__(self, spec: Spec, corpus: Corpus, work_dir: str, tracer: Tracer):
        self.spec = spec
        self.corpus = corpus
        self.tracer = tracer
        self.ckpt_dir = os.path.join(work_dir, "ckpt")
        self.out_dir = os.path.join(work_dir, "out")
        self.cfg = crawl_config(spec, self.ckpt_dir)
        self.expected = bfs_order(corpus)
        self.reference: list | None = None  # uninterrupted polite order
        self.half: int | None = None  # polite: rounds before the stop
        self.expected_items: dict[str, str] = {}
        self._ckpt = {"writes": 0, "bytes": 0}

    @contextlib.contextmanager
    def checkpoint_hooks(self):
        """Wrap the checkpoint functions ``run_frontier`` calls."""
        from louis_crawler_legacy_ray.pipelines import crawl as crawl_mod

        write0, load0 = crawl_mod.write_checkpoint, crawl_mod.load_checkpoint

        def write_checkpoint(*a, **kw):
            with self.tracer.span("write_checkpoint"):
                path = write0(*a, **kw)
            self._ckpt["writes"] += 1
            if self.tracer.enabled:
                self._ckpt["bytes"] += dir_bytes(path)
            return path

        def load_checkpoint(*a, **kw):
            with self.tracer.span("load_checkpoint"):
                return load0(*a, **kw)

        crawl_mod.write_checkpoint = write_checkpoint
        crawl_mod.load_checkpoint = load_checkpoint
        try:
            yield
        finally:
            crawl_mod.write_checkpoint = write0
            crawl_mod.load_checkpoint = load0

    def probe(self, reps: int = 3) -> dict[str, float]:
        """Serial single-process kernel probes over the seeded sample;
        median µs per page. Also fixes the expected items for the gate."""
        from louis_crawler_legacy_ray.functions.chunking import chunk_html
        from louis_crawler_legacy_ray.functions.html_kernels import extract_page
        from louis_crawler_legacy_ray.functions.tokenizer import Encoder

        sample = self.corpus.sample
        ext, chk = [], []
        for _ in range(reps):
            t = time.perf_counter()
            items = [extract_page(u, h, now=NOW_US) for u, h in sample]
            ext.append((time.perf_counter() - t) / len(sample) * 1e6)
            enc = Encoder()
            t = time.perf_counter()
            for it in items:
                chunk_html(it["html_content"], enc)
            chk.append((time.perf_counter() - t) / len(sample) * 1e6)
        self.expected_items = {it["url"]: it["html_content"] for it in items}
        return {
            "extract_us_per_page": statistics.median(ext),
            "chunk_us_per_page": statistics.median(chk),
        }

    def crawl(self, cfg, out_dir: str | None = None, resume: bool = False) -> dict:
        """One ``run_frontier`` call over the corpus; returns its wall,
        the time to its first expand call, and the result."""
        from louis_crawler_legacy_ray.pipelines.crawl import (
            Frontier,
            pages_expand,
            run_frontier,
        )

        tracer = self.tracer
        t0 = time.perf_counter()
        first: list[float] = []
        inner = pages_expand(self.corpus.path, cfg, out_dir, NOW_US)

        def expand(sel, round_no, frontier, part_tag=""):
            if not first:
                first.append(time.perf_counter())
            with tracer.span("expand", round=round_no, selected=sel.total):
                return inner(sel, round_no, frontier, part_tag=part_tag)

        expand.n_buckets = inner.n_buckets
        frontier = Frontier(cfg)
        take0 = frontier.take_round

        def take_round(*a, **kw):
            with tracer.span("take_round"):
                return take0(*a, **kw)

        frontier.take_round = take_round
        try:
            with tracer.span("crawl", resume=resume):
                res = run_frontier(
                    expand,
                    [self.corpus.seed_url],
                    cfg,
                    resume=resume,
                    order_dir=f"{out_dir}/order" if out_dir else None,
                    frontier=frontier,
                )
        finally:
            frontier.release()
        t1 = time.perf_counter()
        return {
            "wall_s": t1 - t0,
            "first_round_s": (first[0] if first else t1) - t0,
            "result": res,
        }

    def warm(self) -> list[str]:
        """Untimed first operation: fills the shard-actor pool and the
        worker processes. The polite workload's warm crawl runs
        uninterrupted and becomes the reference order for stop + resume."""
        fails: list[str] = []
        if self.spec.polite:
            shutil.rmtree(self.ckpt_dir, ignore_errors=True)
            leg = self.crawl(self.cfg)
            res = leg["result"]
            self.reference = order_rows(res.order)
            self.half = res.rounds // 2
            fails += check_counts(res.counts, self.corpus.n_pages)
            got = sorted(u for _, _, u in self.reference)
            if got != sorted(u for _, _, u in self.expected):
                fails.append("uninterrupted polite crawl URL set != BFS URL set")
            if self.half < 1:
                fails.append(f"polite crawl took {res.rounds} rounds; cannot stop halfway")
        else:
            rec = self.op()
            fails += self.check(rec)
        return fails

    def op(self) -> dict:
        """One closed-loop operation of the workload."""
        with self.tracer.span("op") as span:
            t0 = time.perf_counter()
            chunk = {}
            if self.spec.polite:
                shutil.rmtree(self.ckpt_dir, ignore_errors=True)
                legs = [self.crawl(replace(self.cfg, max_rounds=self.half))]
                legs.append(self.crawl(self.cfg, resume=True))
            elif self.spec.chunk:
                from louis_crawler_legacy_ray.pipelines.crawl import items_dataset
                from louis_crawler_legacy_ray.stages.chunk import chunk_batch

                shutil.rmtree(self.out_dir, ignore_errors=True)
                legs = [self.crawl(self.cfg, out_dir=self.out_dir)]
                with self.tracer.span("chunk"):
                    tc = time.perf_counter()
                    n = (
                        items_dataset(self.out_dir)
                        .map_batches(chunk_batch, batch_format="pyarrow")
                        .count()
                    )
                    chunk = {"s": time.perf_counter() - tc, "n_chunks": n}
            else:
                legs = [self.crawl(self.cfg)]
            job_s = time.perf_counter() - t0
        rows = [r for leg in legs for r in leg["result"].metrics]
        layers = layer_sums(rows)
        rec = {
            "job_s": job_s,
            "crawl_s": sum(leg["wall_s"] for leg in legs),
            # resume call -> first expand call: what checkpoint.load_s moves
            "resume_first_round_s": legs[-1]["first_round_s"] if self.spec.polite else 0.0,
            "urls": layers["fetched"],
            "chunk": chunk,
            "layers": layers,
            "rows": rows,
            "traced": self.tracer.enabled,
            "span": span["id"] if span else None,
            "_legs": [leg["result"] for leg in legs],
        }
        if self.tracer.enabled:
            rec["self_s"] = self.tracer.self_times(rec["span"])
            rec["checkpoint"] = dict(self._ckpt)
            if self.spec.chunk:
                rec["items_bytes"] = dir_bytes(f"{self.out_dir}/crawl_items")
        self._ckpt = {"writes": 0, "bytes": 0}
        return rec

    def check(self, rec: dict) -> list[str]:
        legs = rec.pop("_legs")
        res = legs[-1]
        fails = check_counts(res.counts, self.corpus.n_pages)
        if self.spec.polite:
            resumed_at = res.metrics[0]["round"] if res.metrics else None
            if legs[0].rounds != self.half or resumed_at != self.half:
                fails.append(
                    f"stopped after {legs[0].rounds} rounds and resumed at round "
                    f"{resumed_at}, expected {self.half}"
                )
            fails += check_order(res.order, self.reference, "stop+resume vs uninterrupted")
        else:
            fails += check_order(res.order, self.expected, "crawl vs BFS")
        if self.spec.chunk:
            fails += check_items(self.out_dir, self.expected_items)
            if rec["chunk"]["n_chunks"] < self.corpus.n_pages:
                fails.append(f"{rec['chunk']['n_chunks']} chunks for {self.corpus.n_pages} pages")
        return fails


def per_layer(ops: list[dict], probes: dict, overhead: float) -> dict[str, float]:
    """Per-layer metrics of the traced operations, median per op."""

    def med(f):
        return statistics.median(f(o) for o in ops)

    def lay(k):
        return med(lambda o: o["layers"][k])

    def self_s(name):
        return med(lambda o: o["self_s"].get(name, 0.0))

    def chunk(k):
        return med(lambda o: o["chunk"].get(k, 0))

    return {
        "crawl.rounds": lay("rounds"),
        "crawl.take_s": self_s("take_round"),
        "crawl.finish_s": lay("t_finish"),
        "crawl.poll_s": lay("t_poll"),
        "crawl.counts_wait_s": lay("t_counts_wait"),
        "crawl.driver_rows_max": lay("driver_rows_max"),
        "task.n": lay("task_n"),
        "task.filter_cpu_s": lay("cpu_filter"),
        "task.extract_cpu_s": lay("cpu_extract"),
        "task.send_cpu_s": lay("cpu_send"),
        "task.end_spread_s": lay("end_spread"),
        "extract.us_per_page": probes["extract_us_per_page"],
        "frontier.admitted": lay("admitted"),
        "frontier.fetch_ratio": med(
            lambda o: o["layers"]["fetched"] / max(1, o["layers"]["selected"])
        ),
        "frontier.pending_lag_max": lay("pending_lag_max"),
        "checkpoint.writes": med(lambda o: o["checkpoint"]["writes"]),
        "checkpoint.write_s": self_s("write_checkpoint"),
        "checkpoint.bytes": med(lambda o: o["checkpoint"]["bytes"]),
        "checkpoint.load_s": self_s("load_checkpoint"),
        "resume.first_round_s": med(lambda o: o["resume_first_round_s"]),
        "sink.items_bytes": med(lambda o: o.get("items_bytes", 0)),
        "chunk.s": chunk("s"),
        "chunk.n_chunks": chunk("n_chunks"),
        "chunk.us_per_page": probes["chunk_us_per_page"],
        "chunk.chunks_per_s": med(
            lambda o: o["chunk"]["n_chunks"] / o["chunk"]["s"] if o["chunk"] else 0.0
        ),
        "span.crawl.self_s": self_s("crawl"),
        "span.expand.self_s": self_s("expand"),
        "span.op.self_s": self_s("op"),
        "share.round_control": med(
            lambda o: (
                o["self_s"].get("write_checkpoint", 0.0)
                + o["self_s"].get("take_round", 0.0)
                + o["layers"]["t_finish"]
                + o["layers"]["t_poll"]
                + o["layers"]["cpu_send"]
            )
            / o["job_s"]
        ),
        "trace.overhead_ratio": overhead,
    }
