"""Layered crawl benchmark.

    python3 perfbench/run.py --workload crawl-heavy-chunk --seed 1 --seconds 36 --trace 0

Starts Ray with ``num_cpus = nproc``, builds a seeded pages corpus, runs
one workload as a closed loop (one client, the next operation starts
when the previous one ends) for ``--seconds``, checks every operation's
output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
window's quieter operations (below). With ``--trace 1`` the first half
of the window runs untraced and the second half under the span tracer;
the metrics are the per-layer ones from the traced half, plus the
tracing overhead (traced over untraced median ``job_s``, minus 1).

End-to-end metrics:

- ``urls_per_s``: URLs fetched per second of crawl wall (both legs of a
  stop + resume).
- ``job_s``: wall time of one whole operation (crawl, resume, chunking).
- ``driver_rss_peak_mb``: the driver's peak RSS during one operation
  (``getrusage``, with the peak reset before each operation).
- ``setup_s``: Ray init + the median of several corpus build and
  ``prime_pages_cache`` passes + one warm operation that fills the
  shard-actor pool and the worker processes.

``attempted`` counts URL fetches the crawls attempted plus correctness
checks run; ``failed`` counts errored URLs plus failed checks, so
``failed / attempted`` is the failure ratio. Any failure exits 1.

Each operation also records the host's steal time (``/proc/stat``)
over it: CPU seconds the hypervisor gave to other VMs while this one
had work to run. On a shared host it comes in bursts, and each second
of it stretches an operation by about half a second, so it is host
interference, not the program's cost. The medians therefore cover the
quieter half of the operations: those whose steal is at most the
median steal (all of them where steal is not reported). The results
file keeps the medians over all operations beside them.

Everything is written under ``.perfbench_run/`` at the checkout root:
the work directory, Ray's temp dir when its socket paths fit, one
results file per run (stamps, raw per-round metrics rows, layer sums)
and, in traced runs, the span tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "urls_per_s": "1/s",
    "job_s": "s",
    "driver_rss_peak_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "crawl.rounds": "count",
    "crawl.take_s": "s",
    "crawl.finish_s": "s",
    "crawl.poll_s": "s",
    "crawl.counts_wait_s": "s",
    "crawl.driver_rows_max": "count",
    "task.n": "count",
    "task.filter_cpu_s": "s",
    "task.extract_cpu_s": "s",
    "task.send_cpu_s": "s",
    "task.end_spread_s": "s",
    "extract.us_per_page": "us",
    "frontier.admitted": "count",
    "frontier.fetch_ratio": "ratio",
    "frontier.pending_lag_max": "count",
    "checkpoint.writes": "count",
    "checkpoint.write_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.load_s": "s",
    "resume.first_round_s": "s",
    "sink.items_bytes": "bytes",
    "chunk.s": "s",
    "chunk.n_chunks": "count",
    "chunk.us_per_page": "us",
    "chunk.chunks_per_s": "1/s",
    "span.crawl.self_s": "s",
    "span.expand.self_s": "s",
    "span.op.self_s": "s",
    "share.round_control": "ratio",
    "trace.overhead_ratio": "ratio",
}

SETUP_REPS = 3  # corpus build + prime passes per run; setup_s takes their median
# AF_UNIX socket paths are capped at 107 bytes and Ray nests up to 64
# bytes of session/socket names under its temp dir
RAY_TMP_MAX = 43


def nproc() -> int:
    """What coreutils ``nproc`` prints: OMP_NUM_THREADS when set, else
    the CPUs this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    if omp.isdigit() and int(omp) > 0:
        return int(omp)
    return len(os.sched_getaffinity(0))


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS count (Linux ``clear_refs`` 5), so
    ``ru_maxrss`` covers the next operation only, not the corpus build or
    a one-off spike in an earlier operation. Freed memory goes back to
    the OS first: the count restarts from the current RSS, which
    otherwise holds whatever the allocators happen to retain."""
    import ctypes
    import ctypes.util
    import gc

    import pyarrow as pa

    gc.collect()
    pa.default_memory_pool().release_unused()
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        libc.malloc_trim(0)  # glibc keeps freed heap pages resident otherwise
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this VM's vCPUs since
    boot (the ``steal`` column of ``/proc/stat``; 0 where absent)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def quiet(ops: list[dict]) -> list[dict]:
    """The operations the hypervisor disturbed least: steal at most the
    median steal of ``ops`` (ties kept, so at least half of them)."""
    cut = statistics.median(o["steal_s"] for o in ops)
    return [o for o in ops if o["steal_s"] <= cut]


def end_to_end(ops: list[dict], setup_s: float) -> dict[str, float]:
    return {
        "urls_per_s": statistics.median(o["urls"] / o["crawl_s"] for o in ops),
        "job_s": statistics.median(o["job_s"] for o in ops),
        "driver_rss_peak_mb": statistics.median(o["rss_peak_mb"] for o in ops),
        "setup_s": setup_s,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--pages", type=int, default=None, help="corpus size override (smoke tests)"
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "louis_crawler_legacy_ray").is_dir():
        print(f"no louis_crawler_legacy_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import SPECS

    if args.workload not in SPECS:
        print(f"unknown workload {args.workload!r}; one of {sorted(SPECS)}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    if args.pages:
        from dataclasses import replace

        spec = replace(spec, n_pages=args.pages)

    run_dir = ROOT / ".perfbench_run"
    work = run_dir / f"work-{os.getpid()}"
    for d in ("results", "traces"):
        (run_dir / d).mkdir(parents=True, exist_ok=True)
    # Ray workers import the package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import ray

    ray_tmp = str(run_dir / "r")
    init_kw = dict(
        address="local",
        num_cpus=nproc(),
        object_store_memory=512 * 1024 * 1024,
        include_dashboard=False,
        logging_level="ERROR",
        # worker output forwarded late could land after the result line
        log_to_driver=False,
    )
    if len(ray_tmp) <= RAY_TMP_MAX:
        init_kw["_temp_dir"] = ray_tmp
    else:
        print("checkout path too long for Ray sockets; Ray uses its default temp dir", file=sys.stderr)
        ray_tmp = None
    try:
        return run(args, spec, work, run_dir, init_kw, ray_tmp)
    finally:
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        if ray_tmp:
            # Ray names the session after the driver pid; drop its logs
            for d in Path(ray_tmp).glob(f"session_*_{os.getpid()}"):
                shutil.rmtree(d, ignore_errors=True)


def measure(args, spec, work: Path, init_kw: dict, tracer) -> dict:
    """Set up (timed), warm up, then run the closed loop of operations."""
    import ray

    from perfbench.corpus import build_corpus
    from perfbench.workloads import Bench

    with tracer.span("ray_init"):
        t = time.perf_counter()
        ray.init(**init_kw)
        ray_init_s = time.perf_counter() - t
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from louis_crawler_legacy_ray.pipelines.crawl import (
        clear_pages_cache,
        prime_pages_cache,
    )

    corpus_dir = str(work / "corpus")
    passes = []
    for _ in range(SETUP_REPS):
        clear_pages_cache()
        with tracer.span("setup_pass"):
            t = time.perf_counter()
            corpus = build_corpus(corpus_dir, spec.n_pages, spec.pad_bytes, args.seed)
            prime_pages_cache(corpus_dir)
            passes.append(time.perf_counter() - t)

    bench = Bench(spec, corpus, str(work), tracer)
    probes = bench.probe()
    ops: list[dict] = []
    with bench.checkpoint_hooks():
        with tracer.span("warm"):
            t = time.perf_counter()
            failures = bench.warm()
            warm_s = time.perf_counter() - t
        halves = [(False, args.seconds)]
        if args.trace:
            halves = [(False, args.seconds / 2), (True, args.seconds / 2)]
        for traced, secs in halves:
            tracer.enabled = traced
            end = time.perf_counter() + secs
            while True:
                rss_per_op = reset_peak_rss()
                steal0 = host_steal_s()
                rec = bench.op()
                rec["steal_s"] = host_steal_s() - steal0
                rec["rss_peak_mb"] = peak_rss_mb()
                rec["failures"] = bench.check(rec)
                failures += rec["failures"]
                ops.append(rec)
                if time.perf_counter() >= end:
                    break
        tracer.enabled = bool(args.trace)
    return {
        "setup": {
            "setup_s": ray_init_s + statistics.median(passes) + warm_s,
            "ray_init_s": ray_init_s,
            "passes_s": passes,
            "warm_s": warm_s,
        },
        "probes": probes,
        "ops": ops,
        "failures": failures,
        "checks": 1 + len(ops),  # the warm-up's check, then one per op
        "rss_scope": "op" if rss_per_op else "process",
    }


def run(args, spec, work: Path, run_dir: Path, init_kw: dict, ray_tmp) -> int:
    import pyarrow as pa
    import ray

    from perfbench.tracing import Tracer
    from perfbench.workloads import per_layer

    tracer = Tracer(bool(args.trace))
    with tracer.span("run", workload=spec.name, seed=args.seed):
        m = measure(args, spec, work, init_kw, tracer)
    ops, failures, probes = m["ops"], m["failures"], m["probes"]

    untraced = [o for o in ops if not o["traced"]]
    traced = [o for o in ops if o["traced"]]
    e2e = end_to_end(quiet(untraced), m["setup"]["setup_s"])
    layers = None
    if traced:
        traced_job = statistics.median(o["job_s"] for o in quiet(traced))
        layers = per_layer(quiet(traced), probes, traced_job / e2e["job_s"] - 1)

    attempted = sum(o["layers"]["selected"] for o in ops) + m["checks"]
    failed = sum(o["layers"]["errored"] for o in ops) + len(failures)
    stamps = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_pages": spec.n_pages,
        "pad_bytes": spec.pad_bytes,
        "nproc": nproc(),
        "os_cpus": os.cpu_count(),
        "ray": ray.__version__,
        "pyarrow": pa.__version__,
        "python": platform.python_version(),
        "extract_us_per_page": probes["extract_us_per_page"],
        # hypervisor steal per op: whole runs slow down with it
        "host_steal_s_per_op": statistics.median(o["steal_s"] for o in untraced),
        "driver_rss_peak_scope": m["rss_scope"],
        "ray_tmp": ray_tmp,
    }
    detail = {
        "stamps": stamps,
        "setup": m["setup"],
        "probes": probes,
        "end_to_end": e2e,
        "end_to_end_all_ops": end_to_end(untraced, m["setup"]["setup_s"]),
        "per_layer": layers,
        "layers": {
            k: statistics.median(o["layers"][k] for o in ops) for k in ops[0]["layers"]
        },
        "n_ops": len(ops),
        "failed_ratio": failed / attempted,
        "failures": failures,
        "ops": ops,
    }
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    with open(run_dir / "results" / f"{stem}.json", "w") as f:
        json.dump(detail, f, default=str)
    if args.trace:
        tracer.dump(str(run_dir / "traces" / f"{stem}.json"))
    summary = {k: v for k, v in detail.items() if k not in ("ops", "per_layer")}
    print(json.dumps(summary, default=str))
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    chosen, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    print(
        json.dumps(
            {
                "correct": not failures and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": chosen[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
