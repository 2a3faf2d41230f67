"""In-memory span tracer for the benchmark's own call sites.

A span has a name, start, end and parent; the spans of one run form one
tree under a root span. Nothing is written until ``dump`` at the end of
the run. A disabled tracer records nothing and costs one branch.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, root: int) -> dict[str, float]:
        """Seconds per span name over the subtree under span ``root``: each
        span's duration minus the part its children cover (children never
        overlap: the tracer is single-threaded)."""
        children: dict[int | None, list[dict]] = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        subtree, todo = [], [self.spans[root]]
        while todo:
            s = todo.pop()
            subtree.append(s)
            todo.extend(children.get(s["id"], ()))
        out: dict[str, float] = {}
        for s in subtree:
            dur = s["end"] - s["start"]
            covered = sum(c["end"] - c["start"] for c in children.get(s["id"], ()))
            out[s["name"]] = out.get(s["name"], 0.0) + dur - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)
