"""Injectable fetcher seam (VERDICT r1 'Next round' #8).

Every crawl round runs one round task (pipelines/crawl.py
``_round_task``) over a *page source*. By default the source is the
corpus semi-join over pinned blocks (``pages_expand``), the in-sandbox
stand-in for the network, like the reference goldie's disk cache
(middlewares.py:102-117). ``fetcher_expand`` swaps in a source that
hands each task's selected URLs to a *fetcher* and gets back a pages
table ``(url, html)`` containing the successfully fetched subset. Rows
for URLs the task did not request are dropped, as are repeated rows
for one URL. URLs absent from the result are quarantined by the
round's finish phase — exactly the reference's 404 path
(responses.py:30-35).

Fetcher implementations:

* :class:`DictFetcher` — an in-memory fake for tests;
* :class:`HttpFetcher` — the real network implementation over stdlib
  http.client: one keep-alive connection per (scheme, netloc) per
  worker process, 200 -> page, 404/transport failure -> quarantined,
  optional per-host politeness delay, optional address-resolve hook.
  Mirrors the reference's one-Playwright-browser-per-worker middleware
  (playwright_middleware.py:48-63). The factory runs inside the round
  task's worker process, so session state is per-worker, never pickled
  through the driver; in this sandbox it is exercised against an
  in-process loopback server (sources/loopback.py,
  tests/test_http_fetcher.py) — no external network needed.

A *fetcher factory* is a zero-arg picklable callable returning a
Fetcher; it is invoked inside each round task (Ray reuses worker
processes, so factories may memoize per-process for session reuse).
"""

from __future__ import annotations

import pyarrow as pa


class Fetcher:
    """Protocol: fetch(urls) -> pages table (url: string, html: string)
    for the successfully fetched subset, any order."""

    def fetch(self, urls: pa.Array) -> pa.Table:  # pragma: no cover
        raise NotImplementedError


def _default_needs_js(html: str) -> bool:
    """The M12 routing heuristic over raw html (reference
    base_playwright.py:225-272; column variant: stages/jsneed.py)."""
    from .jsneed import JS_FRAMEWORKS, LOADING_PATTERNS, MIN_TEXT_CHARS

    low = (html or "").lower()
    return (
        len(low) < MIN_TEXT_CHARS
        or any(p in low for p in LOADING_PATTERNS)
        or any(f in low for f in JS_FRAMEWORKS)
    )


class RoutingFetcher(Fetcher):
    """The reference's smart dual-path routing (SmartPlaywrightSpider,
    base_playwright.py:185-272): try the cheap ``regular`` fetcher
    first; pages the M12 classifier flags as needing JavaScript are
    refetched through the expensive ``js`` fetcher, and the URL's
    routing class is remembered for the rest of this worker's life
    (playwright_urls / regular_urls sets) so known-JS pages skip the
    wasted regular attempt."""

    def __init__(self, regular: Fetcher, js: Fetcher, needs_js=None):
        self.regular = regular
        self.js = js
        self.needs_js = needs_js or _default_needs_js
        self.playwright_urls: set[str] = set()
        self.regular_urls: set[str] = set()

    def fetch(self, urls: pa.Array) -> pa.Table:
        url_list = urls.to_pylist()
        known_js = [u for u in url_list if u in self.playwright_urls]
        rest = [u for u in url_list if u not in self.playwright_urls]
        parts: list[pa.Table] = []
        if rest:
            got = self.regular.fetch(pa.array(rest, pa.string()))
            keep_u, keep_h, retry = [], [], []
            for u, h in zip(got["url"].to_pylist(), got["html"].to_pylist()):
                if u in self.regular_urls or not self.needs_js(h):
                    self.regular_urls.add(u)
                    keep_u.append(u)
                    keep_h.append(h)
                else:
                    self.playwright_urls.add(u)
                    retry.append(u)
            parts.append(
                pa.table(
                    {
                        "url": pa.array(keep_u, pa.string()),
                        "html": pa.array(keep_h, pa.string()),
                    }
                )
            )
            known_js.extend(retry)
        if known_js:
            parts.append(self.js.fetch(pa.array(known_js, pa.string())))
        if not parts:
            return pa.table(
                {"url": pa.array([], pa.string()), "html": pa.array([], pa.string())}
            )
        return pa.concat_tables(parts)


class HttpFetcher(Fetcher):
    """Real HTTP implementation of the seam over stdlib http.client —
    the concrete fetcher a user deploys against a live site (VERDICT r3
    'Next round' #1).

    Lifecycle mirrors the reference's one-session-per-worker middleware
    (playwright_middleware.py:48-63, goldie_playwright_parallel.py:
    101-148): ONE persistent keep-alive connection per (scheme, netloc)
    is opened lazily in THIS worker process and reused across every
    ``fetch()`` call for the worker's life — build instances through
    :func:`make_http_fetcher_factory` so Ray's reused worker processes
    keep their sessions across rounds.

    Semantics match the corpus fetcher exactly: status 200 -> the page
    is returned; 404 / other statuses / connection failures after one
    reconnect -> the URL is simply absent from the result, which the
    round's finish phase quarantines as errored (the reference's 404
    path, responses.py:30-35).

    ``host_delay_ms`` adds the reference's client-side politeness gap
    (Scrapy DOWNLOAD_DELAY, settings.py): consecutive requests to the
    same host FROM THIS WORKER are spaced >= the delay in wall time.
    This is per-session spacing, like the reference's per-process
    crawler; the engine's global per-host rate is governed by the
    frontier's per_host_budget / token bucket, which caps how many of a
    host's URLs any round may select in total.

    ``resolve`` optionally maps (scheme, netloc) -> (addr, port) to
    direct the TCP connection elsewhere while preserving the logical
    Host header — a plain forward-proxy hook, and how the loopback
    pytest serves many virtual hosts from one in-process server."""

    def __init__(
        self,
        user_agent: str = "louis-crawler-ray/1.0",
        timeout: float = 10.0,
        host_delay_ms: int = 0,
        resolve=None,
    ):
        self.user_agent = user_agent
        self.timeout = timeout
        self.host_delay_ms = host_delay_ms
        self.resolve = resolve
        self._conns: dict = {}
        self._last_req: dict[str, float] = {}

    def _conn(self, scheme: str, netloc: str):
        import http.client

        key = (scheme, netloc)
        c = self._conns.get(key)
        if c is None:
            if self.resolve is not None:
                addr, port = self.resolve(scheme, netloc)
            else:
                addr, port = netloc, None
                if ":" in netloc:
                    addr, p = netloc.rsplit(":", 1)
                    port = int(p)
            cls = (
                http.client.HTTPSConnection
                if scheme == "https"
                else http.client.HTTPConnection
            )
            c = cls(addr, port, timeout=self.timeout)
            self._conns[key] = c
        return c

    def _drop_conn(self, scheme: str, netloc: str) -> None:
        c = self._conns.pop((scheme, netloc), None)
        if c is not None:
            try:
                c.close()
            except Exception:
                pass

    def _get(self, scheme: str, netloc: str, path: str) -> "tuple[int, str] | None":
        """(status, body) or None on an unrecoverable transport error.
        One transparent retry on a fresh connection covers the routine
        stale-keep-alive close."""
        headers = {"Host": netloc, "User-Agent": self.user_agent}
        for attempt in range(2):
            try:
                c = self._conn(scheme, netloc)
                c.request("GET", path, headers=headers)
                r = c.getresponse()
                body = r.read()  # always drain: keeps the connection reusable
                return r.status, body.decode("utf-8", errors="replace")
            except Exception:
                self._drop_conn(scheme, netloc)
                if attempt == 1:
                    return None
        return None

    def fetch(self, urls: pa.Array) -> pa.Table:
        import time
        from urllib.parse import urlsplit

        got_urls: list[str] = []
        got_html: list[str] = []
        for u in urls.to_pylist():
            parts = urlsplit(u)
            host = parts.hostname or parts.netloc
            if self.host_delay_ms:
                gap = self.host_delay_ms / 1000.0
                last = self._last_req.get(host)
                now = time.monotonic()
                if last is not None and now - last < gap:
                    time.sleep(gap - (now - last))
                self._last_req[host] = time.monotonic()
            path = parts.path or "/"
            if parts.query:
                path = f"{path}?{parts.query}"
            res = self._get(parts.scheme or "http", parts.netloc, path)
            if res is not None and res[0] == 200:
                got_urls.append(u)
                got_html.append(res[1])
        return pa.table(
            {
                "url": pa.array(got_urls, pa.string()),
                "html": pa.array(got_html, pa.string()),
            }
        )


# per-process fetcher cache: Ray reuses worker processes across tasks
# and rounds, so a factory token shared by every task of one crawl maps
# to exactly one live session-holding fetcher per worker
_PROC_FETCHERS: dict = {}


def make_http_fetcher_factory(**kwargs):
    """Zero-arg picklable factory for :class:`HttpFetcher` with
    per-worker-process memoization: every task of the crawl carries the
    same factory token, so each Ray worker builds ONE HttpFetcher (one
    set of keep-alive connections) and reuses it for its whole life —
    the reference's session-per-worker contract without actors on the
    data path."""
    import uuid

    token = uuid.uuid4().hex

    def factory():
        f = _PROC_FETCHERS.get(token)
        if f is None:
            f = _PROC_FETCHERS.setdefault(token, HttpFetcher(**kwargs))
        return f

    return factory


class DictFetcher(Fetcher):
    """In-memory fake: url -> html dict (tests swap this in to prove
    the seam; missing urls are simply not returned = fetch failure)."""

    def __init__(self, pages_by_url: dict[str, str]):
        self.pages_by_url = pages_by_url

    def fetch(self, urls: pa.Array) -> pa.Table:
        got_urls: list[str] = []
        got_html: list[str] = []
        for u in urls.to_pylist():
            html = self.pages_by_url.get(u)
            if html is not None:
                got_urls.append(u)
                got_html.append(html)
        return pa.table(
            {
                "url": pa.array(got_urls, pa.string()),
                "html": pa.array(got_html, pa.string()),
            }
        )


class FlakyOriginServer:
    """A stand-in FLAKY origin for the retry/backoff scheduler: pages
    whose doc id satisfies ``doc_id % flaky_mod == flaky_rem`` return
    nothing (a transient 5xx) until their ``succeed_on``-th fetch
    attempt, then serve normally. Attempt counts must be GLOBAL per
    URL (a real origin recovers per resource, not per client), so this
    runs as ONE Ray actor — wrap with ``ray.remote(FlakyOriginServer)``
    and hand workers a :class:`FlakyClient`. It is a fault-injection
    test double, not a scale path: a production crawl's flakiness
    comes from the network; only the per-url attempt bookkeeping needs
    to be shared, and only in tests."""

    def __init__(
        self,
        pages_path: str,
        flaky_mod: int = 5,
        flaky_rem: int = 3,
        succeed_on: int = 3,
    ):
        import glob
        import os

        import pyarrow.parquet as pq

        files = sorted(glob.glob(os.path.join(pages_path, "*.parquet")))
        tbl = pa.concat_tables(
            [pq.read_table(f, columns=["url", "html"]) for f in files]
        )
        html = tbl["html"]
        if html.type in (pa.binary(), pa.large_binary()):
            html = html.cast(pa.string())
        self.pages = dict(zip(tbl["url"].to_pylist(), html.to_pylist()))
        self.attempts: dict[str, int] = {}
        self.flaky_mod = flaky_mod
        self.flaky_rem = flaky_rem
        self.succeed_on = succeed_on

    def _doc_id(self, url: str) -> int | None:
        import re

        m = re.search(r"doc(\d+)$", url)
        return int(m.group(1)) if m else None

    def fetch(self, urls) -> pa.Table:
        if not isinstance(urls, list):
            urls = urls.to_pylist()
        got_urls: list[str] = []
        got_html: list[str] = []
        for u in urls:
            a = self.attempts.get(u, 0) + 1
            self.attempts[u] = a
            doc = self._doc_id(u)
            if (
                doc is not None
                and doc % self.flaky_mod == self.flaky_rem
                and a < self.succeed_on
            ):
                continue  # transient failure: url absent from the result
            html = self.pages.get(u)
            if html is not None:
                got_urls.append(u)
                got_html.append(html)
        return pa.table(
            {
                "url": pa.array(got_urls, pa.string()),
                "html": pa.array(got_html, pa.string()),
            }
        )

    def attempt_counts(self) -> dict:
        return dict(self.attempts)


class FlakyClient(Fetcher):
    """Worker-side handle to a shared :class:`FlakyOriginServer` actor
    (picklable: actor handles serialize into fetch tasks)."""

    def __init__(self, server):
        self.server = server

    def fetch(self, urls: pa.Array) -> pa.Table:
        import ray

        return ray.get(self.server.fetch.remote(urls))
