"""Per-host politeness policy + robots.txt cache.

The reference's politeness is Scrapy AutoThrottle (start delay 5 s, max
60 s, target 1.0 concurrent request per host; global 8 concurrent —
settings.py:22,71-80) and it explicitly does NOT obey robots
(``ROBOTSTXT_OBEY = False``, settings.py:19).

In a depth-synchronous simulated-fetch engine, real-time delays are
meaningless; the politeness state maps to a *per-host per-round fetch
budget* (SURVEY §2.3 T5):

    budget ≈ round_wall_seconds / delay_per_request x target_concurrency

:class:`PolitenessPolicy` performs that derivation so the knobs keep
the reference's vocabulary; the budget feeds ``CrawlConfig.
per_host_budget`` and is enforced inside each host-sharded
FrontierShard's ``take(round_no)``, which reads it from the shard's
``CrawlConfig`` (state colocated with the host's queue — north_rule). The AutoThrottle *feedback* (slow host -> longer delay) is
modeled by :meth:`PolitenessPolicy.observe_latency`.

:class:`RobotsCache` is the per-host robots.txt cache (stdlib
robotparser). Default-off to match the reference; pass
``robots_txt_by_host`` (e.g. extracted from the corpus' /robots.txt
rows) and ``obey_robots=True`` to enable.
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import urlparse
from urllib.robotparser import RobotFileParser


@dataclass
class PolitenessPolicy:
    """AutoThrottle-shaped budget derivation (settings.py:71-80)."""

    start_delay_s: float = 5.0
    max_delay_s: float = 60.0
    min_delay_s: float = 1.0
    target_concurrency: float = 1.0
    round_seconds: float = 60.0

    def __post_init__(self):
        self._delay: dict[str, float] = {}

    def delay_for(self, host: str) -> float:
        return self._delay.get(host, self.start_delay_s)

    def observe_latency(self, host: str, latency_s: float) -> None:
        """AutoThrottle update rule: next delay ~ average of current
        delay and (latency / target_concurrency), clamped."""
        target = latency_s / self.target_concurrency
        new = (self.delay_for(host) + target) / 2.0
        self._delay[host] = min(self.max_delay_s, max(self.min_delay_s, new))

    def budget_for(self, host: str) -> int:
        """Fetches allowed for this host in one round."""
        return max(1, int(self.round_seconds / self.delay_for(host)))


class RobotsCache:
    """Per-host robots.txt decisions, parsed once per host and cached —
    the robots cache the north_star describes, default-off to match the
    reference (settings.py:19)."""

    def __init__(
        self,
        robots_txt_by_host: dict[str, str] | None = None,
        user_agent: str = "louis (+https://github.com/ai-cfia)",  # settings.py:39-42
        obey_robots: bool = False,
        matcher: str = "stdlib",
    ):
        self.user_agent = user_agent
        self.obey = obey_robots
        self._raw = robots_txt_by_host or {}
        self._parsers: dict[str, RobotFileParser | None] = {}
        # matcher="rfc9309": full REP semantics ('*'/'$' wildcards,
        # longest-pattern precedence, Allow wins ties) via
        # functions/robots.py — stdlib robotparser treats '*' as a
        # literal octet, so wildcard stanzas silently misbehave there
        self.matcher = matcher
        self._rfc: dict[str, "object | None"] = {}
        # RFC group selection keys on the PRODUCT TOKEN, not the full
        # UA string ("louis (+https://...)" -> "louis")
        self.product_token = (user_agent.split() or ["*"])[0]

    def _parser_for(self, host: str) -> RobotFileParser | None:
        if host not in self._parsers:
            raw = self._raw.get(host)
            if raw is None:
                self._parsers[host] = None
            else:
                p = RobotFileParser()
                p.parse(raw.splitlines())
                self._parsers[host] = p
        return self._parsers[host]

    def _rfc_for(self, host: str):
        if host not in self._rfc:
            raw = self._raw.get(host)
            if raw is None:
                self._rfc[host] = None
            else:
                from ..functions.robots import Rfc9309Matcher

                self._rfc[host] = Rfc9309Matcher(raw, self.product_token)
        return self._rfc[host]

    def allowed(self, url: str) -> bool:
        if not self.obey:
            return True
        try:
            parsed = urlparse(url)
        except ValueError:
            # unparseable ("http://[bad/x"): the router gives it host
            # "", which has no robots.txt; it fails at fetch instead
            return True
        if self.matcher == "rfc9309":
            m = self._rfc_for(parsed.netloc)
            if m is None:
                return True  # no robots.txt for host -> allowed
            return m.allowed(parsed.path or "/")
        p = self._parser_for(parsed.netloc)
        if p is None:
            return True  # no robots.txt for host -> allowed
        return p.can_fetch(self.user_agent, url)

    def filter_urls(self, urls: list[str]) -> list[bool]:
        return [self.allowed(u) for u in urls]

    def crawl_delay(self, host: str) -> float | None:
        """The host's robots ``Crawl-delay`` directive in seconds (the
        politeness knob sites publish themselves; AutoThrottle-style
        feedback covers the hosts that don't). None when the host has
        no robots.txt or no directive for our agent group."""
        p = self._parser_for(host)
        if p is None:
            return None
        d = p.crawl_delay(self.user_agent)
        return float(d) if d is not None else None

    def budgets_from_delays(self, round_seconds: float = 60.0) -> dict[str, int]:
        """Per-host per-round fetch budgets derived from the published
        Crawl-delay directives, via the same mapping PolitenessPolicy
        uses for AutoThrottle delays (budget = round_seconds / delay,
        floor 1). Only hosts that DECLARE a delay appear — everyone
        else keeps the engine-level default (flat per_host_budget or
        unbounded)."""
        out: dict[str, int] = {}
        for host in self._raw:
            d = self.crawl_delay(host)
            if d is not None and d > 0:
                out[host] = max(1, int(round_seconds // d))
        return out


def robots_from_corpus(pages_path: str) -> dict[str, str]:
    """Build ``robots_txt_by_host`` from the corpus itself: one
    column-pruned distributed scan keeps only rows whose URL path is
    exactly /robots.txt and returns {host: body} — closing the loop
    the RobotsCache docstring describes (a crawl discovers its own
    robots files). Duplicate hosts keep the lexicographically first
    URL's body (deterministic)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    def pick(batch: pa.Table) -> pa.Table:
        mask = pc.match_substring_regex(
            batch["url"], r"^[a-z]+://[^/?#]+/robots\.txt$"
        )
        hit = batch.filter(mask)
        if hit.num_rows == 0:
            return pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "url": pa.array([], pa.string()),
                    "body": pa.array([], pa.string()),
                }
            )
        ex = pc.extract_regex(hit["url"], r"^[a-z]+://(?P<host>[^/?#]+)/")
        hosts = pc.struct_field(ex, "host")
        body = hit["html"]
        if body.type in (pa.binary(), pa.large_binary()):
            body = body.cast(pa.string())
        return pa.table({"host": hosts, "url": hit["url"], "body": body})

    out: dict[str, str] = {}
    best_url: dict[str, str] = {}
    ds = ray.data.read_parquet(pages_path, columns=["url", "html"])
    for row in ds.map_batches(pick, batch_format="pyarrow").iter_rows():
        h, u = row["host"], row["url"]
        if h not in out or u < best_url[h]:
            out[h] = row["body"]
            best_url[h] = u
    return out


def sitemaps_in_robots(robots_txt: str) -> list[str]:
    """``Sitemap:`` directives of one robots.txt body — the standard
    sitemap-discovery channel (sitemaps.org / REP: the directive is
    case-insensitive, lives outside User-agent groups, and may appear
    any number of times). Order-preserving, exact-duplicate lines
    dropped; feeds sources/sitemaps.py:sitemap_seeds."""
    out: list[str] = []
    seen: set[str] = set()
    for line in (robots_txt or "").splitlines():
        body = line.split("#", 1)[0].strip()
        if not body or ":" not in body:
            continue
        key, _, value = body.partition(":")
        if key.strip().lower() != "sitemap":
            continue
        value = value.strip()
        if value and value not in seen:
            seen.add(value)
            out.append(value)
    return out
