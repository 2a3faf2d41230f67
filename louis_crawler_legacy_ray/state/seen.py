"""Sharded frontier-state actors: URL-seen filter + pending queue +
errored quarantine + per-host politeness budget.

The reference keeps one in-memory seen/pending/errored set on the
driver, persisted to flat files (goldie_playwright_parallel.py:437-440,
514-578). That is the single-node bottleneck its own docs flag at 100k+
URLs (docs/parallel_spider_guide.md:407-410). Here the state is a
*partitioned service*: N ``FrontierShard`` actors, each owning the hash
range ``shard_id == blake2b64(host(url)) % N`` — sharding by HOST so a
host's pending URLs and its politeness budget are colocated in one
actor (north_rule: hash-partition by host; SURVEY §2.3 T4/T5).

Routing is ONE implementation, :func:`route_urls` below, used by every
delivery path (seeds, driver-side expire, the score-map split, legacy
import, the round tasks' control rows). Its host rule is
``scheme://netloc`` up to the first '/', '?' or '#';
URLs that do not parse that way (leading space, no scheme, ...) share
host ``""`` and so one shard. Hot-host salt and ip_groups refine the
key (:func:`shard_of`). The robots lookup (``RobotsCache.allowed``,
which uses ``urlparse``) is deliberately separate: it decides what a
host's robots.txt allows, never which shard owns a URL.

URL lifecycle inside a shard (mirrors goldie_playwright_parallel.py
enqueue/take semantics, :606-664):

    enqueue(urls, depths, hosts):  dropped if url ∈ seen ∪ errored ∪
                          pending ∪ in_flight, else appended to pending
    take(round_no):       pending sorted by the priority key; per-host
                          budget applied; selected move to in_flight;
                          returns the selection part (meta + table),
                          the meta carrying the shard's counts (and,
                          under round_limit, a key sample)
    record_fetched(urls): in_flight -> seen
    finish_round(round_no): what is still in_flight -> errored (or a
                          retry slot); the round's order part is
                          emitted; the stats carry the shard's counts.
                          With an ``attempt`` (a graceful stop) the
                          selected URLs still in_flight stay there as
                          the stash the resumed round re-takes

So the driver meets each shard twice per round: take and
finish_round, which also writes the shard's checkpoint file when the
crawl checkpoints; in a round whose round_limit binds, the threshold
probes and truncate_selection (which cuts take's part) sit between
them. The round tasks' ``record_fetched`` / ``enqueue`` calls reach
the shards directly; the driver waits on their refs, not on
shard-side counters.

A shard is built from the crawl's ``CrawlConfig`` (its
``priority_scores`` cut to this shard's slice) and reads every budget,
limit, priority and retry setting from it. ``dump()`` / ``load()`` are
the shard's table set; ``finish_round(..., ckpt_path)`` writes it as
one file and ``restore(path)`` reads it back (the format lives in
state/checkpoint.py).

Memory modes:
  * ``exact``  — Python sets of URL strings (test scale; the semantics
    the reference's fixtures pin).
  * ``approx`` — the *membership* side (seen) additionally keeps a
    bloom front so the 10^10-URL design point fits: ~1.2 GB per shard
    at 10 bits/key for 10^9 keys/shard x 10 shards/node. At test scale
    exact backing stays on so answers are exact; at true scale the
    exact set would be dropped and the documented false-positive rate
    (~1%% at 10 bits/key) trades a tiny loss of recrawl coverage for
    memory — acceptable for a crawler seen-filter (skipping a few
    never-seen URLs), never for the correctness fixtures.
  * ``cuckoo`` — same front with a partial-key cuckoo filter
    (_Cuckoo): ~2 bytes/key at 95% load for a comparable FPR, plus
    exact DELETION — the mode a TTL-based recrawl scheduler needs
    (expired URLs become fetchable again without rebuilding the
    filter, which a bloom cannot do).
"""

from __future__ import annotations

import hashlib

from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .checkpoint import read_shard_state, write_shard_state

if TYPE_CHECKING:
    from ..pipelines.crawl import CrawlConfig


class _Zeros:
    """Index-anything-get-0 stand-in for an absent cash column — keeps
    the enqueue hot loop free of per-row None checks."""

    __slots__ = ()

    def __getitem__(self, i: int) -> int:
        return 0


_ZERO_CASH = _Zeros()


def shard_for_host(host: str, n_shards: int) -> int:
    h = int.from_bytes(hashlib.blake2b(host.encode(), digest_size=8).digest(), "big")
    return h % n_shards


# -- the URL -> shard router (see the module docstring) ----------------
# '?' and '#' end the netloc too, so http://host?x=1 and http://host#f
# route like http://host/
_HOST_PATTERN = r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<host>[^/?#]+)"


def url_hosts(urls: pa.Array) -> pa.Array:
    """The host rule over a URL array (a regex-extract Arrow kernel)."""
    ex = pc.extract_regex(urls, _HOST_PATTERN)
    return pc.if_else(
        pc.is_valid(ex), pc.struct_field(ex, "host"), pa.scalar("", pa.string())
    )


def host_of(url: str) -> str:
    """The host rule for one URL."""
    return url_hosts(pa.array([url], pa.string()))[0].as_py()


def shard_of(
    url: str,
    host: str,
    n_shards: int,
    hot_host_salt: dict,
    ip_groups: dict | None = None,
) -> int:
    """The shard formula for one URL whose host is ``host``."""
    n_salt = hot_host_salt.get(host)
    if n_salt:
        # hot-host salting: spread one host's URLs over n_salt shards
        # (politeness budget becomes per (host, salt) sub-queue)
        salt = shard_for_host(url, n_salt)
        return shard_for_host(f"{host}#{salt}", n_shards)
    if ip_groups:
        # grouped vhosts route by GROUP so the shared budget is
        # enforceable inside one shard (never salt a grouped host —
        # the two knobs pull routing in opposite directions)
        host = ip_groups.get(host, host)
    return shard_for_host(host, n_shards)


def route_urls(
    urls: pa.Array, n_shards: int, salt: dict, groups: dict | None = None
) -> tuple[pa.Array, pa.Array]:
    """(host, shard) columns for a URL array: the host rule, then
    :func:`shard_of` once per UNIQUE host (dozens, not millions),
    scattered back with index_in. Only the rows of salted hosts take
    the per-row path — their shard depends on the URL, not the host."""
    hosts = url_hosts(urls)
    uniq = pc.unique(hosts)
    uniq_l = uniq.to_pylist()
    per_uniq = pa.array(
        [shard_of("", h, n_shards, {}, groups) for h in uniq_l], pa.int32()
    )
    shards = per_uniq.take(pc.index_in(hosts, value_set=uniq))
    if salt and not salt.keys().isdisjoint(uniq_l):
        rows = np.flatnonzero(
            pc.is_in(hosts, value_set=pa.array(list(salt), pa.string())).to_numpy(
                zero_copy_only=False
            )
        )
        sids = shards.to_numpy(zero_copy_only=False).copy()
        sids[rows] = [
            shard_of(u, h, n_shards, salt, groups)
            for u, h in zip(
                urls.take(rows).to_pylist(), hosts.take(rows).to_pylist()
            )
        ]
        shards = pa.array(sids, pa.int32())
    return hosts, shards


def split_by_shard(tbl: pa.Table, n_shards: int) -> list[tuple[int, pa.Table]]:
    """(shard_id, rows) for every shard owning a row of ``tbl`` (routed:
    it has a ``shard`` column), row order kept within each shard. One
    stable sort, then one compact take per shard — never a slice,
    which would ship the whole parent buffer with every RPC."""
    sids = tbl["shard"].to_numpy()
    order = np.argsort(sids, kind="stable")
    ends = np.cumsum(np.bincount(sids, minlength=n_shards))[:-1]
    return [
        (sid, tbl.take(idx))
        for sid, idx in enumerate(np.split(order, ends))
        if len(idx)
    ]


class _Bloom:
    """Simple double-hash bloom filter over uint64 key hashes."""

    def __init__(self, n_bits: int = 1 << 24, k: int = 7):
        self.n_bits = n_bits
        self.k = k
        self.bits = np.zeros(n_bits // 8, dtype=np.uint8)

    def _positions(self, h: int) -> list[int]:
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        return [((h1 + i * h2) % self.n_bits) for i in range(self.k)]

    def add(self, h: int) -> None:
        for p in self._positions(h):
            self.bits[p >> 3] |= 1 << (p & 7)

    def maybe_contains(self, h: int) -> bool:
        return all(self.bits[p >> 3] & (1 << (p & 7)) for p in self._positions(h))


class _Cuckoo:
    """Partial-key cuckoo filter (Fan et al., CoNEXT'14): 4-slot
    buckets of 16-bit fingerprints over uint64 key hashes. Same
    definitely-not-seen fast-path role as _Bloom, plus DELETION — a
    recrawl scheduler that retires URLs (TTL-expired entries, purged
    hosts) can remove them without rebuilding, which a bloom cannot.
    ~2 bytes/key at 95% max load vs bloom's ~1.25 at 10 bits/key, for
    a comparable ~0.1-1%% false-positive rate and exact deletes."""

    MAX_KICKS = 500

    def __init__(self, n_buckets: int = 1 << 16):
        assert n_buckets & (n_buckets - 1) == 0, "n_buckets must be a power of 2"
        self.n_buckets = n_buckets
        self.slots = np.zeros((n_buckets, 4), dtype=np.uint16)
        self.n_items = 0
        # homeless victims after a failed evict chain live here so the
        # filter NEVER false-negatives; growth means over capacity
        self.stash: set[tuple[int, int]] = set()

    def _fp(self, h: int) -> int:
        fp = (h >> 48) & 0xFFFF
        return fp or 1  # 0 is the empty-slot sentinel

    def _i1(self, h: int) -> int:
        return h & (self.n_buckets - 1)

    def _alt(self, i: int, fp: int) -> int:
        # partial-key displacement: i XOR hash(fp) (splitmix-style mix)
        z = (fp * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 29
        return (i ^ z) & (self.n_buckets - 1)

    def add(self, h: int) -> bool:
        """Insert; returns False when the filter is too full (caller
        should treat the key as present — fail-safe, no false negatives)."""
        fp = self._fp(h)
        i1 = self._i1(h)
        i2 = self._alt(i1, fp)
        for i in (i1, i2):
            row = self.slots[i]
            for s in range(4):
                if row[s] == 0:
                    row[s] = fp
                    self.n_items += 1
                    return True
        # evict loop
        import random

        rnd = random.Random(h & 0xFFFFFFFF)  # deterministic per key
        i = rnd.choice((i1, i2))
        for _ in range(self.MAX_KICKS):
            s = rnd.randrange(4)
            fp, self.slots[i][s] = int(self.slots[i][s]), fp
            i = self._alt(i, fp)
            row = self.slots[i]
            for s2 in range(4):
                if row[s2] == 0:
                    row[s2] = fp
                    self.n_items += 1
                    return True
        # table effectively full: stash the homeless victim so no key
        # ever false-negatives (stash entries check from either bucket)
        self.stash.add((min(i, self._alt(i, fp)), fp))
        self.n_items += 1
        return False

    def maybe_contains(self, h: int) -> bool:
        fp = self._fp(h)
        i1 = self._i1(h)
        row = self.slots[i1]
        if fp in row:
            return True
        i2 = self._alt(i1, fp)
        if fp in self.slots[i2]:
            return True
        if self.stash and (min(i1, i2), fp) in self.stash:
            return True
        return False

    def delete(self, h: int) -> bool:
        fp = self._fp(h)
        i1 = self._i1(h)
        i2 = self._alt(i1, fp)
        for i in (i1, i2):
            row = self.slots[i]
            for s in range(4):
                if row[s] == fp:
                    row[s] = 0
                    self.n_items -= 1
                    return True
        key = (min(i1, i2), fp)
        if key in self.stash:
            self.stash.discard(key)
            self.n_items -= 1
            return True
        return False


@ray.remote(num_cpus=0)
class FrontierShard:
    """One hash-range shard of the frontier state service.

    Zero CPU reservation: the shard actors are lightweight set/dict
    services on the RPC path — any reservation starves the data-plane
    map tasks once n_shards x reservation approaches the cluster size
    (8 shards x 0.25 CPU consumed an entire 2-CPU cluster). They burst
    briefly per round; the scheduler handles that fine unreserved."""

    def __init__(self, shard_id: int, cfg: "CrawlConfig"):
        self.reset(shard_id, cfg)

    def reset(self, shard_id: int, cfg: "CrawlConfig") -> None:
        """Full re-initialization — lets a crawl REUSE a pooled shard
        actor from a previous crawl (actor spawn + Ray's one-time
        Arrow-serializer warmup cost ~0.5 s per fresh process, paid in
        round 0 otherwise). Every field is rebuilt; nothing survives.

        ``cfg`` is the crawl's config with ``priority_scores`` cut to
        THIS shard's slice ('score_desc': the Frontier splits the map
        with route_urls, so each shard holds only the scores of URLs it can
        own — O(frontier / n_shards) per actor, the same partitioning
        as pending/seen)."""
        assert cfg.mode in ("exact", "approx", "cuckoo")
        import re as _re

        from .politeness import RobotsCache

        self.shard_id = shard_id
        self.cfg = cfg
        # robots cache colocated with the host's queue (T5); default-off
        # to match the reference's ROBOTSTXT_OBEY = False (settings.py:19)
        self.robots = RobotsCache(
            cfg.robots_txt_by_host,
            obey_robots=cfg.obey_robots,
            matcher=cfg.robots_matcher,
        )
        # trap guard: URL regexes quarantined at admission (the
        # crawl_traps detector's output feeds this — Heritrix-style
        # pattern caps); compiled ONCE per shard actor, not per batch
        self.deny_rx = [_re.compile(p) for p in (cfg.deny_url_patterns or [])]
        # online backlink counts (priority='backlink_desc' — the
        # Cho/Garcia-Molina/Page 1998 backlink ordering metric computed
        # ADAPTIVELY: every admission or pending rediscovery of a URL
        # bumps its count, so the frontier re-ranks as citations
        # accumulate). Opt-in: the bump sits in the hot enqueue loop.
        self.track_backlinks = cfg.priority == "backlink_desc"
        self.backlinks: dict[str, int] = {}
        # OPIC cash accounts (priority='opic' — Abiteboul/Preda/Cobena
        # 2003 Online Page Importance Computation, greedy variant: the
        # frontier drains highest-cash-first and a fetched page splits
        # its frozen cash over its distinct out-links). INTEGER
        # micro-cash (seed = CrawlConfig.opic_cash, ceil/floor splits)
        # so accumulation is exact and commutative — float cash would
        # make the rank order depend on RPC landing order.
        self.track_cash = cfg.priority in ("opic", "relevance_desc")
        self.cash: dict[str, int] = {}
        # how candidate scores fold into an account: 'sum' (OPIC cash
        # shares) or 'max' (priority='relevance_desc' — shark-search-
        # style focused crawl: a URL ranks by the BEST content score
        # among the fetched parents that linked it; max is commutative
        # and idempotent, so RPC landing order and nav-dup re-sends
        # stay irrelevant). Selection-time cash only rides the
        # selection parts under 'sum' (OPIC splits it); 'max' scores
        # are computed fresh from each fetched page's content.
        self.cash_combine = "max" if cfg.priority == "relevance_desc" else "sum"
        self.seen: set[str] = set()
        self.errored: dict[str, str] = {}
        self.in_flight: set[str] = set()
        # pending: url -> (depth, host); first enqueue wins (depth is the
        # BFS discovery depth — a url is only ever enqueued once)
        self.pending: dict[str, tuple[int, str]] = {}
        # transient-failure retry state (CrawlConfig.max_retries > 0):
        # url -> (depth, host, failures, avail_round). A failed fetch
        # waits out its exponential backoff here instead of being
        # quarantined; take admits entries whose avail_round has
        # arrived. retry_fails carries the failure count while the URL
        # is back in flight so the NEXT failure keeps escalating.
        self.retrying: dict[str, tuple[int, str, int, int]] = {}
        self.retry_fails: dict[str, int] = {}
        # membership front: bloom (space-optimal) or cuckoo (supports
        # deletion — TTL recrawl / host purges at 10^10 scale); both
        # share the add/maybe_contains API and keep the exact backing
        # at test scale (see module docstring)
        if cfg.mode == "approx":
            self.bloom = _Bloom()
        elif cfg.mode == "cuckoo":
            # the bloom's 2 MB: 2^18 buckets x 4 uint16 slots
            self.bloom = _Cuckoo(1 << 18)
        else:
            self.bloom = None
        # politeness token-bucket state: budget-key -> unspent tokens
        # carried between rounds (north_rule: "per-host politeness
        # token-bucket"; colocated with the host's queue because shards
        # key by host). Budget key = host, or its ip_groups group.
        self.host_tokens: dict[str, int] = {}
        # burst cap of the token bucket (None = flat budget):
        # truncate_selection() refunds tokens for URLs the driver's
        # global round cap handed back (ADVICE r2: without the refund,
        # throttled hosts permanently lose tokens for URLs they never
        # fetched, under-delivering vs the documented long-run rate)
        self._tb_burst: int | None = (
            2 * cfg.per_host_budget
            if cfg.politeness == "token_bucket" and cfg.per_host_budget is not None
            else None
        )
        # the current round's selection, held SHARD-SIDE (r3: the
        # driver's round control plane works on counts/probes/refs,
        # never on a row table proportional to the round)
        self._sel: tuple[list, list, list] | None = None  # (urls, depths, hosts)
        self._sel_keys: list[tuple[int, str]] | None = None
        # the part take built from it: (table, key position of each
        # row or None when the rows are in key order, sorted bucket
        # ids or None) — truncate_selection cuts it, builds no other
        self._sel_part: tuple | None = None
        # SIGTERM-salvaged remainder of an interrupted round: the next
        # take must return EXACTLY these rows (not whatever pending
        # holds, which may already include next-depth candidates from
        # the round's completed tasks) so a resumed crawl reproduces
        # the uninterrupted schedule
        self._resume_sel: tuple[list, list, list] | None = None

    def warm(self) -> pa.Table:
        """Return an empty Arrow table: forces Ray's one-time
        Arrow-serialization setup in this worker process during actor
        creation instead of inside the first crawl round."""
        return pa.table({"url": pa.array([], pa.string())})

    # -- ingest ------------------------------------------------------
    def enqueue(
        self,
        urls: pa.Array,
        depths: pa.Array,
        hosts: pa.Array,
        cash: pa.Array | None = None,
    ) -> int:
        """Admit candidate URLs to pending; returns number admitted.
        Drop rule = reference's quadruple-set check
        (goldie_playwright_parallel.py:606-617, 656-663). Arrow arrays
        in (zero-copy through plasma; the per-URL set work happens here,
        in parallel across shards). (A C-level set-difference variant
        was measured SLOWER than this loop — the batch dict build
        dominates; the loop stays.)

        ``cash`` (priority='opic' only) carries each candidate row's
        OPIC share — the slice of its parent's frozen cash the control
        builder computed; shares sum into the URL's account while it is
        pending and vanish once it is selected/seen/quarantined (the
        paper's "cash of an already-read page goes to history")."""
        added = 0
        if cash is None or not self.track_cash:
            cash = _ZERO_CASH
        else:
            cash = cash.to_pylist()
        for i, (url, depth, host) in enumerate(
            zip(urls.to_pylist(), depths.to_pylist(), hosts.to_pylist())
        ):
            if self.deny_rx and any(rx.search(url) for rx in self.deny_rx):
                # trap-pattern quarantine: same terminal handling as a
                # robots disallow — never enqueued, never retried
                if url not in self.errored:
                    self.errored[url] = "trap_denied"
                continue
            if self.robots.obey and not self.robots.allowed(url):
                # quarantined like a fetch failure: never enqueued,
                # never retried, visible in the errored table
                if url not in self.errored:
                    self.errored[url] = "robots_disallowed"
                continue
            if self.bloom is not None and not self.bloom.maybe_contains(
                _h64(url)
            ):
                pass  # definitely never seen — skip the set lookups
            elif url in self.pending:
                # min-depth-wins on rediscovery: under per-host
                # throttling, parents at DIFFERENT depths can fetch in
                # the same round and race to enqueue a shared child —
                # first-wins would make the recorded depth depend on
                # RPC landing order. min() is commutative, so the
                # frontier stays deterministic; a later smaller-depth
                # rediscovery of a still-pending URL also promotes its
                # priority exactly like a sequential crawler would.
                if self.track_backlinks:
                    # each rediscovery is one more citation (sum is
                    # commutative, so landing order stays irrelevant)
                    self.backlinks[url] = self.backlinks.get(url, 0) + 1
                if self.track_cash and cash[i]:
                    # integer shares sum exactly; landing order moot
                    # ('max' keeps the best parent score — idempotent)
                    self.cash[url] = (
                        max(self.cash.get(url, 0), cash[i])
                        if self.cash_combine == "max"
                        else self.cash.get(url, 0) + cash[i]
                    )
                old = self.pending[url]
                if depth < old[0]:
                    self.pending[url] = (depth, old[1])
                continue
            elif (
                url in self.seen
                or url in self.errored
                or url in self.in_flight
                or url in self.retrying
            ):
                # a retrying URL keeps its original discovery depth and
                # backoff slot; rediscovery neither re-admits nor
                # promotes it (it already failed a fetch at that depth)
                continue
            self.pending[url] = (depth, host)
            if self.track_backlinks:
                self.backlinks[url] = self.backlinks.get(url, 0) + 1
            if self.track_cash and cash[i]:
                self.cash[url] = (
                    max(self.cash.get(url, 0), cash[i])
                    if self.cash_combine == "max"
                    else self.cash.get(url, 0) + cash[i]
                )
            if self.bloom is not None:
                self.bloom.add(_h64(url))
            added += 1
        return added

    def record_fetched(self, urls: pa.Array) -> None:
        """in_flight -> seen for successfully fetched URLs. Called from
        parallel map tasks as results stream in (idempotent). C-level
        set ops, no per-URL loop."""
        s = set(urls.to_pylist())
        self.in_flight -= s
        self.seen |= s
        if self.retry_fails:
            # a retried URL finally fetched: its failure count is done
            for u in s.intersection(self.retry_fails):
                del self.retry_fails[u]

    # -- scheduling --------------------------------------------------
    def _bkey(self, host: str) -> str:
        """Politeness BUDGET key for a host: itself, unless ip_groups
        binds it to a server group (vhosts sharing one origin server
        share one budget / token bucket — Heritrix's ip-based frontier
        queues). Routing (route_urls / shard_of) keys grouped hosts
        by the GROUP, so a group's whole queue state lives in this shard
        and the shared cap is enforceable locally. Pure and
        config-stable, so checkpointed host_tokens keys stay valid
        across resume (config_hash covers ip_groups)."""
        g = self.cfg.ip_groups
        return g.get(host, host) if g else host

    def take(self, round_no: int, n_buckets: int | None = None):
        """Select round ``round_no``'s fetch batch, HOLD it in this
        shard and return it as the (meta, table) part (see _part) —
        called with num_returns=2, so the driver ray.gets only the
        small meta (count, bucket ranges, this shard's counts()) and
        keeps the table as a driver-owned ref. Under ``round_limit``
        the meta also holds 32 evenly spaced sample keys; when the cap
        binds, the driver cuts the round globally from them (probes
        sel_ranks / sel_sample) and truncate_selection cuts the part;
        no table proportional to the round ever crosses to the driver.

        Pending (plus retry entries whose backoff has elapsed) is
        sorted by the ``cfg.priority`` key — the BFS (depth, url) order
        by default (O1, goldie_playwright_parallel.py:647-664, made
        deterministic per SURVEY §2.10); the key is a pure URL function
        (see _sel_key), so every probe and the driver's k-th-key
        threshold work on the same tuples. ``cfg.max_depth`` bounds
        it, ``cfg.round_limit`` caps it and a per-host budget applies;
        selected URLs move to in_flight, the rest stay pending.

        ``politeness='budget'`` is a flat per-round cap
        (``per_host_budget``, or the host's ``host_budgets`` override).
        ``politeness='token_bucket'`` is the north_rule's literal token
        bucket: a host's bucket refills by ``per_host_budget`` tokens
        at each round it has pending work, capped at a burst of 2x, and
        UNSPENT tokens carry — a host whose queue was throttled below
        its refill one round may burst above the flat cap the next,
        while its long-run rate stays <= per_host_budget/round."""
        cfg = self.cfg
        # 'backlink_desc' ranks by the shard's LIVE citation counts,
        # 'opic' / 'relevance_desc' by its LIVE cash accounts; every
        # other priority uses the static config score map
        if cfg.priority == "backlink_desc":
            score_map = self.backlinks
        elif self.track_cash:
            score_map = self.cash
        else:
            score_map = cfg.priority_scores or {}
        if self._resume_sel is not None:
            # resumed partial round: re-take EXACTLY the salvaged
            # remainder (already in_flight, tokens already spent,
            # order already key-sorted)
            self._sel, self._resume_sel = self._resume_sel, None
        else:
            self._sel = self._select(round_no, score_map)
        # selection stays shard-side, sorted by the priority key, for
        # rank probes and the order part
        self._sel_keys = [
            _sel_key(cfg.priority, d, u, score_map)
            for d, u in zip(self._sel[1], self._sel[0])
        ]
        meta, tbl = self._part(n_buckets)
        if cfg.round_limit is not None:
            # the driver's threshold search starts from these keys
            meta["sample"] = self.sel_sample(None, None, 32)
        return meta, tbl

    def _select(self, round_no: int, score_map: dict) -> tuple[list, list, list]:
        import itertools as _it

        cfg = self.cfg
        max_depth = cfg.max_depth
        per_host_budget = cfg.per_host_budget
        limit = cfg.round_limit
        # retry entries whose backoff has elapsed compete in the same
        # priority order as fresh pending URLs (they keep their original
        # discovery depth); not-yet-due entries stay in retrying
        due = (
            (u, v)
            for u, v in self.retrying.items()
            if v[3] <= round_no and (max_depth is None or v[0] <= max_depth)
        )
        items = sorted(
            _it.chain(
                (
                    (_sel_key(cfg.priority, depth, url, score_map), url, depth, host)
                    for url, (depth, host) in self.pending.items()
                    if max_depth is None or depth <= max_depth
                ),
                (
                    (_sel_key(cfg.priority, d, u, score_map), u, d, h)
                    for u, (d, h, _f, _a) in due
                ),
            ),
        )
        token_bucket = self._tb_burst is not None
        caps: dict[str, int] = {}
        sel_urls: list[str] = []
        sel_depths: list[int] = []
        sel_hosts: list[str] = []
        host_counts: dict[str, int] = {}
        # per-host overrides (robots Crawl-delay-derived or apportioned
        # budgets) take precedence over the flat cap; a host absent
        # from the map keeps the flat per_host_budget (or unbounded).
        # Flat-budget politeness only: the token bucket keeps one
        # global refill (its carry/burst refunds are clamped by a
        # single _tb_burst).
        overrides = cfg.host_budgets if not token_bucket else None
        for _key, url, depth, host in items:
            if limit is not None and len(sel_urls) >= limit:
                break
            if per_host_budget is not None or overrides:
                # budget key: the host, or its ip_groups group — vhosts
                # bound to one server spend from ONE shared allowance
                # (host_budgets overrides for grouped hosts are keyed
                # by the GROUP key)
                bk = self._bkey(host)
                c = host_counts.get(bk, 0)
                if token_bucket:
                    cap = caps.get(bk)
                    if cap is None:
                        cap = min(
                            self._tb_burst,
                            self.host_tokens.get(bk, 0) + per_host_budget,
                        )
                        caps[bk] = cap
                else:
                    cap = (
                        overrides.get(bk, per_host_budget)
                        if overrides
                        else per_host_budget
                    )
                if cap is not None and c >= cap:
                    continue
                host_counts[bk] = c + 1
            sel_urls.append(url)
            sel_depths.append(depth)
            sel_hosts.append(host)
        # bank every refilled host's unspent tokens (hosts touched this
        # round only; an absent host's bucket refills lazily)
        for host, cap in caps.items():
            self.host_tokens[host] = cap - host_counts.get(host, 0)
        for url in sel_urls:
            if url in self.pending:
                del self.pending[url]
            else:
                # selected out of retrying: carry the failure count so
                # another failure keeps escalating the backoff
                _d, _h, fails, _avail = self.retrying.pop(url)
                self.retry_fails[url] = fails
            self.in_flight.add(url)
        return sel_urls, sel_depths, sel_hosts

    # -- round-selection probes (driver cap without driver rows) ------
    def sel_ranks(self, keys: list[tuple[int, str]]) -> list[int]:
        """For each (depth, url) key: how many of this shard's selected
        rows sort <= key (bisect over the sorted selection)."""
        import bisect

        sk = self._sel_keys or []
        return [bisect.bisect_right(sk, tuple(k)) for k in keys]

    def sel_sample(self, lo, hi, k: int) -> list[tuple[int, str]]:
        """Up to k evenly spaced selection keys in (lo, hi], always
        including the last one — the candidate thresholds for the
        driver's iterative global-cap refinement. When (lo, hi] holds
        at most k keys, ALL of them (the driver's final exact pick)."""
        import bisect

        sk = self._sel_keys or []
        a = bisect.bisect_right(sk, tuple(lo)) if lo is not None else 0
        b = bisect.bisect_right(sk, tuple(hi)) if hi is not None else len(sk)
        n = b - a
        if n <= 0:
            return []
        if n <= k:
            return sk[a:b]
        step = n / k
        idx = sorted({a + int((i + 1) * step) - 1 for i in range(k)} | {b - 1})
        return [sk[i] for i in idx]

    def truncate_selection(self, t_key: tuple[int, str]):
        """Keep only selection rows with key <= t_key; the tail goes
        BACK to pending in this shard (local requeue — the global
        round_limit overflow never round-trips through the driver).
        Under token_bucket politeness take charged a token per selected
        URL; the returned URLs are credited back (bounded by the burst
        cap) so throttled hosts keep their documented long-run rate of
        per_host_budget/round. Returns the (meta, table) part, like
        take (num_returns=2): take's part cut to the kept rows, so no
        URL is hashed or copied into a table twice."""
        import bisect

        if self._sel is None:
            return self._part(None)
        cut = bisect.bisect_right(self._sel_keys, tuple(t_key))
        urls, depths, hosts = self._sel
        for url, depth, host in zip(urls[cut:], depths[cut:], hosts[cut:]):
            self.in_flight.discard(url)
            self.pending[url] = (depth, host)
            if self._tb_burst is not None:
                bk = self._bkey(host)
                self.host_tokens[bk] = min(
                    self._tb_burst, self.host_tokens.get(bk, 0) + 1
                )
        self._sel = (urls[:cut], depths[:cut], hosts[:cut])
        self._sel_keys = self._sel_keys[:cut]
        tbl, pos, bk = self._sel_part
        if pos is None:
            tbl = tbl.slice(0, cut)
        else:
            # bucket-grouped rows: a key prefix of each bucket stays
            keep = pos < cut
            tbl, pos, bk = tbl.filter(keep), pos[keep], bk[keep]
        self._sel_part = (tbl, pos, bk)
        return self._meta(cut, bk), tbl

    def _part(self, n_buckets: int | None) -> tuple[dict, pa.Table]:
        """The held selection as (meta, table) for the data plane (see
        _meta). With n_buckets the rows are grouped by the corpus
        url-hash bucket, key order kept within a bucket, so a fused
        round task zero-copy-slices exactly the buckets its corpus
        blocks can contain. The part stays held for
        truncate_selection."""
        urls, depths, _hosts = self._sel if self._sel is not None else ([], [], [])
        pos = bk = None
        if n_buckets is not None:
            from ..sources.pages import url_bucket

            bk = np.fromiter(
                (url_bucket(u, n_buckets) for u in urls),
                dtype=np.int32,
                count=len(urls),
            )
            pos = np.argsort(bk, kind="stable")
            bk = bk[pos]
            urls = [urls[i] for i in pos]
            depths = [depths[i] for i in pos]
        tbl = pa.table(
            {"url": pa.array(urls, pa.string()), "depth": pa.array(depths, pa.int32())}
        )
        if self.track_cash and self.cash_combine == "sum":
            # OPIC: each selected URL's FROZEN cash rides to the round
            # tasks, which split it over the page's distinct out-links
            # (the account can't move while the URL is in_flight).
            # relevance_desc (max-combine) computes each candidate's
            # score fresh from the fetched parent's content, so nothing
            # rides (a riding column would wrongly engage the control
            # builder's OPIC split path).
            tbl = tbl.append_column(
                "cash", pa.array((self.cash.get(u, 0) for u in urls), pa.int64())
            )
        self._sel_part = (tbl, pos, bk)
        return self._meta(len(urls), bk), tbl

    def _meta(self, count: int, bk) -> dict:
        """A part's meta: its row count, this shard's ``counts()`` (the
        round's start counts the driver measures admissions from) and,
        given the rows' sorted bucket ids ``bk``, bucket -> (offset,
        len) ranges."""
        meta = {"count": count, "buckets": None, "ranges": None, "counts": self.counts()}
        if bk is not None:
            ranges: dict[int, tuple[int, int]] = {}
            if len(bk):
                bounds = np.flatnonzero(np.diff(bk)) + 1
                starts = np.concatenate(([0], bounds))
                ends = np.concatenate((bounds, [len(bk)]))
                for s, e in zip(starts, ends):
                    ranges[int(bk[s])] = (int(s), int(e - s))
            meta["buckets"] = sorted(ranges)
            meta["ranges"] = ranges
        return meta

    # -- end of round -----------------------------------------------
    def _order_part(
        self, round_no: int, urls: list, depths: list, order_dir, name: str
    ) -> pa.Table:
        """This shard's (round, depth, url) slice of the crawl order:
        returned as a table (test scale: it stays a driver-owned plasma
        ref), or written to ``order_dir/round=N/<name>`` via tmp+rename
        (the resumable layout crawl_items/metrics already use) with an
        empty table returned."""
        ok = pa.table(
            {
                "round": pa.array([round_no] * len(urls), pa.int32()),
                "depth": pa.array(depths, pa.int32()),
                "url": pa.array(urls, pa.string()),
            }
        )
        if order_dir is None:
            return ok
        import os
        import uuid

        import pyarrow.parquet as pq

        part = os.path.join(order_dir, f"round={round_no:06d}")
        os.makedirs(part, exist_ok=True)
        tmp = os.path.join(part, f".{name}.tmp-{uuid.uuid4().hex[:8]}")
        pq.write_table(ok, tmp)
        os.replace(tmp, os.path.join(part, name))
        return ok.schema.empty_table()

    def finish_round(
        self,
        round_no: int,
        order_dir: str | None = None,
        ckpt_path: str | None = None,
        attempt: int | None = None,
    ):
        """End-of-round, shard-side: quarantine still-in-flight URLs as
        errored (the reference's 404 path), emit THIS shard's slice
        of the crawl order — the selection minus the failed rows — and,
        given ``ckpt_path``, write the shard's checkpoint file there
        (stats["checkpoint"]: the file's row counts, see
        write_shard_state). Called with num_returns=2: the driver
        ray.gets only the small stats dict, which carries this shard's
        ``counts()`` as the round's deliveries left them, taken before
        anything is quarantined (the driver's admitted total;
        quarantine moves nothing out of pending, so they are also the
        round's pending lag); the order part is a ref or a parquet file
        (see _order_part). Replaces the driver-side
        ``order_parts.append`` accumulation (VERDICT r2 'What's wrong'
        #2).

        With ``cfg.max_retries > 0`` a failed fetch is TRANSIENT until
        its failure count exceeds the cap: failure #f re-schedules the
        URL for round ``round_no + cfg.backoff_base**f`` (exponential
        backoff, state colocated in this shard); only failure
        #(max_retries+1) quarantines. Retried URLs are excluded from
        this round's order part exactly like quarantined ones.

        Given an ``attempt``, the round was cut by a graceful stop (the
        reference's SIGINT path, goldie_playwright_parallel.py:871-901:
        keep what landed, hand the rest back) and nothing is
        quarantined. The selected URLs whose record_fetched arrived
        form the order part ``shard-iiii.aNN.parquet`` (the attempt
        suffix keeps successive stop/resume cycles of a round from
        overwriting each other; the lazy order reader globs both
        spellings). The ones still in_flight (task cancelled or its
        delivery never landed) become the stash the resumed round
        re-takes, dumped as ``resume_sel``. They stay in_flight, so
        enqueue dedup still knows them, rather than going back to
        pending: pending may already hold next-depth candidates
        admitted by the round's completed tasks, and a pending-wide
        re-take would mix depths and diverge from the uninterrupted
        schedule. Politeness tokens stay spent (the fetch is deferred,
        not cancelled). The stats add ``fetched`` and ``deferred``."""
        counts = self.counts()
        urls, depths, hosts = self._sel if self._sel is not None else ([], [], [])
        errored, retried = [], 0
        if attempt is not None:
            stash = [i for i, u in enumerate(urls) if u in self.in_flight]
            self._resume_sel = tuple(
                [col[i] for i in stash] for col in (urls, depths, hosts)
            )
            failed = self._resume_sel[0]
        else:
            max_retries = self.cfg.max_retries
            failed = sorted(self.in_flight)
            if max_retries > 0 and failed:
                selmap = {u: (d, h) for u, d, h in zip(urls, depths, hosts)}
                for url in failed:
                    f = self.retry_fails.pop(url, 0) + 1
                    if f <= max_retries and url in selmap:
                        d, h = selmap[url]
                        self.retrying[url] = (
                            d, h, f, round_no + self.cfg.backoff_base**f
                        )
                    else:
                        self.errored[url] = "not_found"
                        errored.append(url)
            else:
                errored = failed
                for url in errored:
                    self.errored[url] = "not_found"
            retried = len(failed) - len(errored)
            self.in_flight.clear()
        if failed:
            bad = set(failed)
            keep = [(u, d) for u, d in zip(urls, depths) if u not in bad]
            urls = [u for u, _ in keep]
            depths = [d for _, d in keep]
        self._sel = None
        self._sel_keys = None
        self._sel_part = None
        stats = {
            "errored": len(errored),
            "ok": len(urls),
            "retried": retried,
            "counts": counts,
        }
        if attempt is not None:
            stats.update(fetched=len(urls), deferred=len(failed))
        if ckpt_path is not None:
            stats["checkpoint"] = write_shard_state(ckpt_path, self.dump())
        tag = "" if attempt is None else f".a{attempt:02d}"
        name = f"shard-{self.shard_id:04d}{tag}.parquet"
        return stats, self._order_part(round_no, urls, depths, order_dir, name)

    def expire(self, urls: list[str]) -> int:
        """TTL recrawl primitive: forget that these URLs were seen so a
        future enqueue re-admits them. Removes from the exact seen set
        AND from the membership front — which is why the front is a
        cuckoo filter and not a bloom in mode='cuckoo' (a bloom cannot
        delete; expiring under mode='approx' would leave the bloom
        claiming 'seen' and the re-enqueue fast-path would skip the
        URL). Returns the number actually expired."""
        n = 0
        for url in urls:
            if url in self.seen:
                self.seen.discard(url)
                n += 1
                if isinstance(self.bloom, _Cuckoo):
                    self.bloom.delete(_h64(url))
        return n

    # -- introspection / checkpoint ---------------------------------
    def counts(self) -> dict:
        """This shard's set sizes. ``take`` / ``truncate_selection``
        metas and the end-of-round stats carry them, so the driver
        calls this only once, at the end of a crawl."""
        return {
            "shard": self.shard_id,
            "seen": len(self.seen),
            "pending": len(self.pending),
            "errored": len(self.errored),
            "in_flight": len(self.in_flight),
            "retrying": len(self.retrying),
        }

    def restore(self, path: str, partial: bool = False) -> None:
        """``load`` this shard's checkpoint file (load_checkpoint). A
        complete round's file may hold an empty ``resume_sel`` (a stop
        that landed after every delivery); only a ``partial`` round's
        stash is restored."""
        tables = read_shard_state(path)
        if not partial:
            tables.pop("resume_sel", None)
        self.load(tables)

    def dump(self) -> dict[str, pa.Table]:
        """The shard's checkpoint tables, keyed by table name:
        seen, pending, errored and host_tokens always; retries,
        backlinks and cash only when non-empty; resume_sel only after a
        stopped round's finish_round (an EMPTY resume_sel is meaningful
        — see load)."""
        d = {
            "seen": pa.table({"url": pa.array(sorted(self.seen), pa.string())}),
            "pending": pa.table(
                {
                    "url": pa.array(list(self.pending.keys()), pa.string()),
                    "depth": pa.array(
                        [d for d, _ in self.pending.values()], pa.int32()
                    ),
                    "host": pa.array(
                        [h for _, h in self.pending.values()], pa.string()
                    ),
                }
            ),
            "errored": _kv_table(self.errored, "url", "error", pa.string()),
            # banked politeness carry: without it a token_bucket crawl
            # resumed from checkpoint silently resets every host's
            # unspent tokens and schedules differently from an
            # uninterrupted run (ADVICE r2)
            "host_tokens": _kv_table(self.host_tokens, "host", "tokens", pa.int64()),
        }
        if self.retrying or self.retry_fails:
            # transient-failure retry state: both waiting entries
            # (backoff slot + failure count) and the failure counts of
            # URLs currently back in flight (state='inflight', whose
            # depth/host ride the selection, not this table) — without
            # them a resumed crawl would restart every backoff from
            # scratch and schedule differently
            w, f = list(self.retrying.values()), self.retry_fails
            d["retries"] = pa.table(
                {
                    "url": pa.array(list(self.retrying) + list(f), pa.string()),
                    "depth": pa.array([v[0] for v in w] + [0] * len(f), pa.int32()),
                    "host": pa.array([v[1] for v in w] + [""] * len(f), pa.string()),
                    "fails": pa.array(
                        [v[2] for v in w] + list(f.values()), pa.int32()
                    ),
                    "avail": pa.array([v[3] for v in w] + [-1] * len(f), pa.int32()),
                    "state": pa.array(
                        ["waiting"] * len(w) + ["inflight"] * len(f), pa.string()
                    ),
                }
            )
        # live citation counts (backlink_desc) and OPIC / relevance
        # accounts: without them a resumed adaptive crawl would re-rank
        # from zero
        if self.backlinks:
            d["backlinks"] = _kv_table(self.backlinks, "url", "n", pa.int64())
        if self.cash:
            d["cash"] = _kv_table(self.cash, "url", "n", pa.int64())
        if self._resume_sel is not None:
            u, dep, h = self._resume_sel
            d["resume_sel"] = pa.table(
                {
                    "url": pa.array(u, pa.string()),
                    "depth": pa.array(dep, pa.int32()),
                    "host": pa.array(h, pa.string()),
                }
            )
        return d

    def load(self, tables: dict[str, pa.Table]) -> None:
        """Restore from a ``dump()``-shaped dict; a missing table is
        its empty default."""

        def cols(name: str, *names: str) -> list[list]:
            t = tables.get(name)
            return [t[c].to_pylist() if t is not None else [] for c in names]

        self.seen = set(*cols("seen", "url"))
        self.pending = {
            u: (d, h) for u, d, h in zip(*cols("pending", "url", "depth", "host"))
        }
        self.errored = dict(zip(*cols("errored", "url", "error")))
        self.host_tokens = dict(zip(*cols("host_tokens", "host", "tokens")))
        self.backlinks = dict(zip(*cols("backlinks", "url", "n")))
        self.cash = dict(zip(*cols("cash", "url", "n")))
        self.retrying = {}
        self.retry_fails = {}
        for u, d, h, f, a, st in zip(
            *cols("retries", "url", "depth", "host", "fails", "avail", "state")
        ):
            if st == "waiting":
                self.retrying[u] = (d, h, f, a)
            else:
                self.retry_fails[u] = f
        # a salvaged partial round's remainder: back to in_flight (so
        # enqueue dedup still knows it) and stashed for the next take.
        # A PRESENT-but-EMPTY resume_sel is meaningful: the shard was
        # salvaged mid-round with every selected URL already fetched,
        # so the resumed round must re-take NOTHING from this shard —
        # falling through to a normal take over pending would pull
        # next-depth candidates admitted by the round's completed tasks
        # and diverge from the uninterrupted (round, depth, url)
        # schedule (ADVICE r3, high). Only an ABSENT table means
        # "no salvage" (restore drops it from a complete round's file).
        if tables.get("resume_sel") is not None:
            self._resume_sel = tuple(cols("resume_sel", "url", "depth", "host"))
            self.in_flight = set(self._resume_sel[0])
        else:
            self._resume_sel = None
            self.in_flight = set()
        if self.bloom is not None:
            # every set enqueue checks behind the front, retrying
            # included: a URL waiting out its backoff must not look
            # never-seen after a resume
            for keys in (
                self.seen, self.pending, self.errored, self.in_flight, self.retrying
            ):
                for u in keys:
                    self.bloom.add(_h64(u))


def _kv_table(d: dict, key: str, value: str, value_type: pa.DataType) -> pa.Table:
    return pa.table(
        {
            key: pa.array(list(d.keys()), pa.string()),
            value: pa.array(list(d.values()), value_type),
        }
    )

def _h64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")


def _sel_key(
    priority: str, depth: int, url: str, scores: dict | None = None
) -> tuple:
    """Frontier order key (pure function of the URL plus, for
    'score_desc', the crawl-config score map — identical on every
    shard, so the driver's threshold probes agree without
    coordination).

    'score_desc' is the classic importance-ordered crawl (Cho,
    Garcia-Molina & Page 1998, "Efficient Crawling Through URL
    Ordering"): within a depth level, highest externally-computed
    score first (in-degree, PageRank, OPIC cash, ...), URL as the
    deterministic tie-break. Unscored URLs rank as score 0."""
    if priority == "short_url_first":
        return (depth, len(url), url)
    if priority == "score_desc":
        return (depth, -(scores.get(url, 0) if scores else 0), url)
    if priority in ("backlink_desc", "opic", "relevance_desc"):
        # most-important-pending-first ACROSS depths: scores = the
        # shard's live citation counts (backlink_desc, bumped on every
        # admission/rediscovery), live OPIC cash accounts (opic,
        # integer shares of each fetched parent's frozen cash), or
        # best-parent content scores (relevance_desc, max-combined)
        return (-(scores.get(url, 0) if scores else 0), depth, url)
    return (depth, url)
