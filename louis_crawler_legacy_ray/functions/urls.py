"""URL kernels: canonicalization, link extraction/filtering, hashing.

Reproduces the semantics of the reference's URL handling:
  - ``fix_vhost``            -> louis/crawler/requests.py:22-25
  - ``extract_links``        -> louis/crawler/requests.py:4-20   (M2)
  - ``extract_children``     -> louis/crawler/spiders/goldie.py:22-35 (M3)

Pure functions, no Ray. The per-row pieces are intentionally tiny so the
Ray stage can run them over Arrow columns inside ``map_batches``.
"""

from __future__ import annotations

import hashlib
from urllib.parse import urljoin, urlparse

# Ordered, overlapping string replaces — order matters and is part of the
# reference contract (requests.py:22-25): the first replace already
# rewrites the "www." variant's suffix, the second catches what is left.
_VHOST_REPLACES = (
    ("https://inspection.gc.ca", "http://inspection.canada.ca"),
    ("https://www.inspection.gc.ca", "http://inspection.canada.ca"),
)


def fix_vhost(url: str) -> str:
    """Canonicalize legacy vhosts (reference requests.py:22-25)."""
    for old, new in _VHOST_REPLACES:
        url = url.replace(old, new)
    return url


def extract_links(
    hrefs: list[str],
    base_url: str,
    allowed_domains: list[str] | None = None,
) -> list[str]:
    """Filter + absolutize anchor hrefs exactly as the reference's
    ``extract_urls`` does (requests.py:4-20):

    - drop hrefs ending in ``pdf``
    - strip ``#fragment`` then ``?query``
    - absolute ``http*`` URLs pass through
    - site-relative ``/...`` resolved against base scheme+netloc
    - everything else (relative paths, mailto:, javascript:, empty) dropped
    - canonicalized via :func:`fix_vhost`
    - optional allowed-domain filter (Scrapy enforces the spider's
      allowed_domains on REQUESTS via OffsiteMiddleware, not in
      extract_urls itself — links are the frontier-candidate set, so
      the offsite drop belongs here; same substring-on-netloc rule as
      extract_children / base_playwright.py:95-119)

    Order-preserving; duplicates NOT removed (the reference relies on the
    scheduler's request fingerprinting for dedup, settings.py:91).
    """
    out: list[str] = []
    parsed = None
    for href in hrefs:
        if href.endswith("pdf"):
            continue
        href = href.split("#")[0]
        href = href.split("?")[0]
        if href.startswith("http"):
            pass
        elif href.startswith("/"):
            if parsed is None:
                parsed = urlparse(base_url)
            href = parsed.scheme + "://" + parsed.netloc + href
        else:
            continue
        if allowed_domains is not None:
            netloc = urlparse(href).netloc
            if not any(dom in netloc for dom in allowed_domains):
                continue
        out.append(fix_vhost(href))
    return out


def extract_children(
    hrefs: list[str],
    base_url: str,
    allowed_domains: list[str] | None = None,
) -> list[str]:
    """The ``children`` list of a crawled page (goldie.py:22-35):

    - keep all non-empty hrefs except ``#...`` and ``mailto:...``
    - absolutize with urljoin against the page URL (the two dominant
      shapes — absolute http* and site-relative /path — take fast paths
      producing byte-identical results; generic urljoin was ~20% of the
      whole extract kernel at 10 links/page)
    - optional allowed-domain filter: substring match on netloc
      (base_playwright.py:95-119 variant)
    - exact order-preserving dedup, first occurrence wins (goldie.py:29-35)
    """
    children: list[str] = []
    parsed = None
    for link in hrefs:
        if link and not link.startswith("#") and not link.startswith("mailto:"):
            if link.startswith(("http://", "https://")):
                absolute = link
            elif link.startswith("/") and not link.startswith("//"):
                if parsed is None:
                    parsed = urlparse(base_url)
                absolute = f"{parsed.scheme}://{parsed.netloc}{link}"
            else:
                absolute = urljoin(base_url, link)
            if allowed_domains is not None:
                netloc = urlparse(absolute).netloc
                if not any(dom in netloc for dom in allowed_domains):
                    continue
            children.append(absolute)
    seen: set[str] = set()
    unique: list[str] = []
    for link in children:
        if link not in seen:
            seen.add(link)
            unique.append(link)
    return unique


def url_host(url: str) -> str:
    """netloc of a URL (urlparse). Not the frontier partitioning key:
    shards route by state/seen.py's host rule (``route_urls``)."""
    return urlparse(url).netloc


def url_hash64(url: str) -> int:
    """Stable unsigned 64-bit hash of a URL, used for the sharded
    seen-filter (shard id = hash % n_shards) and bloom filters.

    blake2b is stable across processes/runs (unlike Python's ``hash``).
    """
    return int.from_bytes(hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest(), "big")


def detect_language(url: str) -> str:
    """Canonical language rule (goldie.py:17-19): 'fr' iff the url
    contains '/fra/', else 'en'."""
    return "fr" if url.find("/fra/") != -1 else "en"


def surt(url: str) -> str:
    """Sort-friendly URI Reordering Transform — the canonical key of
    web-archive CDX indexes (Internet Archive / Common Crawl index
    convention): scheme dropped, host lowercased, a leading ``www.``
    stripped, host labels REVERSED and comma-joined, then ``)`` and the
    path+query. ``com,example,docs)/a/b`` sorts every page of a domain
    (and of each subdomain subtree) contiguously, which is what makes a
    range-partitioned URL index scannable by domain prefix.

    The reference has no index at all (its lookups are per-row SQL
    point reads, louis/db.py:620-631); this key extends the engine
    with the web-archive indexing convention per the task brief."""
    u = (url or "").lower()
    for pre in ("https://", "http://"):
        if u.startswith(pre):
            u = u[len(pre):]
            break
    host, sep, rest = u.partition("/")
    if host.startswith("www."):
        host = host[4:]
    return ",".join(reversed(host.split("."))) + ")/" + (rest if sep else "")


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 over an absolute path — stack algorithm."""
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if out:
                out.pop()
            continue
        out.append(seg)
    # a trailing '.'/'..' still denotes a directory: keep the slash
    if path.endswith(("/.", "/..")) and (not out or out[-1] != ""):
        out.append("")
    p = "/".join(out)
    return p if p.startswith("/") else "/" + p


def canonicalize_url(url: str) -> str:
    """Full URL canonicalization (w3lib.canonicalize_url semantics,
    RFC 3986 §6 normalizations — the dedup key Scrapy's request
    fingerprinting builds on, one level stronger than the reference's
    fix_vhost+strip-query):

    - scheme and host lowercased; default ports (http:80, https:443)
      stripped; empty path becomes '/'
    - dot-segments removed (§5.2.4)
    - percent-encoding normalized: octets decoded then re-encoded with
      a canonical safe set, so ``%64oc`` and ``doc`` collapse and hex
      digits come out uppercase
    - query pairs parsed and SORTED by (key, value) — parameter order
      never distinguishes documents
    - fragment dropped (never sent to the server)
    """
    from urllib.parse import (
        parse_qsl,
        quote,
        unquote,
        urlencode,
        urlsplit,
        urlunsplit,
    )

    s = urlsplit(url or "")
    scheme = s.scheme.lower()
    host = (s.hostname or "").lower()
    port = s.port
    if port is not None and (scheme, port) not in (
        ("http", 80), ("https", 443)
    ):
        host = f"{host}:{port}"
    path = quote(unquote(s.path), safe="/~:@!$&'()*+,;=-._")
    path = _remove_dot_segments(path) if path else "/"
    query = urlencode(sorted(parse_qsl(s.query, keep_blank_values=True)))
    return urlunsplit((scheme, host, path, query, ""))


# --------------------------------------------------------------- PSL-lite
# Registered-domain (eTLD+1) extraction with the publicsuffix.org list
# ALGORITHM (exception > longest match > default '*' rule), over an
# embedded rule subset — the full list is data, the semantics are what
# a crawler's per-domain politeness queues (Heritrix's "queue by
# registered domain") depend on. Rules: plain suffixes, one-label
# wildcards ("*.ck"), and exceptions ("!www.ck").
PSL_RULES = (
    "com", "org", "net", "io", "jp", "uk", "au", "ca", "ck",
    "co.uk", "org.uk", "co.jp", "com.au",
    "on.ca", "qc.ca", "gc.ca",
    "github.io",
    "*.ck", "!www.ck",
)


def _psl_parse(rules):
    plain, wild, exc = set(), set(), set()
    for r in rules:
        if r.startswith("!"):
            exc.add(tuple(r[1:].split(".")))
        elif r.startswith("*."):
            wild.add(tuple(r[2:].split(".")))
        else:
            plain.add(tuple(r.split(".")))
    return plain, wild, exc


_PSL_PARSED = _psl_parse(PSL_RULES)


def registered_domain(host: str, rules=None) -> str | None:
    """eTLD+1 of ``host`` under the PSL algorithm, or None when the
    host IS a public suffix. Case-folded; tolerates one trailing dot."""
    plain, wild, exc = _PSL_PARSED if rules is None else _psl_parse(rules)
    labels = host.lower().rstrip(".").split(".")
    n = len(labels)
    ps = 1  # the default rule '*': the bare TLD is a public suffix
    for e in exc:  # exception rules win outright
        k = len(e)
        if n >= k and tuple(labels[n - k :]) == e:
            ps = k - 1
            break
    else:
        for r in plain:
            k = len(r)
            if k > ps and n >= k and tuple(labels[n - k :]) == r:
                ps = k
        for w in wild:  # "*.base": * consumes exactly one real label
            k = len(w) + 1
            if k > ps and n >= k and tuple(labels[n - len(w) :]) == w:
                ps = k
    if n <= ps:
        return None
    return ".".join(labels[n - ps - 1 :])


def idna_host(host: str) -> str:
    """IDN host normalization (RFC 3490 ToASCII via the stdlib idna
    codec, label by label): internationalized hostnames fold to their
    punycode wire form so seen-set keys, politeness queues and robots
    lookups agree with what DNS and servers actually see. ASCII labels
    pass through; the host is case-folded first (IDNA is defined on
    lowercase)."""
    out = []
    for label in host.lower().rstrip(".").split("."):
        if label and any(ord(c) > 127 for c in label):
            out.append(label.encode("idna").decode("ascii"))
        else:
            out.append(label)
    return ".".join(out)
