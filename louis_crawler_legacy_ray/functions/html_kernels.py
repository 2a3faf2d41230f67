"""Page extraction kernels — the byte-identity-critical transforms.

Reproduces the goldie extraction profile (the one the reference's golden
tests pin, tests/test_goldie.py:35-86):

  - ``clean_html``      -> louis/crawler/spiders/goldie.py:47-61 (M4)
  - ``extract_title``   -> goldie.py:11-12 (M6)
  - ``extract_last_updated`` -> goldie.py:13 (M7)
  - ``extract_page``    -> goldie.py:10-45 (convert_to_crawl_item)

``extract_page`` reads a goldie page in one tokenizer pass with no DOM:
:class:`_GoldieItemSink` keeps the item fields and streams the cleaned
``<main>`` out as the tokens arrive, and one candidate scan finds the
``<meta>``/``<link>`` directives. The tree-taking forms (``clean_doc``,
``extract_title``, ...) serve callers that already hold a parsed
document, and the playwright profile.

Pure functions over HTML strings; the Ray stage maps them over Arrow
columns in stages/extract.py.
"""

from __future__ import annotations

import re

from .dom import (
    RAW_TEXT_TAGS,
    VOID_ELEMENTS,
    Element,
    attrs_html,
    escape_text,
    feed,
    parse_html,
    strip_comments,
)
from .urls import detect_language, extract_children, extract_links, fix_vhost

# selectors dropped from <main> before serialization (goldie.py:49-53)
_NOISE_TAGS = ("aside", "script")
_NOISE_CLASSES = ("pagedetails", "nojs-hide", "alert")


def normalize_ws(s: str) -> str:
    """``re.sub(r'\\s+', ' ', s).strip()`` — the reference's whitespace
    normalizer, applied to titles, cleaned html and chunk text
    (goldie.py:12,61, chunking.py:24). Semantics-bearing (M10).

    ``str.split()`` splits on exactly the characters ``\\s`` matches
    (both are ``str.isspace``), so the split/join is the same function
    at a quarter of the cost."""
    return " ".join(s.split())


def _noise_class(cls: str) -> bool:
    return any(c in _NOISE_CLASSES for c in cls.split())


class _GoldieItemSink:
    """Token sink (see ``dom._TreeBuilder``) for the goldie item, with
    no tree: it records the text of every ``<title>`` in start-tag
    order, the text of the first ``<time>`` and every ``a[href]``, and
    streams the first ``<main>`` out as :func:`clean_doc` would
    serialize it — noise subtrees and comments skipped, a close tag
    when an element is popped, every open element closed at EOF.

    ``stack`` holds the open tag names, the document root at index 0;
    a depth is an index into it, 0 meaning "not open"."""

    __slots__ = (
        "stack", "titles", "open_titles", "time", "time_depth", "hrefs",
        "out", "main_depth", "noise_depth",
    )

    def __init__(self):
        self.stack = ["[document]"]
        self.titles: list[list[str]] = []  # text parts, one list per <title>
        self.open_titles: list[tuple[int, list[str]]] = []
        self.time: list[str] | None = None  # text parts of the first <time>
        self.time_depth = 0
        self.hrefs: list[str] = []
        self.out: list[str] | None = None  # serialized <main>, once it starts
        self.main_depth = 0
        self.noise_depth = 0  # outermost open noise element inside <main>

    def start(self, tag, attrs, closed):
        push = not closed and tag not in VOID_ELEMENTS
        if self.main_depth:
            if self.noise_depth:
                pass  # inside a dropped subtree
            elif tag in _NOISE_TAGS or (
                "class" in attrs and _noise_class(attrs["class"])
            ):
                if push:
                    self.noise_depth = len(self.stack)
            elif push:
                self.out.append(f"<{tag}{attrs_html(attrs)}>")
            elif tag in VOID_ELEMENTS:
                self.out.append(f"<{tag}{attrs_html(attrs)}/>")
            else:
                self.out.append(f"<{tag}{attrs_html(attrs)}></{tag}>")
        elif tag == "main" and self.out is None:
            if push:
                self.out = [f"<main{attrs_html(attrs)}>"]
                self.main_depth = len(self.stack)
            else:
                self.out = [f"<main{attrs_html(attrs)}></main>"]
        if tag == "a":
            if "href" in attrs:
                self.hrefs.append(attrs["href"])
        elif tag == "title":
            parts: list[str] = []
            self.titles.append(parts)
            if push:
                self.open_titles.append((len(self.stack), parts))
        elif tag == "time" and self.time is None:
            self.time = []
            if push:
                self.time_depth = len(self.stack)
        if push:
            self.stack.append(tag)

    def end(self, tag):
        stack = self.stack
        i = len(stack) - 1
        if stack[i] != tag:  # not the innermost: pop to the nearest match
            for i in range(i - 1, 0, -1):
                if stack[i] == tag:
                    break
            else:
                return  # stray end tag: ignored
        main_depth = self.main_depth
        if main_depth:
            # the popped elements inside <main> close, except inside noise
            out = self.out
            shown = self.noise_depth or len(stack)
            for k in range(shown - 1, max(i, main_depth) - 1, -1):
                out.append(f"</{stack[k]}>")
            if i <= self.noise_depth:
                self.noise_depth = 0
            if i <= main_depth:
                self.main_depth = 0
        if self.open_titles:
            self.open_titles = [t for t in self.open_titles if t[0] < i]
        if i <= self.time_depth:
            self.time_depth = 0
        del stack[i:]

    def data(self, data):
        if self.main_depth and not self.noise_depth:
            self.out.append(
                data if self.stack[-1] in RAW_TEXT_TAGS else escape_text(data)
            )
        if self.open_titles:
            for _, parts in self.open_titles:
                parts.append(data)
        if self.time_depth:
            self.time.append(data)

    def comment(self, data):
        pass  # comments are dropped, and are no text

    def cleaned(self) -> str:
        """The :func:`clean_doc` output; closes what EOF left open."""
        if self.out is None:
            return ""
        while self.main_depth:  # EOF: close innermost first
            self.end(self.stack[-1])
        return normalize_ws("<html><body>" + "".join(self.out) + "</body></html>")


def clean_html_playwright(html: str) -> str:
    """The M5 'playwright' cleaning profile (reference
    base_playwright.py:121-156): content-root fallbacks main -> article
    -> .content/#content/.main-content/#main-content -> whole document;
    extra drops (style, nav, header, footer); empty elements (no text,
    no <img>) removed. The goldie profile (:func:`clean_html`) is the
    canonical golden-tested one (SURVEY §2.2 M5 note); this variant is
    selectable via ``extract_page(profile='playwright')``."""
    return clean_doc_playwright(parse_html(html))


def clean_doc_playwright(doc: Element) -> str:
    """clean_html_playwright over an already-parsed document (mutates
    it)."""
    root = doc.find("main") or doc.find("article")
    if root is None:
        root = doc.find(
            lambda e: e.has_class("content")
            or e.has_class("main-content")
            or e.attrs.get("id") in ("content", "main-content")
        )
    if root is None:
        root = doc
    for tag in ("aside", "script", "style", "nav", "header", "footer"):
        for el in root.find_all(tag):
            el.extract()
    for cls in ("pagedetails", "nojs-hide", "alert"):
        for el in root.select_class(cls):
            el.extract()
    strip_comments(root)
    # remove empty elements (no stripped text, no img descendant)
    for el in list(root.iter_elements()):
        if el.parent is None:
            continue
        if not el.get_text().strip() and el.find("img") is None and el.name != "img":
            el.extract()
    inner = root.inner_html() if root.name == "[document]" else root.to_html()
    return normalize_ws("<html><body>" + inner + "</body></html>")


def clean_html(html: str) -> str:
    """Clean a page to its <main> content (goldie.py:47-61):

    1. select the first <main> element;
    2. drop aside, .pagedetails, script, .nojs-hide, .alert subtrees;
    3. strip HTML comments;
    4. serialize, wrapped in <html><body>...</body></html> — mirroring
       BeautifulSoup(main_html, 'lxml')'s document promotion, whose
       ``str(soup)`` output starts '<html><body><main...' ;
    5. collapse whitespace runs to single spaces and strip.

    Returns '' when the page has no <main> (reference raises there; our
    synthetic corpus always has one — '' marks malformed input as data,
    not fault). One tokenizer pass, no tree (:class:`_GoldieItemSink`).
    """
    return feed(html, _GoldieItemSink).cleaned()


def clean_doc(doc: Element) -> str:
    """clean_html over an already-parsed document (mutates it): the
    noise subtrees are collected in one traversal and detached,
    comments skipped during serialization."""
    main = doc.find("main")
    if main is None:
        return ""
    noise = [
        el
        for el in main.iter_elements()
        if el.name in _NOISE_TAGS
        or any(c in _NOISE_CLASSES for c in el.classes())
    ]
    for el in noise:
        if el.parent is not None:
            el.extract()
    content = "<html><body>" + main.to_html(skip_comments=True) + "</body></html>"
    return normalize_ws(content)


def extract_title(doc: Element) -> str:
    """Join ALL //title/text() with ' ', collapse whitespace
    (goldie.py:11-12)."""
    titles = [t.get_text() for t in doc.find_all("title")]
    return normalize_ws(" ".join(titles))


def extract_last_updated(doc: Element):
    """First //time/text() or None (goldie.py:13)."""
    t = doc.find("time")
    return t.get_text() if t is not None else None


def extract_hrefs(doc: Element) -> list[str]:
    """All a::attr(href) in document order (goldie.py:23, requests.py:5)."""
    return [a.attrs["href"] for a in doc.find_all("a") if "href" in a.attrs and isinstance(a.attrs["href"], str)]


def extract_page(
    url: str,
    html: str,
    now: int = 0,
    allowed_domains: list[str] | None = None,
    profile: str = "goldie",
) -> dict:
    """Full goldie ``convert_to_crawl_item`` (goldie.py:10-45) plus the
    M2 link set used for new frontier requests (requests.py:4-20).

    ``now`` is the injected clock (deterministic in tests; reference
    uses int(time.time()), goldie.py:16).

    Returns one record dict with both ``children`` (M3 list, stored on
    the item) and ``links`` (M2 filtered+canonicalized URLs that become
    new frontier candidates).
    """
    if profile == "goldie":
        # one tokenizer pass, no tree: the sink keeps the fields and
        # streams the cleaned <main> out
        item = feed(html, _GoldieItemSink)
        title = normalize_ws(" ".join("".join(t) for t in item.titles))
        last_updated = None if item.time is None else "".join(item.time)
        hrefs = item.hrefs
        cleaned = item.cleaned()
    else:
        # the fields are read before the cleaner mutates the one tree
        doc = parse_html(html)
        title = extract_title(doc)
        last_updated = extract_last_updated(doc)
        hrefs = extract_hrefs(doc)
        cleaned = clean_doc_playwright(doc)
    refresh, robots, canonical = _head_directives(html)
    canon_url = fix_vhost(url)
    return {
        "url": canon_url,
        "title": title,
        "lang": detect_language(canon_url),
        "html_content": cleaned,
        "last_crawled": now,
        "last_updated": last_updated,
        "children": extract_children(hrefs, url, allowed_domains),
        "links": extract_links(hrefs, url, allowed_domains),
        "redirect": _refresh_target(refresh, url, allowed_domains),
        "meta_robots": _robots_directives(robots),
        "canonical": _canonical_target(canonical, url, allowed_domains),
    }


# the head directives are read off the raw HTML, so they also match
# inside comments and scripts
_META_REFRESH_RX = re.compile(
    r"<meta\s+http-equiv=[\"']refresh[\"']\s+"
    r"content=[\"']\s*\d+\s*;\s*url=([^\"'>]+)[\"']",
    re.IGNORECASE,
)
_META_ROBOTS_RX = re.compile(
    r"<meta\s+(?:name=[\"']robots[\"']\s+content=[\"']([^\"'>]*)[\"']"
    r"|content=[\"']([^\"'>]*)[\"']\s+name=[\"']robots[\"'])",
    re.IGNORECASE,
)
_CANONICAL_RX = re.compile(
    r"<link\s+(?:rel=[\"']canonical[\"']\s+href=[\"']([^\"'>]+)[\"']"
    r"|href=[\"']([^\"'>]+)[\"']\s+rel=[\"']canonical[\"'])",
    re.IGNORECASE,
)
# Every directive pattern starts with `<meta\s` or `<link\s`, and `<`
# cannot occur inside that prefix, so this scan stops at every position
# where one of them can match: a pattern's first .match over these
# candidates is exactly its .search.
_HEAD_TAG_RX = re.compile(r"<(?:meta|link)\s", re.IGNORECASE)
_HEAD_RXS = (_META_REFRESH_RX, _META_ROBOTS_RX, _CANONICAL_RX)


def _head_directives(html: str) -> list:
    """``[rx.search(html) for rx in _HEAD_RXS]`` in one scan."""
    found = [None] * len(_HEAD_RXS)
    left = len(_HEAD_RXS)
    for cand in _HEAD_TAG_RX.finditer(html):
        pos = cand.start()
        for k, rx in enumerate(_HEAD_RXS):
            if found[k] is None:
                m = rx.match(html, pos)
                if m is not None:
                    found[k] = m
                    left -= 1
        if not left:
            break
    return found


def _refresh_target(m, url: str, allowed_domains) -> str | None:
    if not m:
        return None
    links = extract_links([m.group(1).strip()], url, allowed_domains)
    return links[0] if links else None


def _canonical_target(m, url: str, allowed_domains) -> str | None:
    if not m:
        return None
    links = extract_links([(m.group(1) or m.group(2)).strip()], url, allowed_domains)
    return links[0] if links else None


def _robots_directives(m) -> str:
    if not m:
        return ""
    toks = {t.strip().lower() for t in (m.group(1) or m.group(2) or "").split(",")}
    noindex = "noindex" in toks or "none" in toks
    nofollow = "nofollow" in toks or "none" in toks
    return ",".join(
        d for d, on in (("noindex", noindex), ("nofollow", nofollow)) if on
    )


def meta_refresh_target(
    url: str, html: str, allowed_domains: list[str] | None = None
) -> str | None:
    """The page's ``<meta http-equiv="refresh" content="N;url=...">``
    target, absolutized + canonicalized EXACTLY like a frontier link
    candidate (extract_links rules) — the HTML-level stand-in for an
    HTTP 3xx in a corpus of stored bodies. None when the page has no
    refresh directive or its target is filtered (pdf/mailto/#/…)."""
    return _refresh_target(
        _META_REFRESH_RX.search(html or ""), url, allowed_domains
    )


def canonical_target(
    url: str, html: str, allowed_domains: list[str] | None = None
) -> str | None:
    """The page's ``<link rel="canonical" href="...">`` target — the
    indexing-side duplicate-consolidation hint (it does NOT steer the
    frontier; crawling is governed by robots, canonical by the
    indexer). Absolutized + canonicalized EXACTLY like a frontier link
    candidate so group keys agree with crawled URLs; None when absent
    or filtered. Either attribute order matches."""
    return _canonical_target(_CANONICAL_RX.search(html or ""), url, allowed_domains)


def meta_robots(html: str) -> str:
    """The page-level robots directives from ``<meta name="robots"
    content="...">`` (the Robots Exclusion Protocol's HTML companion:
    robots.txt governs FETCHING, the meta tag governs what a crawler
    does with a page it already fetched). Returns the canonical subset
    string — '' / 'noindex' / 'nofollow' / 'noindex,nofollow' —
    case-insensitively; the ``none`` token means both, matching the
    de-facto Googlebot/Scrapy reading. Attribute order ``name`` first
    or ``content`` first both match (regex scan like meta_refresh —
    one cheap pass, no extra DOM walk)."""
    return _robots_directives(_META_ROBOTS_RX.search(html or ""))


def extract_anchors(url: str, html: str) -> list[tuple[str, str]]:
    """(absolute_link, anchor_text) pairs of a page — the web-graph
    anchor-text signal (the reference extracts hrefs only, goldie.py:23;
    anchor text is the classic ranking/describe-the-target feature this
    engine adds for link-graph analytics). One parse; links filtered +
    absolutized + canonicalized EXACTLY like the frontier candidates
    (extract_links rules: pdf/#/?/mailto handling, fix_vhost), anchor
    text whitespace-normalized. One pair per link occurrence — a page
    linking the same target under two texts contributes both."""
    doc = parse_html(html)
    out: list[tuple[str, str]] = []
    for a in doc.find_all("a"):
        href = a.attrs.get("href")
        if not isinstance(href, str):
            continue
        links = extract_links([href], url)
        if links:
            out.append((links[0], normalize_ws(a.get_text())))
    return out


_HREFLANG_RX = None


def hreflang_alternates(
    url: str, html: str, allowed_domains: list[str] | None = None
) -> list[tuple[str, str]]:
    """ALL ``<link rel="alternate" hreflang="xx" href="...">``
    declarations of a page as (hreflang, absolute_url) pairs in
    document order — the SEO-standard language-variant clustering hint
    (Google's rel-alternate-hreflang): the indexer groups the variants
    under one cluster and serves the language-matched member. Targets
    absolutized + filtered EXACTLY like frontier links so cluster keys
    agree with crawled URLs; filtered targets are dropped. Matches the
    canonical attribute order (rel, hreflang, href); a multi-match scan
    unlike canonical_target/meta_refresh (a page declares one variant
    per language)."""
    import re as _re

    global _HREFLANG_RX
    if _HREFLANG_RX is None:
        _HREFLANG_RX = _re.compile(
            r"<link\s+rel=[\"']alternate[\"']\s+"
            r"hreflang=[\"']([^\"'>]+)[\"']\s+href=[\"']([^\"'>]+)[\"']",
            _re.IGNORECASE,
        )
    out: list[tuple[str, str]] = []
    for m in _HREFLANG_RX.finditer(html or ""):
        links = extract_links([m.group(2).strip()], url, allowed_domains)
        if links:
            out.append((m.group(1).strip().lower(), links[0]))
    return out
