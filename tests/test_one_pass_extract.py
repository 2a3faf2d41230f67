"""The one-pass goldie extract (one tokenizer pass into the item sink,
one candidate scan for the head directives) must equal the tree
composition it replaced: parse_html, a walk over the tree for
title/time/a[href], clean_doc, and one regex .search per head
directive — on malformed HTML, hand-built and random."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fast_parser import _CHUNK

from louis_crawler_legacy_ray.functions import dom
from louis_crawler_legacy_ray.functions.dom import parse_html
from louis_crawler_legacy_ray.functions.html_kernels import (
    canonical_target,
    clean_doc,
    clean_html,
    extract_page,
    meta_refresh_target,
    meta_robots,
    normalize_ws,
)
from louis_crawler_legacy_ray.functions.urls import (
    detect_language,
    extract_children,
    extract_links,
    fix_vhost,
)

URL = "http://a.example.ca/en/s/doc1"


def reference_page(url: str, html: str, allowed_domains=None) -> dict:
    """The tree composition: one parse, one walk for the fields,
    clean_doc on the same tree, three raw-HTML .search calls."""
    doc = parse_html(html)
    titles, first_time, hrefs = [], None, []
    for el in doc.iter_elements():
        if el.name == "title":
            titles.append(el.get_text())
        elif el.name == "time" and first_time is None:
            first_time = el.get_text()
        elif el.name == "a":
            href = el.attrs.get("href")
            if isinstance(href, str):
                hrefs.append(href)
    canon_url = fix_vhost(url)
    return {
        "url": canon_url,
        "title": normalize_ws(" ".join(titles)),
        "lang": detect_language(canon_url),
        "html_content": clean_doc(doc),
        "last_crawled": 0,
        "last_updated": first_time,
        "children": extract_children(hrefs, url, allowed_domains),
        "links": extract_links(hrefs, url, allowed_domains),
        "redirect": meta_refresh_target(url, html, allowed_domains),
        "meta_robots": meta_robots(html),
        "canonical": canonical_target(url, html, allowed_domains),
    }


def assert_same(html: str) -> None:
    assert extract_page(URL, html, now=0) == reference_page(URL, html), html[:300]
    assert clean_html(html) == clean_doc(parse_html(html)), html[:300]


CASES = [
    # no <main>, empty, text only
    "",
    "plain text",
    "<html><head><title>T</title></head><body><p>x</p></body></html>",
    # unclosed tags, stray end tags, </body> inside <main>
    "<main><div><p>a<p>b<span>c",
    "<main><p>a</div></span>b</p></x>c</main>",
    "<html><body><main><p>x</p></body><p>after</p></main></html>",
    "<main><p>x</body>y</main>",
    "<body><main><div><p>eof in main",
    # nested <main>, <main/>, main after main
    "<main a=1><main class=inner><p>in</p></main><p>out</p></main><main>2nd</main>",
    "<main/><main><p>second</p></main>",
    "<main class='x' id=m/>tail",
    "<p>before</p><main><main><main>deep",
    # noise inside <main> inside noise, <main class="alert">
    "<aside><main><aside>n</aside><p>k</p></main></aside>",
    "<div class='alert'><main><div class='pagedetails'>n<main>m</main></div>k</main></div>",
    "<main class='alert'><p>kept</p><div class='x alert y'>gone</div></main>",
    "<main><div class='nojs-hide'><aside>a</aside><p>p</p></div><p>k</p></main>",
    "<main><aside>unclosed noise<p>still noise</main><p>outside</p>",
    "<main><main class='alert'>inner noise</main>kept</main>",
    "<main><div class=alert/><span class=alert>s</span><br class=alert>k</main>",
    "<main><aside/>after self-closed noise</main>",
    # script/style holding <a href>, <main> or <meta ...>
    "<script><a href='/s'><main>no</main><meta name=robots content=noindex></script><main>m</main>",
    "<main><style>a > b { x: '<main>' } &amp;</style><p>&amp;</p></main>",
    "<main><script>if (a < b) { '<a href=x>' }</script>k</main>",
    "<style><main></style><main>real</main>",
    "<main><style>never closed",
    # comments holding <main> or <link rel="canonical">
    "<!-- <main>c</main> --><main><!-- <link rel='canonical' href='/c'> -->k</main>",
    "<!-- <meta http-equiv='refresh' content='0; url=/r'> --><p>x</p>",
    "<main><!-- unterminated comment",
    "<main>a<!bogus comment>b</main>",
    # <![CDATA[ (the stdlib fallback path)
    "<main><![CDATA[x<y]]><p>k</p></main>",
    "<![CDATA[<main>]]><title>t</title><main>m<time>1</time></main>",
    "<main><p>a<![if !IE]>b<![endif]></main>",
    # mixed-case tags and attributes, entities in text and attributes
    "<MAIN CLASS='C' Data-X=1><P ID=q>Hi &amp; &lt;b&gt; &eacute;&nbsp;x</P></MAIN>",
    "<Main><A HREF='/a?x=1&amp;y=2'>A</A><Aside>n</ASIDE><Title>t</TITLE></main>",
    "<main><span title='a\"b' alt=\"c'd\" q='e\"f&apos;'>s</span></main>",
    "<main><img src=x.png alt='&lt;&gt;'><br><hr/><input checked/></main>",
    "<main><div/><p/>after self-closed</main>",
    # nested and multiple <title>/<time>
    "<title>a<title>b</title>c</title><title>d</title><main>m</main>",
    "<title>a<b>b</b>c</title><p><title/></p>",
    "<time>1<time>2</time>3</time><time>4</time>",
    "<time/><time>later</time>",
    "<main><time>t<a href='/x'>x</a></time><title>in main</title></main>",
    "<title>never closed <main>m</main>",
    "<a href>empty</a><a>none</a><a href='#f'>frag</a><a href=/p/>sc</a>",
    # head directives: both attribute orders, upper case, first wins
    "<meta http-equiv='refresh' content='5; url=/next'><meta http-equiv='refresh' content='0;url=/2'>",
    "<META NAME='ROBOTS' CONTENT='NOINDEX'><meta content='nofollow' name='robots'>",
    "<meta content='none' name=\"robots\"><link href='/c2' rel='canonical'>",
    "<LINK REL=\"CANONICAL\" HREF=\"/c1\"><link rel='canonical' href='/c3'>",
    "<link rel='stylesheet' href='/s.css'><link\trel='canonical'\nhref='/ws'>",
    "<meta charset=utf-8><meta name='viewport' content='w'><meta http-equiv=refresh content='0;url=/bare'>",
    "<metax name='robots' content='noindex'><linkx rel='canonical' href='/no'>",
    "<<meta name='robots' content='noindex'><<link rel='canonical' href='/yes'>",
]


def test_cases_match_tree_composition():
    for html in CASES:
        assert_same(html)


def test_cases_cover_the_fallback_paths(monkeypatch):
    """A fast pass that fails part-way must not leave tokens in the sink
    the stdlib pass fills."""
    fast = dom._fast_tokenize

    def half_then_raise(s, sink):
        fast(s[: len(s) // 2], sink)
        raise ValueError("tokenizer error")

    monkeypatch.setattr(dom, "_fast_tokenize", half_then_raise)
    for html in CASES:
        assert_same(html)


_GOLDIE_CHUNK = st.sampled_from(
    [
        "<main>", "</main>", "<main/>", "<main class='alert'>", "<MAIN id=M>",
        "<aside>", "</aside>", "<div class='x alert'>", "<span class=pagedetails>",
        "<p class='nojs-hide'>", "<script>", "</script>", "<style>", "</style>",
        "<title>", "</title>", "<TITLE>", "<title/>", "<time>", "</time>",
        "<time/>", "<a href='/p'>", "<A HREF=/Q>", "<a href>", "</a>",
        "<body>", "</body>", "</html>", "<br>", "<img src=x/>", "<div/>",
        "<!-- <main> -->", "<!--", "-->", "<![CDATA[x]]>", "&lt;main&gt;",
        "&amp;", "t i", "<meta name='robots' content='noindex'>",
        "<META CONTENT='nofollow' NAME='ROBOTS'>",
        "<link rel=\"canonical\" href=\"/c\">", "<link href='/d' rel='canonical'>",
        "<meta http-equiv=\"refresh\" content=\"0; url=/r\">",
        '<main class="a">', '<div class="alert">', '<a href="/q&amp;r">',
        '<span class="pagedetails x">', '<TIME datetime="d">',
    ]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_CHUNK, _GOLDIE_CHUNK), max_size=40))
def test_random_soup_matches_tree_composition(parts):
    assert_same("".join(parts))


@pytest.mark.parametrize("pad", [0, 28_000])
def test_bench_pages_match_tree_composition(pad):
    from louis_crawler_legacy_ray.sources.pages import (
        pages_from_documents,
        synth_documents,
    )

    docs = synth_documents(16, seed=7)
    pages = pages_from_documents(docs, pad_bytes=pad, n_children=8, n_hosts=64)
    for url, html in zip(pages["url"].to_pylist(), pages["html"].to_pylist()):
        html = html.decode()
        assert extract_page(url, html) == reference_page(url, html)


def test_normalize_ws_is_the_reference_regex():
    import re
    import sys

    ws = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if re.match(r"\s", c))
    samples = ["", " ", ws, f"{ws}a{ws}b{ws}", "a​b", "x\xa0　y\x1cz\x85"]
    for s in samples:
        assert normalize_ws(s) == re.sub(r"\s+", " ", s).strip()
    assert all(c.isspace() for c in ws)
    assert sum(c.isspace() for c in map(chr, range(sys.maxunicode + 1))) == len(ws)
