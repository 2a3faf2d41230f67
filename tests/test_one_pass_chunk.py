"""The one-pass chunker (one tokenizer pass into the chunk sink, then
grouping and segmentation over flat block records) must equal the tree
chunker it replaced (tests/tree_chunker.py) on every chunk field — on
hand-built pages, wide and deep pages, random soups and the benchmark's
pages."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fast_parser import _CHUNK
from tree_chunker import tree_chunk_html

from louis_crawler_legacy_ray.functions import dom
from louis_crawler_legacy_ray.functions.chunking import chunk_html
from louis_crawler_legacy_ray.functions.html_kernels import extract_page
from louis_crawler_legacy_ray.functions.tokenizer import Encoder
from louis_crawler_legacy_ray.stages.bpe import BpeTokenEncoder


def words(n, base="w"):
    return " ".join(f"{base}{i}" for i in range(n))


def assert_same(html: str, enc=None) -> None:
    assert chunk_html(html, enc) == tree_chunk_html(html, enc), html[:300]


def tree_deep(html: str) -> list[dict]:
    """The tree chunker under a recursion limit it does not hit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        return tree_chunk_html(html)
    finally:
        sys.setrecursionlimit(limit)


SENTENCES = ". ".join(words(12, f"s{i}w") for i in range(80)) + "."

CASES = [
    # empty, text only, empty body, body with only whitespace
    "",
    "plain text",
    "<html><body></body></html>",
    "<html><head><title> Spaced  title </title></head><body> \n </body></html>",
    # nested headings, text between headings, heading as the last child
    "<html><body><h1>A</h1>intro<h2>B</h2><p>b text</p>mid<h3>C</h3><p>c</p>"
    "<h2>D</h2><h1>E</h1>tail</body></html>",
    "<body><div><p>x</p><h2>last</h2></div><p>after</p><h3>deeper</h3></body>",
    "<body><h3>3</h3><h2>2</h2><h1>1</h1><h2>2b</h2><h3>3b</h3></body>",
    "<body><h2>a<h3>nested in heading</h3>b</h2><p>p</p></body>",
    # the lone-header unwrap: <summary><h1>, chains of wrappers, order
    "<html><body><details><summary><h1>Wrapped</h1></summary>"
    "<p>content after</p></details></body></html>",
    "<body><section><div><h1>a</h1></div><h2>b</h2></section><p>c</p></body>",
    "<body><div><h2>x</h2><span><h1>y</h1></span></div>z</body>",
    "<body><div class='blocks'><h2>unwrapped block</h2></div><p>q</p></body>",
    "<body><div parent><h2>unwrapped parent attr</h2></div>t</body>",
    # fragments: promotion, head-only tags and their text leave the body
    "<title>Glossary</title><h2>Z</h2><p>Zoonose. Le terme.</p>",
    "<h1>a</h1><style>s { }</style><p>x</p><title>t</title><meta name=x><link rel=y>",
    "<p>y</p><title>first</title><div><title>second</title></div>",
    "<div><head></head></div><title>moved in</title><h1>a</h1>",
    "<head><h1>x</h1></head><p>y</p>",
    "<title><head></head></title><h1>a</h1>b",
    "<html><h1>a</h1><head><title>t</title></head><p>x</p></html>",
    "<p>before</p><html class=blocks><h2>in</h2><p>x</p></html><p>after</p>",
    # a body that is not the first element, blocks outside the body
    "<h1>a</h1><body>b</body>",
    "<div class='blocks' title='outer'><body><p>in body</p></body></div>"
    "<div class='blocks'>next</div>",
    "<body><p>one</p></body><body><h2>second body</h2><p>two</p></body>",
    # more than 512 tokens with and without '.'
    f"<body><h1>T</h1><p>{SENTENCES}</p></body>",
    f"<body><p>{words(700)}</p></body>",
    f"<body><h2>a</h2><p>{words(200)}</p><h2>b</h2><p>{words(200)}</p>"
    f"<h2>c</h2><p>{words(200)}</p></body>",
    # input attrs: class~=blocks, parent, processed, title, cached tokens
    "<body><div class='x blocks y' title='T'>one</div><div class='blocks'>two</div>"
    "<div class=blocks title=''>three</div></body>",
    "<body><div class=blocks processed>skipped</div><p>kept</p></body>",
    "<body><div class=blocks parent><p>inside</p></div><h2>h</h2>t</body>",
    "<body parent class=blocks><h1>a</h1>b</body>",
    "<body processed><p>x</p></body>",
    "<body title='body attr'><p>x</p></body>",
    "<body><div class='blocks' tokens='[1, 2]' token_count='510' "
    "text_content='cached a'></div><div class='blocks' tokens='[]' "
    "token_count='2' text_content='cached b'></div></body>",
    "<body><h2 class=blocks title=own>h</h2><p>x</p></body>",
    "<body parent><div class='blocks' tokens='[1, 2]' token_count='300' "
    "text_content='cached'></div><div class=blocks tokens='[3]' token_count='200' "
    "text_content='small'></div><div class=blocks>live text</div></body>",
    # the parent flags stop at a body-named element, even a nested one
    "<body><div class=blocks><body><h2>x</h2>y</body></div>z</body>",
    # a marked section: the whole page goes through html.parser
    "<body><![CDATA[x]]><h1>t</h1>y<![if !IE]>z<![endif]></body>",
    # unclosed, stray and misnested tags around headings
    "<body><h1>open<p>never closed<h2>inner",
    "<body><div><h2>a</h div><p>b</p></span></div>c</body>",
    "<body><h1/><p>after self-closed heading</p><h2/>",
]


def test_cases_match_tree_chunker():
    for html in CASES:
        assert_same(html)


def test_cases_match_with_another_encoder():
    enc = BpeTokenEncoder([("w", "1"), ("s", "0"), ("a", "b")])
    for html in CASES:
        assert_same(html, enc)


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


def test_rejected_markup_raises_as_before():
    with pytest.raises(dom.MarkupRejected):
        chunk_html("<body><![v>x</body>")


def test_wide_page():
    """4,000 sections: the tree's sibling scans make it quadratic."""
    html = "<html><body>" + "".join(
        f"<h2>Section {i}</h2><p>Text of section {i}. More.</p>" for i in range(4000)
    ) + "</body></html>"
    assert_same(html)


def test_deep_and_repetitive_pages_chunk():
    """Two pages the crawl accepts on which the tree chunker raises
    RecursionError at the default limit: <div> nested 1,200 deep (the
    cleaned content extract_page keeps), and 1,500 empty sibling
    headings whose packing chain never fills 512 tokens."""
    raw = (
        "<html><body><main>" + "<div>" * 1200 + "<h1>x</h1><p>deep text</p>"
        + "</div>" * 1200 + "</main></body></html>"
    )
    deep = extract_page("http://a.example.ca/en/deep", raw, now=0)["html_content"]
    wide = "<h2></h2>" * 1500 + "<p>end</p>"
    limit = sys.getrecursionlimit()
    got_deep, got_wide = chunk_html(deep), chunk_html(wide)
    assert sys.getrecursionlimit() == limit
    assert got_deep == tree_deep(deep)
    assert got_wide == tree_deep(wide)
    assert [(c["text_content"], c["title"], c["token_count"]) for c in got_deep] == [
        ("xdeep text", "x", 2)
    ]
    assert len(got_wide) == 1 and got_wide[0]["title"] == ";" * 1499


_HEADINGS = st.sampled_from(
    [f"<h{i}>" for i in range(1, 7)] + [f"</h{i}>" for i in range(1, 7)]
)
_SENTENCE = st.sampled_from(
    ["One sentence here. ", "Another one follows. ", words(150) + ". ", words(300)]
)
_STRUCTURE = st.sampled_from(
    [
        "<html>", "</html>", "<body>", "</body>", "<head>", "</head>",
        "<title>", "</title>", "<meta name=x>", "<summary>", "</summary>",
        "<div class=blocks>", "<div class='x blocks'>", "<section parent>",
        "<div class=blocks processed>", "<div class=blocks title=T>",
        "<h2 class=blocks>", "<body class=blocks>", "<body title=bt>",
    ]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_CHUNK, _HEADINGS, _SENTENCE), max_size=40))
def test_random_soup_matches_tree_chunker(parts):
    assert_same("".join(parts))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_CHUNK, _HEADINGS, _SENTENCE, _STRUCTURE), max_size=40))
def test_random_structure_soup_matches_tree_chunker(parts):
    assert_same("".join(parts))


@pytest.mark.parametrize("pad", [0, 28_000])
def test_bench_pages_match_tree_chunker(pad):
    from louis_crawler_legacy_ray.sources.pages import (
        pages_from_documents,
        synth_documents,
    )

    docs = synth_documents(16, seed=7)
    pages = pages_from_documents(docs, pad_bytes=pad, n_children=8, n_hosts=64)
    enc = Encoder()
    for url, html in zip(pages["url"].to_pylist(), pages["html"].to_pylist()):
        content = extract_page(url, html.decode(), now=0)["html_content"]
        assert_same(content, enc)
