"""Golden byte-parity tests against the reference's REAL fixture corpus.

These pin the reference's own literal expectations, verbatim, over the
actual CFIA pages shipped in /root/reference/tests/responses/*.html
(1-152 KB real-world HTML with entities, conditional comments, attribute
soup) — the north-star invariant is that extracted text per url is
byte-identical to the legacy crawler's output:

  - tests/test_goldie.py:35-50   title + html_content byte prefix
  - tests/test_goldie.py:58-86   stripped_strings list of cleaned content
  - tests/test_chunking.py:70-79  EXAMPLE1 chunk title
  - tests/test_chunking.py:93-131 glossary per-chunk titles
  - tests/test_chunking.py:135-149 fragment2 exact chunk text
  - tests/test_chunking.py:151-173 wrapped.html cached-token segmentation
  - tests/test_chunking.py:175-180 summary/details min chunk size
  - tests/test_chunking.py:24-75  exact cl100k token ids (skipped unless
    tiktoken is importable — absent from this environment)

No Ray needed: these are pure-kernel tests.
"""

import os

import pytest
from tree_chunker import segment_blocks_into_chunks, smooth

from louis_crawler_legacy_ray.functions.chunking import chunk_html
from louis_crawler_legacy_ray.functions.dom import parse_html, stripped_strings
from louis_crawler_legacy_ray.functions.html_kernels import extract_page
from louis_crawler_legacy_ray.functions.tokenizer import Encoder

RESPONSES = "/root/reference/tests/responses"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(RESPONSES), reason="reference fixture corpus not present"
)


def get_html(name: str) -> str:
    with open(f"{RESPONSES}/{name}.html", encoding="utf-8") as f:
        return f.read()


# ---------------------------------------------------------------- goldie


def test_sample1_title_and_byte_prefix():
    # reference tests/test_goldie.py:35-50, literal expectations
    url = (
        "https://inspection.canada.ca/inspection-and-enforcement/"
        "enforcement-of-the-sfcr/eng/1546989322632/1547741756885"
    )
    rec = extract_page(url, get_html("1547741756885"), now=0)
    assert rec["title"] == (
        "Enforcement of the Safe Food for Canadians Regulations"
        " - Canadian Food Inspection Agency"
    )
    assert rec["url"] == url
    assert rec["html_content"].startswith(
        '<html><body><main class="container" property="mainContentOfPage"'
        ' typeof="WebPageElement"> <h1 id="wb-cont" property="name">'
        "Enforcement of the <i>Safe Food for Canadians Regulations</i>"
    )


def test_sample2_produces_item():
    # reference tests/test_goldie.py:52-56
    url = (
        "https://inspection.canada.ca/food-safety-for-industry/"
        "toolkit-for-food-businesses/understanding-the-sfcr/eng/"
        "1492029195746/1492029286734"
    )
    rec = extract_page(url, get_html("1492029286734"), now=0)
    assert rec["url"] == url
    assert rec["html_content"].startswith("<html><body><main")
    assert rec["title"]


def test_sample_organization_structure_stripped_strings():
    # reference tests/test_goldie.py:58-86, literal list
    url = (
        "https://inspection.canada.ca/about-cfia/organizational-structure/"
        "eng/1323224617636/1323224814073"
    )
    rec = extract_page(url, get_html("1323224814073"), now=0)
    doc = parse_html(rec["html_content"])
    assert stripped_strings(doc) == [
        "Organizational structure",
        "The Canadian Food Inspection Agency (CFIA) is led by its President, who reports to the Minister of Health. The CFIA has an integrated governance structure whereby all branch heads have specific accountabilities that contribute to the achievement of each of the CFIA's strategic objectives.",  # noqa: E501
        "President",
        "Executive Vice-President",
        "Chief officers",
        "Chief Veterinary Officer and Delegate to the World Organisation for Animal Health",  # noqa: E501
        "Chief Food Safety Officer",
        "Chief Plant Health Officer",
        "Chief Science Operating Officer and Science Integrity Lead",
        "Chief Scientific Data Officer",
        "Senior management structure",
        "Ministerial mandate letters",
        "Minister of Health mandate letter",
        "Minister of Agriculture and Agri-Food mandate letter",
        "Minister of Innovation, Science and Economic Development mandate letter",  # noqa: E501
    ]


# -------------------------------------------------------------- chunking

EXAMPLE1 = (
    "<html><body>"
    "<h1>high-level title</h1>"
    "<h2>second-level title</h2>"
    "<p>paragraph below second-level</p>"
    "<h2>another second-level</h2>"
    "<p>paragraph within 2nd level</p>"
    "<h3>third-level title</h3>"
    "<p>paragraph below third-level heading</p>"
    "<h1>last high-level title, sibling to the first</h1>"
    "</html></body>"
)


def test_chunking_example1_title():
    # reference tests/test_chunking.py:70-79 (token ids covered by the
    # tiktoken-gated test below)
    chunks = chunk_html(EXAMPLE1)
    assert chunks[0]["title"] == (
        "high-level title;last high-level title, sibling to the first"
    )


def test_chunking_sample1_runs():
    # reference tests/test_chunking.py:81-91
    chunks = chunk_html(get_html("1547741756885"))
    assert chunks
    assert all(c["token_count"] <= 512 for c in chunks)


def test_chunking_glossary_titles():
    # reference tests/test_chunking.py:93-131, literal sorted-unique list
    chunks = chunk_html(get_html("1430250287405"))
    assert sorted(set(c["title"] for c in chunks)) == [
        "A", "B", "C", "D", "E", "F", "G", "I", "L", "M", "N", "O", "P",
        "Q", "R", "S", "T", "V", "Z", "À retenir",
    ]


def test_chunking_fragment2_exact_text():
    # reference tests/test_chunking.py:135-149, literal chunk text
    chunks = chunk_html(get_html("fragment2"))
    assert chunks[0]["text_content"] == (
        "Z Zoonose (Zoonosis) Le terme « zoonose » n'est pas employé dans la "
        "Loi sur la salubrité des aliments au Canada ni dans le Règlement sur "
        "la salubrité des aliments au Canada. En général, le terme « zoonose » "
        "indique infection ou maladie pouvant être transmise entre les animaux "
        "et les humains."
    )
    assert chunks[0]["title"] == "Glossary"


def test_block_by_heading_wrapped():
    # reference tests/test_chunking.py:151-173 — wrapped.html caches
    # token counts in HTML attributes, so the expected segmentation is
    # tokenizer-independent and asserted verbatim
    doc = parse_html(get_html("wrapped"))
    smooth(doc)
    blocks = doc.find_all(lambda e: e.has_class("blocks"))
    chunks = segment_blocks_into_chunks(blocks, Encoder())
    assert [
        {
            "text_content": c["text_content"],
            "tokens": c["tokens"],
            "token_count": c["token_count"],
            "title": c["title"],
        }
        for c in chunks
    ] == [
        {
            "text_content": "h1a\nh2a",
            "tokens": [],
            "token_count": 510,
            "title": "high-level title;second-level title",
        },
        {
            "text_content": "h2b",
            "tokens": [],
            "token_count": 512,
            "title": "second-level title b",
        },
        {
            "text_content": "h2c",
            "tokens": [],
            "token_count": 510,
            "title": "third-level title;third-level title",
        },
        {
            "text_content": "h1a",
            "tokens": [],
            "token_count": 255,
            "title": "last high-level title, sibling to the first",
        },
    ]


def test_chunking_summary_details_min_size():
    # reference tests/test_chunking.py:175-180
    chunks = chunk_html(get_html("1648871138011"))
    assert chunks
    for c in chunks:
        assert c["token_count"] > 32, f"{c['text_content']} is too short"


# reference tests/test_chunking.py:24-61 — exact cl100k_base token ids.
# tiktoken is not installed in this sandbox; the test runs (and must
# pass) wherever it is.
EXPECTED_TOKENS = [
    12156, 11852, 2316, 5686, 11852, 2316, 28827, 3770, 2132, 11852,
    43063, 2132, 11852, 28827, 2949, 220, 17, 303, 2237, 32827, 11852,
    2316, 28827, 3770, 4948, 11852, 14836, 4354, 1579, 11852, 2316, 11,
    45323, 311, 279, 1176,
]


def test_chunking_example1_cl100k_token_ids():
    tiktoken = pytest.importorskip("tiktoken")
    enc = tiktoken.get_encoding("cl100k_base")

    class Cl100kEncoder:
        def encode(self, text):
            return enc.encode(text)

    chunks = chunk_html(EXAMPLE1, Cl100kEncoder())
    assert chunks[0]["tokens"] == EXPECTED_TOKENS


# ------------------------------------------------- serializer round-trip


def test_entity_escaping_round_trip():
    # convert_charrefs decodes '&amp;' to '&' at parse time; bs4's
    # minimal formatter re-escapes on output (ADVICE.md r1) — cleaned
    # content must re-escape or the chunker's re-parse corrupts it
    html = (
        '<html><body><main class="container">'
        "<p>Fish &amp; Chips &lt;tasty&gt; M&amp;M</p>"
        '<a href="/x?a=1&amp;b=2" title="say &quot;hi&quot;">link</a>'
        "</main></body></html>"
    )
    rec = extract_page("http://h/x", html, now=0)
    content = rec["html_content"]
    assert "Fish &amp; Chips &lt;tasty&gt; M&amp;M" in content
    assert 'href="/x?a=1&amp;b=2"' in content
    # value contains '"' and no "'": bs4 switches to single quotes
    assert "title='say \"hi\"'" in content
    # round-trip: re-parse must give back the same text
    doc = parse_html(content)
    assert "Fish & Chips <tasty> M&M" in doc.get_text()


def test_escaped_markup_does_not_become_live_tags():
    html = (
        "<html><body><main>"
        "<p>use &lt;script&gt;alert(1)&lt;/script&gt; carefully</p>"
        "</main></body></html>"
    )
    rec = extract_page("http://h/x", html, now=0)
    assert "<script>" not in rec["html_content"]
    assert "&lt;script&gt;" in rec["html_content"]
    # and chunking the cleaned content sees the text, not a tag
    chunks = chunk_html(rec["html_content"])
    assert any("alert(1)" in c["text_content"] for c in chunks)


def test_nbsp_collapses_like_reference():
    # &nbsp; -> \xa0 -> collapsed by re.sub(r'\s+',' ') on both sides
    html = "<html><body><main><p>a&nbsp;&nbsp;b</p></main></body></html>"
    rec = extract_page("http://h/x", html, now=0)
    assert "<p>a b</p>" in rec["html_content"]
