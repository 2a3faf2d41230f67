"""Chunker tests, mirroring the reference's test styles
(tests/test_chunking.py): exact small-doc behavior, title ';' joins,
heading-block grouping, oversized-section sentence splitting, and the
<=512 invariant as a property test."""

import re

from tree_chunker import group_heading_by_block, smooth

from louis_crawler_legacy_ray.functions.chunking import (
    MAX_TOKENS,
    MIN_TOKENS,
    chunk_html,
)
from louis_crawler_legacy_ray.functions.dom import parse_html
from louis_crawler_legacy_ray.functions.tokenizer import Encoder

ENC = Encoder()


def words(n, base="word"):
    return " ".join(f"{base}{i}" for i in range(n))


def test_small_doc_single_chunk_with_title():
    html = "<html><head><title>Small doc</title></head><body><p>tiny text</p></body></html>"
    chunks = chunk_html(html)
    assert len(chunks) == 1
    assert chunks[0]["text_content"] == "tiny text"
    assert chunks[0]["title"] == "Small doc"
    assert chunks[0]["tokens"] == ENC.encode("tiny text")
    assert chunks[0]["token_count"] == len(chunks[0]["tokens"])


def test_heading_blocks_and_title_joins():
    # two small h2 sections under an h1 — all pack into one chunk whose
    # title is the ';'-join of the section titles (chunking.py:151)
    html = (
        "<html><head><title>Page</title></head><body>"
        "<h1>Main</h1><p>intro one two three</p>"
        "<h2>First</h2><p>alpha beta gamma</p>"
        "<h2>Second</h2><p>delta epsilon zeta</p>"
        "</body></html>"
    )
    chunks = chunk_html(html)
    assert len(chunks) == 1
    c = chunks[0]
    assert "intro one two three" in c["text_content"]
    assert "alpha beta gamma" in c["text_content"]
    assert "delta epsilon zeta" in c["text_content"]
    assert c["token_count"] <= MAX_TOKENS


def test_lone_header_wrapper_unwrapped():
    # <summary><h1>..</h1></summary> unwrap path (chunking.py:170-174)
    html = (
        "<html><body><details><summary><h1>Wrapped</h1></summary>"
        "<p>content after</p></details></body></html>"
    )
    doc = parse_html(html)
    smooth(doc)
    group_heading_by_block(doc)
    h1div = doc.find(lambda e: e.name == "div" and "h1-block" in e.classes())
    assert h1div is not None
    assert h1div.attrs["title"] == "Wrapped"
    # the summary wrapper is gone
    assert doc.find("summary") is None


def test_oversized_block_sentence_split():
    # one giant paragraph > 512 tokens of '.'-separated sentences
    sentences = ". ".join(words(12, f"s{i}w") for i in range(80)) + "."
    html = f"<html><body><p>{sentences}</p></body></html>"
    chunks = chunk_html(html)
    assert len(chunks) > 1
    for c in chunks:
        assert c["token_count"] <= MAX_TOKENS
    # bucket target: each chunk except the last should be near 409
    for c in chunks[:-1]:
        assert c["token_count"] >= 200


def test_perfect_sized_block_emitted_as_is():
    body = words(140)  # each "wordN" is ~2 tokens -> ~280, between 256 and 512
    html = f"<html><body><h1>T</h1><p>{body}</p></body></html>"
    chunks = chunk_html(html)
    assert len(chunks) == 1
    n = chunks[0]["token_count"]
    assert MIN_TOKENS <= n <= MAX_TOKENS


def test_mixed_sections_invariant():
    # h1 with big section + several small h2s; every emitted chunk <=512
    big = words(600, "big")
    html = (
        "<html><head><title>Doc</title></head><body>"
        f"<h1>Big</h1><p>{'. '.join([words(15, f'x{i}') for i in range(50)])}</p>"
        "<h2>SmallA</h2><p>small a text</p>"
        "<h2>SmallB</h2><p>small b text</p>"
        f"<h3>Sub</h3><p>{big[:200]}</p>"
        "</body></html>"
    )
    chunks = chunk_html(html)
    assert chunks
    for c in chunks:
        assert c["token_count"] <= MAX_TOKENS
        assert isinstance(c["title"], str)
    # all text is preserved somewhere
    joined = " ".join(c["text_content"] for c in chunks)
    assert "small a text" in joined
    assert "small b text" in joined


def test_tokenizer_deterministic_across_instances():
    a, b = Encoder(), Encoder()
    s = "Agency food inspection, 123 rue St-Denis."
    assert a.encode(s) == b.encode(s)
    assert a.count(s) == len(a.encode(s))


def test_whitespace_normalized_in_chunk_text():
    html = "<html><body><p>a   b\n\nc</p></body></html>"
    chunks = chunk_html(html)
    assert chunks[0]["text_content"] == "a b c"
    assert not re.search(r"\s\s", chunks[0]["text_content"])
