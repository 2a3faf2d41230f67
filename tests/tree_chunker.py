"""The tree chunker: the reference the one-pass ``chunk_html`` must
equal (tests/test_one_pass_chunk.py).

It is the hawn transform (louis/crawler/chunking.py, SURVEY §2.9) as
a composition over the mini-DOM: parse, smooth, promote a fragment to
<html><body>, wrap each heading with its trailing siblings in a block
div, then segment the blocks, caching tokens in element attrs. The
tree helpers it needs (wrap, unwrap, sibling and parent searches, the
fragment promotion) are kept here as functions; the package has no
tree chunker. It recurses, so deep or wide pages need a raised
recursion limit.
"""

from __future__ import annotations

import json
import re

from louis_crawler_legacy_ray.functions.dom import Element, Text, parse_html
from louis_crawler_legacy_ray.functions.tokenizer import Encoder

HEADERS_RE = re.compile(r"^h[1-6]$")
_WS_RE = re.compile(r"\s+")

MIN_TOKENS = 256
MAX_TOKENS = 512
SPLIT_BUCKET_TOKENS = 409  # chunking.py:100


# ---------------------------------------------------------------- tree helpers


def next_siblings_all(el: Element) -> list:
    """All following sibling nodes incl. text (soup .next_siblings)."""
    if el.parent is None:
        return []
    sibs = el.parent.children
    return list(sibs[sibs.index(el) + 1 :])


def find_next_siblings(el: Element) -> list:
    """Following sibling Elements (soup find_next_siblings)."""
    return [s for s in next_siblings_all(el) if isinstance(s, Element)]


def find_next_sibling_class(el: Element, cls: str):
    for s in next_siblings_all(el):
        if isinstance(s, Element) and s.has_class(cls):
            return s
    return None


def find_parent_class(el: Element, cls: str):
    node = el.parent
    while node is not None:
        if node.has_class(cls):
            return node
        node = node.parent
    return None


def unwrap(el: Element) -> None:
    """Replace el by its children (soup .unwrap)."""
    if el.parent is None:
        return
    idx = el.parent.children.index(el)
    kids = list(el.children)
    for k in kids:
        k.parent = el.parent
    el.parent.children[idx : idx + 1] = kids
    el.children = []
    el.parent = None


def wrap(el: Element, wrapper: Element) -> Element:
    """Wrap el in wrapper, in place (soup .wrap)."""
    parent = el.parent
    if parent is not None:
        parent.children[parent.children.index(el)] = wrapper
        wrapper.parent = parent
    el.parent = wrapper
    wrapper.children.append(el)
    return wrapper


def ensure_body(doc: Element) -> Element:
    """The <body>, synthesizing <html><body> for fragments the way
    bs4(lxml) promotes them (chunking.py:265-268): head-only tags and
    their text go to <head>."""
    body = doc.find("body")
    if body is not None:
        return body
    html_el = doc.find("html")
    if html_el is None:
        html_el = Element("html")
        for node in list(doc.children):
            html_el.append(node)
        doc.append(html_el)
    head = html_el.find("head")
    if head is None:
        head = Element("head")
        html_el.append(head)
    body = Element("body")
    for node in list(html_el.children):
        if isinstance(node, Element) and node.name in ("head", "body"):
            continue
        if isinstance(node, Element) and node.name in (
            "title", "meta", "link", "base", "style",
        ):
            head.append(node)
        else:
            body.append(node)
    html_el.append(body)
    return body


# ------------------------------------------------------------------- chunker


def smooth(el: Element) -> None:
    """Merge adjacent text-node children, recursively (soup.smooth(),
    chunking.py:267)."""
    merged: list = []
    for child in el.children:
        if isinstance(child, Text) and merged and isinstance(merged[-1], Text):
            merged[-1] = Text(merged[-1].data + child.data)
            merged[-1].parent = el
        else:
            merged.append(child)
    el.children = merged
    for child in el.children:
        if isinstance(child, Element):
            smooth(child)


def compute_tokens(block: Element, enc) -> dict:
    """Tokenize a block's text, caching in attrs (chunking.py:14-36);
    string-typed cached attrs are coerced as the reference does."""
    if "tokens" in block.attrs:
        text_content = block.attrs["text_content"]
        token_count = block.attrs["token_count"]
        if isinstance(token_count, str):
            token_count = int(token_count)
        tokens = block.attrs["tokens"]
        if isinstance(tokens, str):
            tokens = json.loads(tokens)
    else:
        text_content = _WS_RE.sub(" ", block.get_text()).strip()
        tokens = enc.encode(text_content)
        token_count = len(tokens)
        block.attrs["tokens"] = tokens
        block.attrs["token_count"] = token_count
        block.attrs["text_content"] = text_content
    title = block.attrs.get("title", "")
    return {
        "text_content": text_content,
        "tokens": list(tokens),
        "token_count": token_count,
        "title": title if isinstance(title, str) else "",
    }


def mark_parent(block: Element) -> None:
    """Flag a block and its ancestors as parents (chunking.py:38-55)."""
    if "parent" in block.attrs:
        return
    block.attrs["parent"] = True
    if block.name == "body":
        return
    if block.parent is not None:
        mark_parent(block.parent)


def mark_processed(block: Element) -> None:
    """(chunking.py:62-66)"""
    block.attrs["processed"] = True
    for child in block.find_all(lambda e: e.has_class("blocks")):
        child.attrs["processed"] = True


def group_heading_by_block(doc: Element) -> Element:
    """Wrap headings + trailing siblings into block divs
    (chunking.py:158-196). Returns the body element."""
    body = ensure_body(doc)
    cls = body.attrs.get("class", "")
    body.attrs["class"] = (cls + " blocks h0-block").strip() if isinstance(cls, str) else "blocks h0-block"
    title_el = doc.find("title")
    if title_el is not None:
        body.attrs["title"] = title_el.get_text().strip()

    # unwrap lone-header wrappers, e.g. <summary><h1>..</h1></summary>
    # (chunking.py:170-174); never unwrap structural roots
    for block in list(doc.find_all(lambda e: bool(HEADERS_RE.match(e.name)))):
        p = block.parent
        if (
            p is not None
            and p.name not in ("body", "html", "[document]")
            and not HEADERS_RE.match(p.name)
            and len(find_next_siblings(block)) == 0
        ):
            unwrap(p)

    for block in list(doc.find_all(lambda e: bool(HEADERS_RE.match(e.name)))):
        siblings = next_siblings_all(block)
        parent_div = wrap(
            block,
            Element(
                "div",
                {
                    "class": f"{block.name}-block blocks",
                    "title": block.get_text().strip(),
                },
            ),
        )
        for sibling in siblings:
            if isinstance(sibling, Element) and HEADERS_RE.match(sibling.name or ""):
                if sibling.name[1] <= block.name[1]:
                    # same-or-higher heading level terminates the block
                    break
            parent_div.append(sibling)
        if parent_div.parent is not None:
            mark_parent(parent_div.parent)
    return body


def combine_chunks_into_single_chunk(chunks: list[dict]) -> dict:
    """(chunking.py:198-218)"""
    assert len(chunks) > 0
    if len(chunks) == 1:
        return chunks[0]
    chunk = chunks[0]
    for next_chunk in chunks[1:]:
        chunk["text_content"] += "\n" + next_chunk["text_content"]
        chunk["tokens"] += next_chunk["tokens"]
        chunk["token_count"] += next_chunk["token_count"]
        if next_chunk["title"] != chunk["title"]:
            chunk["title"] += ";" + next_chunk["title"]
        assert chunk["token_count"] <= MAX_TOKENS
    return chunk


def split_chunk_into_subchunks(large_chunk: dict, enc) -> list[dict]:
    """(chunking.py:79-118)"""
    assert large_chunk["token_count"] > MAX_TOKENS
    sentence_chunks = []
    for sentence in large_chunk["text_content"].split("."):
        tokens = enc.encode(sentence)
        sentence_chunks.append(
            {
                "text_content": sentence,
                "tokens": tokens,
                "token_count": len(tokens),
                "title": large_chunk.get("title", ""),
            }
        )
    buckets: list[list[dict]] = [[]]
    bucket = buckets[0]
    bucket_size = 0
    for sc in sentence_chunks:
        if bucket_size + sc["token_count"] >= SPLIT_BUCKET_TOKENS:
            bucket = []
            buckets.append(bucket)
            bucket_size = 0
        bucket.append(sc)
        bucket_size += sc["token_count"]
    return [combine_chunks_into_single_chunk(b) for b in buckets if b]


def collect_chunks_from_block(
    block: Element, total_token_count: int, chunks: list[dict], enc
) -> None:
    """Greedy sibling packing, escalating to the parent block
    (chunking.py:120-156)."""
    if "processed" not in block.attrs:
        chunk = compute_tokens(block, enc)
        prospective_total = total_token_count + chunk["token_count"]
        if prospective_total <= MAX_TOKENS:
            chunks.append(chunk)
            mark_processed(block)
        else:
            return
    else:
        prospective_total = total_token_count
    sibling = find_next_sibling_class(block, "blocks")
    if sibling is not None:
        return collect_chunks_from_block(sibling, prospective_total, chunks, enc)
    parent_div = find_parent_class(block, "blocks")
    if parent_div is not None:
        parent_chunks: list[dict] = []
        if "title" not in parent_div.attrs:
            parent_div.attrs["title"] = ";".join(c["title"] for c in chunks)
        collect_chunks_from_block(parent_div, 0, parent_chunks, enc)
        if parent_chunks:
            chunks.clear()
            chunks.extend(parent_chunks)


def segment_blocks_into_chunks(blocks: list[Element], enc) -> list[dict]:
    """(chunking.py:220-250)"""
    all_chunks: list[dict] = []
    for block in blocks:
        if "parent" in block.attrs:
            continue
        if "processed" in block.attrs:
            continue
        chunk = compute_tokens(block, enc)
        if chunk["token_count"] <= MAX_TOKENS:
            if chunk["token_count"] >= MIN_TOKENS:
                all_chunks.append(chunk)
                mark_processed(block)
            else:
                chunks: list[dict] = []
                collect_chunks_from_block(block, 0, chunks, enc)
                if chunks:
                    all_chunks.append(combine_chunks_into_single_chunk(chunks))
        else:
            all_chunks.extend(split_chunk_into_subchunks(chunk, enc))
            mark_processed(block)
    return all_chunks


def tree_chunk_html(html: str, enc=None) -> list[dict]:
    """The tree ``chunk_html`` (chunking.py:252-276)."""
    enc = enc or Encoder()
    doc = parse_html(html)
    smooth(doc)
    body = group_heading_by_block(doc)
    blocks = [body] if body.has_class("blocks") else []
    blocks += body.find_all(lambda e: e.has_class("blocks"))
    return segment_blocks_into_chunks(blocks, enc)
