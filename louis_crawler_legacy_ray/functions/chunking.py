"""Heading-aware 256-512-token chunker — from-scratch reimplementation
of the reference's hawn transform (louis/crawler/chunking.py, SURVEY
§2.9), in one tokenizer pass with no DOM.

``dom.feed`` streams the document into :class:`_ChunkSink`, which keeps
the element tree as flat tables (tag, parent, text-piece span, preorder
end; attrs only where grouping reads them) and one list of text pieces.
Over those tables, with loops only (no recursion, so deep and wide
pages chunk like any other):

1. promotion (:func:`_promote`): a document with no <body> is reordered
   the way bs4(lxml) promotes a fragment (chunking.py:265-268); head-only
   tags and their text leave the body;
2. heading-block grouping (:func:`_group`, chunking.py:158-196): body
   becomes the ``blocks h0-block`` root carrying the first <title>'s
   text; lone-header wrappers (e.g. <summary><h1>) are unwrapped; each
   h1..h6 opens a block over its following siblings up to the next
   same-or-higher heading; the blocks' ancestors are flagged ``parent``.
   Each block, and each element whose class includes ``blocks``, is one
   :class:`_Block` record: title, flags, block parent, next sibling
   block and a span of text pieces;
3. leaf segmentation (:func:`_segment`, chunking.py:220-250): 256<=n<=512
   emit as-is; n<256 greedily pack following sibling blocks <=512 then
   retry at the parent block, joining titles with ';'
   (chunking.py:120-156,198-218); n>512 split on '.' sentences into
   buckets targeting 409 tokens (chunking.py:79-118, constant at :100);
4. invariant: every combined chunk <=512 tokens (chunking.py:217).

The input attrs the reference reads are honoured: ``parent``,
``processed``, ``title`` and the cached ``tokens`` / ``token_count`` /
``text_content`` (string-typed, as in the reference's wrapped.html
fixture). tests/tree_chunker.py keeps the tree composition this must
equal.
"""

from __future__ import annotations

import json
from bisect import bisect_left

from .dom import VOID_ELEMENTS, feed
from .html_kernels import normalize_ws
from .tokenizer import Encoder

MIN_TOKENS = 256
MAX_TOKENS = 512
SPLIT_BUCKET_TOKENS = 409  # chunking.py:100

_LEVEL = {f"h{i}": str(i) for i in range(1, 7)}
_HOT_TAGS = frozenset(_LEVEL) | {"body"}
_HEAD_ONLY = frozenset({"title", "meta", "link", "base", "style"})
_NO_UNWRAP = frozenset(_LEVEL) | {"body", "html", "[document]"}
_BODY, _NEW_HEAD = -2, -3  # elements the promotion adds


class _ChunkSink:
    """Token sink (see ``dom._TreeBuilder``) that keeps the element tree
    as flat tables indexed by element, the document root at 0 and the
    rest in start-tag (pre-)order: ``tags``, ``parents``, ``pstart`` /
    ``pend`` (the element's text is ``pieces[pstart:pend]``) and
    ``eend`` (its descendants are the indices below ``eend``). ``hot``
    maps the elements grouping reads to their attrs: headings, bodies,
    and the ones whose attrs carry ``class~=blocks`` or ``parent``."""

    __slots__ = (
        "tags", "parents", "pstart", "pend", "eend", "pieces", "data", "hot",
        "open_ids",
    )

    def __init__(self):
        self.tags = ["[document]"]
        self.parents = [-1]
        self.pstart = [0]
        self.pend: dict[int, int] = {}
        self.eend: dict[int, int] = {}
        self.pieces: list[str] = []
        self.data = self.pieces.append
        self.hot: dict[int, dict] = {}
        self.open_ids = [0]  # the open elements, the root first

    def start(self, tag, attrs, closed):
        tags = self.tags
        e = len(tags)
        tags.append(tag)
        self.parents.append(self.open_ids[-1])
        np = len(self.pieces)
        self.pstart.append(np)
        if tag in _HOT_TAGS or attrs and (
            "parent" in attrs or "class" in attrs and "blocks" in attrs["class"].split()
        ):
            self.hot[e] = attrs
        if closed or tag in VOID_ELEMENTS:
            self.pend[e] = np
            self.eend[e] = e + 1
        else:
            self.open_ids.append(e)

    def end(self, tag):
        open_ids, tags = self.open_ids, self.tags
        e = open_ids[-1]
        if tags[e] == tag:  # the innermost (never the root)
            open_ids.pop()
            self.pend[e] = len(self.pieces)
            self.eend[e] = len(tags)
            return
        # pop to the matching open tag; ignore stray end tags
        for i in range(len(open_ids) - 2, 0, -1):
            if tags[open_ids[i]] == tag:
                self._close(i)
                return

    def comment(self, data):
        pass  # comments are no text

    def _close(self, i: int) -> None:
        np, ne = len(self.pieces), len(self.tags)
        for e in self.open_ids[i:]:
            self.pend[e] = np
            self.eend[e] = ne
        del self.open_ids[i:]

    def close(self) -> "_ChunkSink":
        """EOF: close every open element, the root included."""
        self._close(0)
        return self


def _promote(s: _ChunkSink) -> _ChunkSink:
    """The sink of a document with no <body> after the fragment
    promotion the reference gets from bs4(lxml) (chunking.py:265-268):
    the children of the first <html> (of the root when there is none)
    go into a new <body> at its end, except its <head>s, which stay, and
    its head-only tags, which are appended to the first <head> under it
    (to a new <head> when there is none). A head-only tag that holds
    that <head> is moved into its own descendant, and the tree then
    drops all of them."""
    tags, parents, pstart, pend, eend, pieces = (
        s.tags, s.parents, s.pstart, s.pend, s.eend, s.pieces,
    )
    kids: list[list[int]] = [[] for _ in tags]
    for e in range(1, len(tags)):
        kids[parents[e]].append(e)

    def items(e: int) -> list:
        """An element's children in order: elements as ``(e,)``, runs of
        its own text pieces as ``(None, start, stop)``."""
        out, q = [], pstart[e]
        for c in kids[e]:
            if q < pstart[c]:
                out.append((None, q, pstart[c]))
            out.append((c,))
            q = pend[c]
        if q < pend[e]:
            out.append((None, q, pend[e]))
        return out

    x = tags.index("html") if "html" in tags else 0
    heads, moved, rest = [], [], []
    for it in items(x):
        tag = tags[it[0]] if it[0] is not None else None
        (heads if tag == "head" else moved if tag in _HEAD_ONLY else rest).append(it)
    try:
        head = tags.index("head", x + 1, eend[x])
    except ValueError:
        head = _NEW_HEAD
    if any(m < head < eend[m] for (m,) in moved):
        moved = []
    plan = {
        x: heads + ([(_NEW_HEAD,)] if head == _NEW_HEAD else []) + [(_BODY,)],
        _BODY: rest,
        head: (items(head) if head >= 0 else []) + moved,
    }

    out = _ChunkSink()
    stack = [(0, iter(plan[0] if 0 in plan else items(0)))]
    while stack:
        ne, it = stack[-1]
        item = next(it, None)
        if item is None:
            out.pend[ne] = len(out.pieces)
            out.eend[ne] = len(out.tags)
            stack.pop()
        elif item[0] is None:
            out.pieces.extend(pieces[item[1] : item[2]])
        else:
            c = item[0]
            k = len(out.tags)
            out.tags.append("body" if c == _BODY else "head" if c < 0 else tags[c])
            out.parents.append(ne)
            out.pstart.append(len(out.pieces))
            if c == _BODY or c in s.hot:
                out.hot[k] = s.hot.get(c, {})
            stack.append((k, iter(plan[c] if c in plan else items(c))))
    return out


class _Block:
    """One block record: a heading block (``level`` set, no ``attrs``)
    or a hot element (its input ``attrs``; ``block`` when its class
    has ``blocks``, ``stop`` when it is a <body>). ``flag`` is the
    ``parent`` attr, ``up`` the nearest record ancestor, ``dom`` the
    DOM parent (an element index, or ``-2 - i`` for heading block
    ``i``), ``succ`` the next sibling block, ``bup`` the nearest block
    ancestor, ``pieces[plo:phi]`` the text, and the records after
    ``i`` whose ``key`` is below ``close`` the subtree."""

    __slots__ = (
        "i", "key", "close", "plo", "phi", "attrs", "title", "block", "stop",
        "flag", "up", "dom", "level", "succ", "bup",
    )

    def __init__(self, i, key, plo, attrs, title, block, up, dom, level):
        self.i, self.key, self.plo, self.attrs, self.title = i, key, plo, attrs, title
        self.block, self.up, self.dom, self.level = block, up, dom, level
        self.flag = attrs is not None and "parent" in attrs
        self.stop = False
        self.close = self.phi = -1
        self.succ = self.bup = None


def _group(s: _ChunkSink) -> tuple[list[_Block], _Block]:
    """Heading-block grouping (chunking.py:158-196) over the sink's
    tables: the block records in preorder, and the body's."""
    tags, parents, pstart, pend, eend, pieces = (
        s.tags, s.parents, s.pstart, s.pend, s.eend, s.pieces,
    )
    n = len(tags)
    body = tags.index("body")

    # lone-header unwrap (chunking.py:170-174): a heading that is the
    # last element child of a non-structural parent removes that parent;
    # no unwrap changes another's decision, so all read the tree before
    unwrapped = set()
    for h in s.hot:
        p = parents[h]
        if tags[h] in _LEVEL and tags[p] not in _NO_UNWRAP:
            nxt = eend[h]
            if nxt == n or parents[nxt] != p:
                unwrapped.add(p)

    recs: list[_Block] = []
    elem_rec: dict[int, _Block] = {}
    ctx: dict[int, list[_Block]] = {}  # element -> its open heading blocks
    held: dict[int, _Block | None] = {}  # element -> record holding it

    def holder(a: int) -> _Block | None:
        """The record that holds element ``a``. The open blocks of a's
        ancestors cannot change while the walk is inside a, so the
        answer is memoized along the climb."""
        path = []
        while a not in held:
            path.append(a)
            p = parents[a]
            if p < 0:
                r = None
                break
            while p in unwrapped:
                p = parents[p]
            st = ctx.get(p)
            if st:
                r = st[-1]
                break
            r = elem_rec.get(p)
            if r is not None:
                break
            a = p
        else:
            r = held[a]
        for a in path:
            held[a] = r
        return r

    for e, a in s.hot.items():
        if e in unwrapped:
            continue  # its attrs go with it
        tag = tags[e]
        p = parents[e]
        while p in unwrapped:
            p = parents[p]
        st = ctx.get(p)
        block = "class" in a and "blocks" in a["class"].split()
        lvl = _LEVEL.get(tag)
        if lvl is not None:
            if st is None:
                st = ctx[p] = []
            while st and st[-1].level >= lvl:  # a same-or-higher heading
                d = st.pop()
                d.phi, d.close = pstart[e], 2 * e
            if st:
                up, dom = st[-1], -2 - st[-1].i
            else:
                up, dom = elem_rec.get(p) or holder(p), p
            title = "".join(pieces[pstart[e] : pend[e]]).strip()
            d = _Block(len(recs), 2 * e, pstart[e], None, title, True, up, dom, lvl)
            recs.append(d)
            st.append(d)
            # mark_parent (chunking.py:38-55): flag the ancestors up to
            # a body, stopping at one already flagged
            while up is not None and not up.flag:
                up.flag = True
                if up.stop:
                    break
                up = up.up
            if not block and "parent" not in a:
                continue  # a heading with no attrs of its own to honour
            up, dom = d, -2 - d.i
        elif st:
            up, dom = st[-1], -2 - st[-1].i
        else:
            up, dom = elem_rec.get(p) or holder(p), p
        title = a.get("title")
        if e == body:
            block = True
            if "title" in tags:
                t = tags.index("title")
                title = "".join(pieces[pstart[t] : pend[t]]).strip()
        r = _Block(len(recs), 2 * e + 1, pstart[e], a, title, block, up, dom, None)
        r.phi, r.close, r.stop = pend[e], 2 * eend[e], tag == "body"
        recs.append(r)
        elem_rec[e] = r
    for p, st in ctx.items():  # blocks still open end with their parent
        for d in st:
            d.phi, d.close = pend[p], 2 * eend[p]

    last: dict[int, _Block] = {}
    for r in reversed(recs):
        if r.block:
            r.succ = last.get(r.dom)
            last[r.dom] = r
    for r in recs:
        up = r.up
        r.bup = up if up is None or up.block else up.bup
    return recs, elem_rec[body]


def combine_chunks_into_single_chunk(chunks: list[dict]) -> dict:
    """(chunking.py:198-218) — mutates and returns chunks[0]; titles
    joined with ';' unless repeated; invariant total <= 512."""
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


def split_chunk_into_subchunks(large_chunk: dict, enc: Encoder) -> list[dict]:
    """Sentence-split an oversized leaf into ~409-token buckets
    (chunking.py:79-118)."""
    assert large_chunk["token_count"] > MAX_TOKENS
    sentences = large_chunk["text_content"].split(".")
    sentence_chunks = []
    for sentence in sentences:
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
    # guard vs the reference's latent empty-first-bucket crash when the
    # very first sentence alone exceeds the bucket target
    return [combine_chunks_into_single_chunk(b) for b in buckets if b]


def _segment(recs: list[_Block], body: _Block, pieces: list[str], enc) -> list[dict]:
    """Segmentation (chunking.py:120-156,220-250) over the records."""
    keys = [r.key for r in recs]
    processed = bytearray(r.attrs is not None and "processed" in r.attrs for r in recs)
    cache: dict[int, tuple] = {}
    encoded: dict[str, tuple] = {}  # raw block text -> (text, tokens)

    def compute(r: _Block) -> dict:
        """compute_tokens (chunking.py:14-36), memoized per record."""
        got = cache.get(r.i)
        if got is None:
            a = r.attrs
            if a is not None and "tokens" in a:
                text, count, tokens = a["text_content"], a["token_count"], a["tokens"]
                if isinstance(count, str):
                    count = int(count)
                if isinstance(tokens, str):
                    tokens = json.loads(tokens)
            else:  # a block often has its parent's text: encode it once
                raw = "".join(pieces[r.plo : r.phi])
                text_tokens = encoded.get(raw)
                if text_tokens is None:
                    text = normalize_ws(raw)
                    text_tokens = encoded[raw] = (text, enc.encode(text))
                text, tokens = text_tokens
                count = len(tokens)
            got = cache[r.i] = (text, tokens, count)
        t = r.title
        return {
            "text_content": got[0],
            "tokens": list(got[1]),
            "token_count": got[2],
            "title": t if isinstance(t, str) else "",
        }

    def mark_processed(r: _Block) -> None:
        """The record and every record under it (chunking.py:62-66)."""
        end = bisect_left(keys, r.close, r.i + 1)
        processed[r.i : end] = b"\x01" * (end - r.i)

    def collect(r: _Block, chunk: dict) -> list[dict]:
        """Pack r (whose chunk is given) and its following sibling blocks
        up to 512 tokens; at the last sibling retry at the parent block,
        whose chunks win when it yields any (chunking.py:120-156)."""
        chunks: list[dict] = []
        kept = chunks
        total = 0
        while True:
            if not processed[r.i]:
                chunk = chunk or compute(r)
                total += chunk["token_count"]
                if total > MAX_TOKENS:
                    break
                chunks.append(chunk)
                mark_processed(r)
                chunk = None
            if r.succ is not None:
                r = r.succ
                continue
            r = r.bup
            if r is None:
                break
            if r.title is None:
                r.title = ";".join(c["title"] for c in chunks)
            if chunks:
                kept = chunks
            chunks, total = [], 0
        return chunks or kept

    out: list[dict] = []
    for r in recs[body.i : bisect_left(keys, body.close, body.i + 1)]:
        if not r.block or r.flag or processed[r.i]:
            continue
        chunk = compute(r)
        if chunk["token_count"] <= MAX_TOKENS:
            if chunk["token_count"] >= MIN_TOKENS:
                out.append(chunk)
                mark_processed(r)
            else:
                chunks = collect(r, chunk)
                if chunks:
                    out.append(combine_chunks_into_single_chunk(chunks))
        else:
            out.extend(split_chunk_into_subchunks(chunk, enc))
            mark_processed(r)
    return out


def chunk_html(html: str, enc: Encoder | None = None) -> list[dict]:
    """Chunk an HTML document into 256-512-token chunks (chunking.py:
    252-276). Returns the chunk dicts (text_content, tokens,
    token_count, title)."""
    sink = feed(html, _ChunkSink).close()
    if "body" not in sink.tags:
        sink = _promote(sink)
    recs, body = _group(sink)
    return _segment(recs, body, sink.pieces, enc or Encoder())
