"""A minimal mutable DOM on stdlib ``html.parser``.

bs4/lxml are not available in this environment, so this module provides
the small subset of soup functionality the reference's kernels need
(louis/crawler/spiders/goldie.py:47-61 cleaning; the chunker and the
goldie item extract read the token stream and build no tree):

  - tokenize HTML once into a sink (``feed``): start/end/data/comment
    events, the same from the fast tokenizer and from html.parser
  - parse HTML into an element tree, the tree-building sink (comments
    preserved as nodes)
  - select by tag name / css class; remove subtrees; strip comments
  - serialize back to HTML (attrs in insertion order)
  - get_text, document-order traversal

The serializer matches ``str(BeautifulSoup(..., 'lxml'))`` output rules
byte-for-byte on well-formed input (reference tests/test_goldie.py:46-50
pins the literal bytes): attributes sorted alphabetically (bs4
Tag.decode sorts attrs.items()), text re-escaped with bs4's 'minimal'
formatter (& < > only; non-ASCII such as NBSP emitted literally),
attribute values escaped + quoted via bs4's quoted_attribute_value
(prefer double quotes; single quotes when the value contains '"';
&quot; when it contains both), script/style contents emitted raw (bs4
skips entity substitution inside Script/Stylesheet strings), void
elements as ``<br/>``. Verified against the reference's real fixture
corpus in tests/test_golden_reference.py.
"""

from __future__ import annotations

from html.parser import HTMLParser

# bs4 'minimal' formatter (EntitySubstitution.substitute_xml): only
# & < > are escaped in text; quotes and non-ASCII pass through.
_TEXT_ESC = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}


def escape_text(s: str) -> str:
    if "&" in s or "<" in s or ">" in s:
        return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return s


def quote_attr(value: str) -> str:
    """bs4 EntitySubstitution.quoted_attribute_value: substitute_xml on
    the value, then pick the quote char."""
    value = escape_text(value)
    quote = '"'
    if '"' in value:
        if "'" in value:
            value = value.replace('"', "&quot;")
        else:
            quote = "'"
    return f"{quote}{value}{quote}"


def attrs_html(attrs: dict) -> str:
    """Serialized attributes of a start tag, leading space included:
    sorted by name (bs4 Tag.decode sorts attrs.items() — the reference's
    golden bytes depend on it, test_goldie.py:48: source order
    property,class,typeof serializes class,property,typeof); only
    string values are emitted."""
    if not attrs:
        return ""
    if len(attrs) == 1:  # the common case, no sort
        ((k, v),) = attrs.items()
        return f" {k}={quote_attr(v)}" if isinstance(v, str) else ""
    return "".join(
        [f" {k}={quote_attr(v)}" for k, v in sorted(attrs.items()) if isinstance(v, str)]
    )


# contents of these elements are CDATA-like: bs4 marks their strings
# Script/Stylesheet and skips entity substitution on output.
RAW_TEXT_TAGS = frozenset({"script", "style"})

VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)


class Text:
    __slots__ = ("data", "parent")

    def __init__(self, data: str):
        self.data = data
        self.parent: Element | None = None

    @property
    def name(self):  # text nodes have no tag name (mirrors soup strings)
        return None

    def serialize(self, out: list[str], raw: bool = False) -> None:
        out.append(self.data if raw else escape_text(self.data))

    def __repr__(self):
        return f"Text({self.data!r})"


class Comment:
    __slots__ = ("data", "parent")

    def __init__(self, data: str):
        self.data = data
        self.parent: Element | None = None

    @property
    def name(self):
        return None

    def serialize(self, out: list[str], raw: bool = False) -> None:
        out.append(f"<!--{self.data}-->")

    def __repr__(self):
        return f"Comment({self.data!r})"


class Element:
    __slots__ = ("name", "attrs", "children", "parent")

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        # attrs may hold non-string values (a caller may cache in them,
        # as the reference chunker caches token lists, chunking.py:14-36);
        # only string values are serialized.
        self.attrs: dict = dict(attrs) if attrs else {}
        self.children: list = []
        self.parent: Element | None = None

    # -- construction ------------------------------------------------
    def append(self, node) -> None:
        """Append node, detaching it from any previous parent (move
        semantics, like soup's PageElement.append)."""
        if node.parent is not None:
            node.parent.children.remove(node)
        node.parent = self
        self.children.append(node)

    # -- queries -----------------------------------------------------
    def classes(self) -> list[str]:
        cls = self.attrs.get("class", [])
        if isinstance(cls, str):
            return cls.split()
        return list(cls)

    def has_class(self, name: str) -> bool:
        return name in self.classes()

    def iter_elements(self):
        """All descendant Elements in document order (self excluded)."""
        for child in self.children:
            if isinstance(child, Element):
                yield child
                yield from child.iter_elements()

    def find_all(self, matcher) -> list["Element"]:
        """matcher: callable(Element) -> bool, or a tag-name string."""
        if isinstance(matcher, str):
            tag = matcher
            matcher = lambda e: e.name == tag  # noqa: E731
        return [e for e in self.iter_elements() if matcher(e)]

    def find(self, matcher):
        """First matching descendant, short-circuiting the traversal."""
        if isinstance(matcher, str):
            tag = matcher
            matcher = lambda e: e.name == tag  # noqa: E731
        for e in self.iter_elements():
            if matcher(e):
                return e
        return None

    def select_class(self, cls: str) -> list["Element"]:
        return self.find_all(lambda e: e.has_class(cls))

    # -- mutation ----------------------------------------------------
    def extract(self) -> None:
        """Remove this subtree from its parent."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None

    # -- text / serialization ---------------------------------------
    def get_text(self) -> str:
        out: list[str] = []
        self._collect_text(out)
        return "".join(out)

    def _collect_text(self, out: list[str]) -> None:
        for child in self.children:
            if isinstance(child, Text):
                out.append(child.data)
            elif isinstance(child, Element):
                child._collect_text(out)
            # comments contribute no text

    def serialize(self, out: list[str], skip_comments: bool = False) -> None:
        attrs = attrs_html(self.attrs)
        if self.name in VOID_ELEMENTS and not self.children:
            out.append(f"<{self.name}{attrs}/>")
            return
        out.append(f"<{self.name}{attrs}>")
        raw = self.name in RAW_TEXT_TAGS
        for child in self.children:
            if skip_comments and isinstance(child, Comment):
                continue
            if isinstance(child, Element):
                child.serialize(out, skip_comments)
            else:
                child.serialize(out, raw)
        out.append(f"</{self.name}>")

    def to_html(self, skip_comments: bool = False) -> str:
        out: list[str] = []
        self.serialize(out, skip_comments)
        return "".join(out)

    def inner_html(self) -> str:
        out: list[str] = []
        raw = self.name in RAW_TEXT_TAGS
        for child in self.children:
            if isinstance(child, Element):
                child.serialize(out)
            else:
                child.serialize(out, raw)
        return "".join(out)

    def __repr__(self):
        return f"<{self.name} {self.attrs.get('class', '')}>"


class _TreeBuilder:
    """Token sink that builds the Element tree :func:`parse_html`
    returns. A sink takes four events: ``start(tag, attrs, closed)``
    (tag lower-cased, attrs a name -> str dict, ``closed`` for the
    ``<x .../>`` form), ``end(tag)``, ``data(text)`` (charrefs already
    converted) and ``comment(text)``."""

    def __init__(self):
        self.root = Element("[document]")
        self.stack = [self.root]

    def start(self, tag, attrs, closed):
        el = Element(tag, attrs)
        self.stack[-1].append(el)
        if not closed and tag not in VOID_ELEMENTS:
            self.stack.append(el)

    def end(self, tag):
        # pop to the matching open tag; ignore stray end tags
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].name == tag:
                del self.stack[i:]
                return

    def data(self, data):
        if data:
            self.stack[-1].append(Text(data))

    def comment(self, data):
        self.stack[-1].append(Comment(data))


class _StdlibFeed(HTMLParser):
    """stdlib html.parser driving a token sink (the semantics oracle for
    the fast tokenizer below, and its fallback)."""

    def __init__(self, sink):
        super().__init__(convert_charrefs=True)
        self.sink = sink

    def handle_starttag(self, tag, attrs):
        self.sink.start(tag, {k: (v if v is not None else "") for k, v in attrs}, False)

    def handle_startendtag(self, tag, attrs):
        self.sink.start(tag, {k: (v if v is not None else "") for k, v in attrs}, True)

    def handle_endtag(self, tag):
        self.sink.end(tag)

    def handle_data(self, data):
        self.sink.data(data)

    def handle_comment(self, data):
        self.sink.comment(data)


class MarkupRejected(AssertionError):
    """html.parser refused the document: a malformed marked section
    such as ``<![v>`` raises in ``_markupbase.parse_marked_section``.
    An AssertionError, the type html.parser raises, so the parser's
    raise behaviour is kept; callers that skip such a page catch this
    class and nothing wider."""


def _feed_stdlib(html: str, sink):
    feed = _StdlibFeed(sink)
    try:
        feed.feed(html)
        feed.close()
    except AssertionError as e:
        raise MarkupRejected(*e.args) from e
    return sink


def parse_html_stdlib(html: str) -> Element:
    """Reference parse on stdlib html.parser (kept callable for
    differential tests)."""
    return _feed_stdlib(html, _TreeBuilder()).root


# ---------------------------------------------------------------------------
# one-shot fast tokenizer
#
# html.parser's generality — incremental feeds, updatepos line tracking,
# charref-split buffering, double-scanning every start tag — is all
# overhead when the whole document is in hand.  _fast_tokenize mirrors
# HTMLParser(convert_charrefs=True) semantics exactly (same tolerant
# regexes, same endtag/bogus-comment/CDATA/EOF-recovery behavior,
# verified by byte-parity differential tests against parse_html_stdlib
# in tests/test_fast_parser.py and by the reference-fixture goldens) in
# a single forward pass, and hands each token to a sink: the tree
# builder above, or a sink that keeps only what its caller reads (the
# goldie item sink in html_kernels and the chunk sink in chunking build
# no tree at all).  A marked section ("<![" where markup starts) and any
# input that raises go through stdlib html.parser into a fresh sink
# instead (see feed).
#
# The pass is a scan: one anchored _SCAN.match at the current position
# reads a text run and the simple start or end tag after it, and
# emits both; a tag with at most one attribute is parsed from the
# match's own groups.  Where the scan stops at a '<' that no simple
# form takes — a comment, doctype, '<?', '<![', an unquoted or
# single-quoted attribute, junk, a tag cut off by EOF, a lone '<' —
# the per-token code below handles that one token (html.parser's
# rules) and the scan resumes after it.  <script>/<style> raw text is
# read by its own close-tag search.  The match is never a search: a
# search for the next tag would rescan a long '<'-free tail per token.
# ---------------------------------------------------------------------------

import re as _re
from html import unescape as _unescape

_TAGFIND = _re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = _re.compile(
    r"((?<=[\'\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"(\'[^\']*\'|\"[^\"]*\"|(?![\'\"])[^>\s]*))?(?:\s|/(?!>))*"
)
_LOCATE_START = _re.compile(
    r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""",
    _re.VERBOSE,
)
# _SCAN's simple start tag is a plain name and only name="value"
# attributes, ASCII whitespace between them (<p>, <a href="…">, …); its
# parse is the stdlib's: a name stops where tagfind stops, and a
# double-quoted value is taken whole. The first attribute has its own
# groups; only a tag with two or more runs _SIMPLE_ATTR over the rest.
# Its simple end tag is html.parser's endtagfind. When neither form
# takes the '<', or no '<' is left, the match ends after the text run.
_SIMPLE_NAME = r"[a-zA-Z_:][-a-zA-Z0-9_:.]*"
_SCAN = _re.compile(
    r'([^<]*)(?:<(?:'
    r'([a-zA-Z][a-zA-Z0-9-]*)'
    r'(?:[ \t\n\r\f]+(' + _SIMPLE_NAME + r')="([^"]*)"'
    r'((?:[ \t\n\r\f]+' + _SIMPLE_NAME + r'="[^"]*")*))?'
    r'[ \t\n\r\f]*>'
    r'|/\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>'
    r'))?'
)
_SIMPLE_ATTR = _re.compile(r'(' + _SIMPLE_NAME + r')="([^"]*)"')
_CDATA_CLOSE = {
    t: _re.compile(r"</\s*%s\s*>" % t, _re.I) for t in RAW_TEXT_TAGS
}
_COMMENT_CLOSE = _re.compile(r"--\s*>")


class _MarkedSection(Exception):
    """Raised by the fast tokenizer at '<![': html.parser takes over."""


def _fast_tokenize(s: str, sink) -> None:
    n = len(s)
    i = 0
    start, end, data, comment = sink.start, sink.end, sink.data, sink.comment
    scan = _SCAN.match
    cdata_elem: str | None = None
    while i < n:
        if cdata_elem is not None:
            m = _CDATA_CLOSE[cdata_elem].search(s, i)
            if m is None:
                return  # unterminated CDATA content is dropped (stdlib)
            if i < m.start():
                data(s[i : m.start()])
            end(cdata_elem)
            cdata_elem = None
            i = m.end()
            continue
        m = scan(s, i)
        text, tag, aname, aval, more, etag = m.groups()
        if text:
            data(_unescape(text) if "&" in text else text)
        if tag is not None:  # simple start tag
            tag = tag.lower()
            attrs = {}
            if aname is not None:
                attrs[aname.lower()] = _unescape(aval) if "&" in aval else aval
                if more:
                    for aname, aval in _SIMPLE_ATTR.findall(more):
                        attrs[aname.lower()] = _unescape(aval) if "&" in aval else aval
            start(tag, attrs, False)
            if tag in RAW_TEXT_TAGS:
                cdata_elem = tag
            i = m.end()
            continue
        if etag is not None:  # simple end tag
            end(etag.lower())
            i = m.end()
            continue
        i = m.end()
        if i == n:
            return
        # ---- one token no simple form takes, then back to the scan ----
        nc = s[i + 1 : i + 2]
        k = -1
        if nc and (("a" <= nc <= "z") or ("A" <= nc <= "Z")):
            # ---- start tag (mirrors parse_starttag) ----
            lm = _LOCATE_START.match(s, i)
            j2 = lm.end()
            nxt = s[j2 : j2 + 1]
            if nxt == ">":
                endpos = j2 + 1
            elif nxt == "/" and s.startswith("/>", j2):
                endpos = j2 + 2
            elif nxt == "":
                endpos = -1  # EOF inside tag
            elif nxt == "/" or nxt in (
                "abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ"
            ):
                endpos = -1
            else:
                endpos = j2 if j2 > i else i + 1
            if endpos >= 0:
                tm = _TAGFIND.match(s, i + 1)
                tag = tm.group(1).lower()
                kpos = tm.end()
                attrs = {}
                while kpos < endpos:
                    am = _ATTRFIND.match(s, kpos)
                    if am is None:
                        break
                    aname, rest, aval = am.group(1, 2, 3)
                    if not rest:
                        aval = None
                    elif aval[:1] == "'" == aval[-1:] or aval[:1] == '"' == aval[-1:]:
                        aval = aval[1:-1]
                    if aval:
                        aval = _unescape(aval)
                    attrs[aname.lower()] = aval if aval is not None else ""
                    kpos = am.end()
                tail = s[kpos:endpos].strip()
                if tail == ">":
                    start(tag, attrs, False)
                    if tag in RAW_TEXT_TAGS:
                        cdata_elem = tag
                elif tail == "/>":
                    start(tag, attrs, True)
                else:
                    data(s[i:endpos])  # junk in tag: emitted raw (stdlib)
                k = endpos
        elif nc == "/":
            # ---- end tag the scan did not take (mirrors parse_endtag) ----
            gt = s.find(">", i + 1)
            if gt >= 0:
                nm = _TAGFIND.match(s, i + 2)
                if nm is None:
                    if s[i : i + 3] == "</>":
                        k = i + 3
                    else:  # bogus comment
                        comment(s[i + 2 : gt])
                        k = gt + 1
                else:
                    g2 = s.find(">", nm.end())
                    end(nm.group(1).lower())
                    k = g2 + 1  # stdlib quirk: g2 may be -1 -> k=0
                    if k <= i:
                        return  # stdlib would loop on stale rawdata
        elif s.startswith("<!--", i):
            m = _COMMENT_CLOSE.search(s, i + 4)
            if m is None:
                k = -1
            else:
                comment(s[i + 4 : m.start()])
                k = m.end()
        elif s.startswith("<![", i):
            raise _MarkedSection  # html.parser's parse_marked_section
        elif s.startswith("<?", i):
            gt = s.find(">", i + 2)
            k = -1 if gt < 0 else gt + 1  # processing instruction: no event
        elif s.startswith("<!", i):
            if s[i : i + 9].lower() == "<!doctype":
                gt = s.find(">", i + 9)
                k = -1 if gt < 0 else gt + 1  # doctype: no event
            else:  # bogus comment
                gt = s.find(">", i + 2)
                if gt < 0:
                    k = -1
                else:
                    comment(s[i + 2 : gt])
                    k = gt + 1
        elif i + 1 < n:
            data("<")
            i += 1
            continue
        else:
            data("<")  # lone '<' at EOF: flushed as text by goahead(end=1)
            return
        if k < 0:
            # EOF recovery (goahead end=1): emit through next > or <
            k = s.find(">", i + 1)
            if k < 0:
                k = s.find("<", i + 1)
                if k < 0:
                    k = i + 1
            else:
                k += 1
            data(_unescape(s[i:k]))
        i = k


def feed(html: str, make_sink):
    """Tokenize a whole document into ``make_sink()`` and return the sink.

    Fast one-shot tokenizer with stdlib-parser semantics; a document
    with a marked section ('<![' where markup starts) or one the fast
    pass fails on goes through html.parser instead, into a fresh sink
    (the fast pass has fed part of the document to the first one).
    """
    sink = make_sink()
    try:
        _fast_tokenize(html, sink)
        return sink
    except Exception:
        return _feed_stdlib(html, make_sink())


def parse_html(html: str) -> Element:
    """Parse an HTML string into a document Element (name='[document]')."""
    return feed(html, _TreeBuilder).root


def stripped_strings(root: Element) -> list[str]:
    """Non-empty stripped text nodes in document order — bs4's
    soup.stripped_strings (the reference asserts this list verbatim on
    cleaned html_content, tests/test_goldie.py:64-86)."""
    out: list[str] = []

    def _walk(el: Element) -> None:
        for c in el.children:
            if isinstance(c, Text):
                s = c.data.strip()
                if s:
                    out.append(s)
            elif isinstance(c, Element):
                _walk(c)

    _walk(root)
    return out


def strip_comments(root: Element) -> None:
    """Remove all Comment nodes under root (goldie.py:56-59)."""
    def _strip(el: Element) -> None:
        el.children = [c for c in el.children if not isinstance(c, Comment)]
        for c in el.children:
            if isinstance(c, Element):
                _strip(c)

    _strip(root)
