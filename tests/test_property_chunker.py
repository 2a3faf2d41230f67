"""Property-based tests (hypothesis) for the chunker and URL kernels —
the invariants the reference's asserts pin (chunking.py:217 <=512;
order-preserving dedup; canonicalizer idempotence) under fuzzed input."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from louis_crawler_legacy_ray.functions.chunking import MAX_TOKENS, chunk_html
from louis_crawler_legacy_ray.functions.html_kernels import clean_html, normalize_ws
from louis_crawler_legacy_ray.functions.urls import extract_children, fix_vhost

words = st.lists(
    st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=8),
    min_size=0,
    max_size=120,
)


def _para(ws):
    return " ".join(ws)


# 6 x <h1>Sec1</h1><p>{120 words}.</p>: four sections pack into one
# '\n'-joined chunk and the last two into another
_PACKED = [(1, ["abc"] * 120)] * 6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    sections=st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), words), min_size=0, max_size=6
    ),
    title=st.text(alphabet="abc XYZ", max_size=30),
)
@example(sections=_PACKED, title="")
def test_chunker_invariants(sections, title):
    body = "".join(
        f"<h{lvl}>Sec{lvl}</h{lvl}><p>{_para(ws)}.</p>" for lvl, ws in sections
    )
    html = f"<html><head><title>{title}</title></head><body>{body}</body></html>"
    chunks = chunk_html(html)
    for c in chunks:
        # the reference's hard invariant: combined chunks never exceed 512
        assert c["token_count"] <= MAX_TOKENS
        assert c["token_count"] == len(c["tokens"])
        assert isinstance(c["title"], str)
        # packed blocks and split sentences are '\n'-joined; each part is
        # a whitespace-normalized block text, or a sentence that keeps
        # the space after its '.'
        for part in c["text_content"].split("\n"):
            assert part.strip() == normalize_ws(part)


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=200))
def test_fix_vhost_idempotent(url):
    assert fix_vhost(fix_vhost(url)) == fix_vhost(url)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.text(alphabet="ab/#:mailto.xyz", min_size=0, max_size=20), max_size=20
    )
)
def test_children_dedup_properties(hrefs):
    out = extract_children(hrefs, "http://a.ca/base")
    assert len(out) == len(set(out))  # exact dedup
    # order preservation: first occurrences keep relative order
    seen = []
    for o in out:
        assert o not in seen
        seen.append(o)


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="<>ab c/=\"'p!-", max_size=300))
def test_clean_html_total(garbage):
    # the cleaner never raises on arbitrary input and output is
    # whitespace-normalized
    out = clean_html(garbage)
    assert out == normalize_ws(out)
