"""The one-copy html pull (stages/extract.py ``html_strs``): binary
html read out of an Arrow block as str must equal
``bytes.decode("utf-8", errors="replace")`` row for row, valid UTF-8
or not, and a crawl over a page whose bytes are not UTF-8 extracts it
from exactly that string."""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from louis_crawler_legacy_ray.functions.html_kernels import extract_page
from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig, run_crawl
from louis_crawler_legacy_ray.stages.extract import extract_batch, html_strs

ROWS = [
    b"<p>ok</p>",
    b"<p>caf\xc3\xa9</p>",
    b"<p>lone \xff byte</p>",
    b"",
    None,
    b"surrogate \xed\xa0\x80",
    b"overlong \xc0\xaf",
    b"above U+10FFFF \xf4\x90\x80\x80",
    b"cut \xe2\x82",
    b"<p>fine again</p>",
]


def _want(rows):
    return [None if b is None else b.decode("utf-8", errors="replace") for b in rows]


@pytest.mark.parametrize("typ", [pa.binary(), pa.large_binary()])
@pytest.mark.parametrize(
    "rows", [None, [2], [0, 1, 2, 3], [1, 2, 5, 6, 9], [0, 4, 8], [7, 8, 9]]
)
def test_html_strs_equals_replace_decode(typ, rows):
    col = pa.array(ROWS, typ)
    want = _want(ROWS if rows is None else [ROWS[i] for i in rows])
    idx = None if rows is None else np.array(rows)
    assert html_strs(col, idx) == want
    chunked = pa.chunked_array([col.slice(0, 3), col.slice(3, 4), col.slice(7)])
    assert html_strs(chunked, idx) == want


def test_html_strs_string_column():
    vals = ["<p>a</p>", None, "é"]
    assert html_strs(pa.array(vals, pa.string())) == vals
    assert html_strs(pa.array(vals, pa.string()), np.array([2, 0])) == ["é", "<p>a</p>"]


def test_extract_batch_decodes_invalid_utf8_with_replacement():
    urls = [f"http://a.ca/p{i}" for i in range(3)]
    htmls = [b"<title>t\xff</title><p>x</p>", b"<p>ok</p>", b"<p>\xed\xa0\x80</p>"]
    items = extract_batch(pa.table({"url": urls, "html": pa.array(htmls, pa.binary())}))
    for row, url, raw in zip(items.to_pylist(), urls, htmls):
        rec = extract_page(url, raw.decode("utf-8", errors="replace"), now=0)
        assert row["title"] == rec["title"]
        assert row["html_content"] == rec["html_content"]


def test_crawl_extracts_invalid_utf8_page_from_replacement_decode(ray_session, tmp_path):
    pages = {
        "http://a.ca/root": b'<a href="/good">g</a><a href="/bad">b</a><a href="/also">a</a>',
        "http://a.ca/good": b"<title>good</title><p>fine</p>",
        "http://a.ca/bad": (
            b"<title>caf\xe9 \xff</title><main><p>bad \xed\xa0\x80 bytes</p>"
            b'<a href="/leaf">leaf \xc0\xaf</a></main>'
        ),
        "http://a.ca/also": b"<title>also</title><p>caf\xc3\xa9</p>",
        "http://a.ca/leaf": b"<p>leaf</p>",
    }
    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(
        pa.table({"url": list(pages), "html": pa.array(list(pages.values()), pa.binary())}),
        str(d / "part0.parquet"),
    )
    out = str(tmp_path / "out")
    res = run_crawl(
        str(d),
        ["http://a.ca/root"],
        CrawlConfig(n_shards=2, max_depth=4, max_rounds=8),
        out_dir=out,
    )
    files = glob.glob(f"{out}/crawl_items/round=*/part-*.parquet")
    items = {r["url"]: r for r in pa.concat_tables([pq.read_table(f) for f in files]).to_pylist()}
    assert sorted(items) == sorted(pages)
    assert res.counts["seen"] == len(pages)
    for url, raw in pages.items():
        rec = extract_page(url, raw.decode("utf-8", errors="replace"), now=0)
        got = items[url]
        for k in ("title", "lang", "html_content", "children", "links", "last_updated"):
            assert got[k] == rec[k], (url, k)
    assert "�" in items["http://a.ca/bad"]["title"]
