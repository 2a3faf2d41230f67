"""M5 playwright cleaning profile + the StagePipeline extension surface."""

import pyarrow as pa
import ray.data

from louis_crawler_legacy_ray.functions.html_kernels import (
    clean_html,
    clean_html_playwright,
    extract_page,
)
from louis_crawler_legacy_ray.pipelines.config import Stage, StagePipeline

HTML_MAIN = (
    "<html><body><nav>nav</nav><main><h1>T</h1><style>.x{}</style>"
    "<header>hdr</header><p>body text</p><div></div><footer>ft</footer>"
    "</main></body></html>"
)
HTML_ARTICLE = "<html><body><article><p>article text</p></article></body></html>"
HTML_CONTENT_DIV = '<html><body><div class="content"><p>div text</p></div></body></html>'
HTML_BARE = "<html><body><p>bare text</p></body></html>"


def test_playwright_profile_fallbacks():
    # main present: extra drops (style/header/footer) + empty div removed
    out = clean_html_playwright(HTML_MAIN)
    assert "body text" in out
    for gone in ("nav", "hdr", "ft", "style", "<div></div>"):
        assert gone not in out
    # article fallback
    assert "article text" in clean_html_playwright(HTML_ARTICLE)
    # .content fallback
    assert "div text" in clean_html_playwright(HTML_CONTENT_DIV)
    # whole-document fallback (goldie profile would return '')
    assert clean_html(HTML_BARE) == ""
    assert "bare text" in clean_html_playwright(HTML_BARE)


def test_extract_page_profile_switch():
    goldie = extract_page("http://a.ca/x", HTML_BARE)
    pw = extract_page("http://a.ca/x", HTML_BARE, profile="playwright")
    assert goldie["html_content"] == ""
    assert "bare text" in pw["html_content"]


def test_stage_pipeline_compose(ray_session):
    def add_one(b: pa.Table) -> pa.Table:
        return b.append_column("y", pa.compute.add(b["x"], 1))

    class Scaler:
        def __init__(self, factor=10):
            self.factor = factor

        def __call__(self, b: pa.Table) -> pa.Table:
            return b.append_column(
                "z", pa.compute.multiply(b["y"], self.factor)
            )

    pipe = StagePipeline(
        [
            Stage("add", add_one),
            Stage("scale", Scaler, kwargs={"factor": 10}, concurrency=1),
            lambda b: b.select(["x", "z"]),  # bare UDF hook
        ]
    )
    assert pipe.names() == ["add", "scale", "<lambda>"]
    ds = ray.data.from_arrow(pa.table({"x": pa.array([1, 2, 3], pa.int64())}))
    out = pipe.apply(ds).to_pandas()
    assert list(out["z"]) == [20, 30, 40]
    assert list(out.columns) == ["x", "z"]


def test_config_docstring_extract_stage_runs(ray_session):
    """The pipelines/config.py example stage, verbatim."""
    from louis_crawler_legacy_ray.stages.extract import extract_batch

    pipe = StagePipeline(
        [Stage("extract", extract_batch, kwargs={"profile": "playwright"})]
    )
    pages = pa.table(
        {
            "url": pa.array(["http://a.ca/x", "http://a.ca/y"], pa.string()),
            "html": pa.array([HTML_BARE, HTML_MAIN], pa.string()),
        }
    )
    out = pipe.apply(ray.data.from_arrow(pages)).to_pandas()
    got = dict(zip(out["url"], out["html_content"]))
    assert got == {
        "http://a.ca/x": clean_html_playwright(HTML_BARE),
        "http://a.ca/y": clean_html_playwright(HTML_MAIN),
    }
    assert "bare text" in got["http://a.ca/x"]
