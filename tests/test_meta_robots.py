"""Page-level <meta name=robots> directives (obey_meta_robots): the
parse kernel, the vectorized nofollow candidate suppression in the
control builder, and off-by-default behavior. The full crawl schedule
plus the noindex items flag are hash-gated by the crawl_meta_robots
oracle; these pin the pieces."""

import pyarrow as pa

from louis_crawler_legacy_ray.functions.html_kernels import meta_robots
from louis_crawler_legacy_ray.pipelines.crawl import RoundPolicy, _control_from_items


def test_meta_robots_kernel():
    assert meta_robots("<html><head></head></html>") == ""
    assert meta_robots('<meta name="robots" content="noindex">') == "noindex"
    assert (
        meta_robots('<meta name="robots" content="NOINDEX, NOFOLLOW">')
        == "noindex,nofollow"
    )
    # 'none' means both (de-facto Googlebot/Scrapy reading)
    assert meta_robots("<meta name='robots' content='none'>") == "noindex,nofollow"
    # attribute order swapped
    assert (
        meta_robots('<meta content="nofollow" name="robots">') == "nofollow"
    )
    # unrelated meta tags don't match
    assert meta_robots('<meta name="viewport" content="nofollow">') == ""


def _items(meta):
    return pa.table(
        {
            "url": pa.array(["http://a.example/p"], pa.string()),
            "depth": pa.array([0], pa.int32()),
            "links": pa.array([["http://a.example/c1", "http://a.example/c2"]],
                              pa.list_(pa.string())),
            "meta_robots": pa.array([meta], pa.string()),
        }
    )


def test_nofollow_suppresses_candidates_only_when_obeyed():
    obey = RoundPolicy(n_shards=1, max_depth=6, obey_meta_robots=True)
    on = _control_from_items(_items("noindex,nofollow"), obey)
    assert on.filter(pa.compute.equal(on["kind"], "c")).num_rows == 0
    assert on.filter(pa.compute.equal(on["kind"], "f")).num_rows == 1
    # noindex alone never touches the frontier
    ni = _control_from_items(_items("noindex"), obey)
    assert ni.filter(pa.compute.equal(ni["kind"], "c")).num_rows == 2
    # flag off: directives in the corpus are inert
    off = _control_from_items(
        _items("noindex,nofollow"), RoundPolicy(n_shards=1, max_depth=6)
    )
    assert off.filter(pa.compute.equal(off["kind"], "c")).num_rows == 2
