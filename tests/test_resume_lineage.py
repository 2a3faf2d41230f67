"""Resume guards: a shard restored from its checkpoint tables admits
exactly what the live shard would (every seen-filter mode), and the
lineage hash refuses a resume under a different robots.txt map."""

import pyarrow as pa
import pytest
import ray

from louis_crawler_legacy_ray.pipelines.crawl import CrawlConfig, config_hash
from louis_crawler_legacy_ray.state.seen import FrontierShard

URL = "http://a.ca/x"


@pytest.mark.parametrize("mode", ["exact", "approx", "cuckoo"])
def test_retrying_url_is_not_readmitted_after_load(ray_session, mode):
    cfg = CrawlConfig(mode=mode, max_retries=2)
    live = FrontierShard.remote(0, cfg)
    ray.get(live.enqueue.remote(pa.array([URL]), pa.array([0]), pa.array(["a.ca"])))
    ray.get(live.take.remote(0))
    # nothing recorded as fetched: the URL waits out its backoff
    stats, _part = live.finish_round.options(num_returns=2).remote(0, None)
    assert ray.get(stats)["retried"] == 1
    restored = FrontierShard.remote(0, cfg)
    ray.get(restored.load.remote(ray.get(live.dump.remote())))
    for shard in (live, restored):
        # rediscovered while still in its backoff slot
        added = ray.get(
            shard.enqueue.remote(pa.array([URL]), pa.array([1]), pa.array(["a.ca"]))
        )
        counts = ray.get(shard.counts.remote())
        assert (added, counts["pending"], counts["retrying"]) == (0, 0, 1)


def _robots(rule: str) -> dict:
    return {"a.ca": f"User-agent: *\nDisallow: {rule}\n"}


def test_config_hash_covers_obeyed_robots_bodies():
    seeds = ["http://a.ca/"]
    x = CrawlConfig(obey_robots=True, robots_txt_by_host=_robots("/x"))
    y = CrawlConfig(obey_robots=True, robots_txt_by_host=_robots("/y"))
    assert config_hash(x, seeds) != config_hash(y, seeds)
    # unobeyed bodies change nothing, and such hashes stay what
    # existing checkpoints recorded
    plain = CrawlConfig(robots_txt_by_host=_robots("/x"))
    assert config_hash(plain, seeds) == config_hash(CrawlConfig(), seeds)
    assert config_hash(CrawlConfig(), seeds) == "c73d23012b26d3b9"
