"""Run the driver-style correctness compare (queries vs DuckDB oracle)
for the whole catalog at sf0.001 — the in-repo mirror of
CORRECTNESS_r{N}.json.

The oracled queries run through ``tools/selfcheck.py``'s child-process
batches, not inside the pytest process: a Ray core abort in one query
then fails only that query (its result line carries the child's stderr
tail), not the whole test run."""

import os
import sys

import pytest

# the checkout this file belongs to (not whichever one is installed)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from tools.selfcheck import run_batches, to_pandas  # noqa: E402

SF = "/root/testdata/sf0.001"


def _names():
    from louis_crawler_legacy_ray.pipelines.queries import ORACLE_SQL

    return sorted(ORACLE_SQL)


@pytest.fixture(scope="module")
def oracle_lines():
    return run_batches(SF, _names())


@pytest.mark.parametrize("name", _names())
def test_query_matches_oracle(name, oracle_lines):
    line = oracle_lines[name]
    assert line.startswith("OK   "), line
    rows = int(line.split(": rows=", 1)[1].split()[0])
    assert rows > 0, "oracled query must produce rows"


@pytest.fixture(scope="module")
def catalog(ray_session):
    import __ray_entry__ as entrymod

    return entrymod.queries(), entrymod.oracle_sql()


def test_rows_only_queries_produce_rows(catalog):
    queries, oracles = catalog
    for name, fn in queries.items():
        if name in oracles:
            continue
        df = to_pandas(fn(SF))
        assert len(df) > 0, name
