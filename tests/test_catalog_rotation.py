"""Catalog-rotation gate property (VERDICT r4 ask #2).

The driver's correctness gate samples the FIRST 50 entries of
``__ray_entry__.queries()``. Rounds 1–4 gated 141 unique names; this
round's rotation must put exactly the never-gated queries in front so
CORRECTNESS_r05 certifies them externally (cumulative coverage
191/197). This test pins the property against the committed
CORRECTNESS_r0{1..4}.json files, so a future reorder that silently
re-gates already-covered names fails loudly.
"""

import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_first_50_are_never_gated_and_oracle_heavy():
    import sys

    sys.path.insert(0, REPO)
    import __ray_entry__ as e

    gated = set()
    for r in (1, 2, 3, 4):
        path = os.path.join(REPO, f"CORRECTNESS_r0{r}.json")
        gated |= set(json.load(open(path)).keys())

    qs = list(e.queries().keys())
    osql = set(e.oracle_sql().keys())
    first50 = qs[:50]
    never_gated = [q for q in first50 if q not in gated]
    assert never_gated == first50, (
        "prefix contains already-gated queries: "
        f"{sorted(set(first50) - set(never_gated))}"
    )
    # 47 oracled + 3 rows-only-with-self-checks
    assert sum(q in osql for q in first50) == 47
    assert [q for q in first50 if q not in osql] == [
        "bpe_encode",
        "pq_topk",
        "ivfpq_topk",
    ]
    # catalog integrity: every query unique, oracle keys subset
    assert len(qs) == len(set(qs)) == 194
    assert osql <= set(qs)
