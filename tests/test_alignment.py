"""Random block-respecting alignments and greedy value maps (§4.3)."""
import pytest
from pyspark.sql import functions as F

from repro.core.alignment import (
    greedy_map,
    greedy_maps_bulk,
    sample_random_alignment,
)
from repro.core.blocking import BK, pair_in_blocks, with_block_key
from repro.core.functions import Identity, ValueMapping
from repro.core.state import RID, UNDECIDED, SearchState

from .util import make_problem

ATTRS = ["g", "v"]
# blocks by g: block "x" has 3/3 records, block "y" 2/1, block "z" 0/1
SRC = [("x", "a"), ("x", "a"), ("x", "b"), ("y", "c"), ("y", "c")]
TGT = [("x", "A"), ("x", "A"), ("x", "B"), ("y", "C"), ("z", "Z")]


@pytest.fixture(scope="module")
def keyed(spark):
    p = make_problem(spark, ATTRS, SRC, TGT)
    s, t = with_block_key(p, SearchState((Identity(), UNDECIDED)))
    return p, s.cache(), t.cache()


def test_alignment_respects_blocks(keyed):
    p, s, t = keyed
    aligned = sample_random_alignment(s, t, ["g", "v"], seed=7)
    rows = aligned.collect()
    # pair count per block = min(src, tgt): x -> 3, y -> 1, z -> 0
    assert len(rows) == 4
    for r in rows:
        assert r["s__g"] == r["t__g"]  # within-block pairs only


def test_alignment_deterministic_in_seed(keyed):
    _, s, t = keyed
    a1 = sorted(map(tuple, sample_random_alignment(s, t, ["v"], seed=3).collect()))
    a2 = sorted(map(tuple, sample_random_alignment(s, t, ["v"], seed=3).collect()))
    assert a1 == a2


def _pair_rids(s, t, seed):
    return pair_in_blocks(
        s.select(BK, "g", F.col(RID).alias("s_rid")),
        t.select(BK, F.col("g").alias("t_g"), F.col(RID).alias("t_rid")),
        seed,
    )


def test_pair_in_blocks_respects_blocks(keyed):
    _, s, t = keyed
    rows = _pair_rids(s, t, 7).collect()
    assert len(rows) == 4
    assert all(r["g"] == r["t_g"] for r in rows)


def test_pair_in_blocks_deterministic_in_seed(keyed):
    _, s, t = keyed
    p1 = sorted(map(tuple, _pair_rids(s, t, 3).collect()))
    p2 = sorted(map(tuple, _pair_rids(s, t, 3).collect()))
    assert p1 == p2


def test_greedy_map_argmax_cooccurrence(keyed):
    _, s, t = keyed
    aligned = sample_random_alignment(s, t, ["v"], seed=1)
    g = greedy_maps_bulk(aligned, ["v"])["v"]
    d = dict(g.entries)
    # 'a' co-occurs with 'A' twice at most once with 'B'; argmax -> 'A'
    assert d["a"] == "A"
    assert d["c"] == "C"


def test_greedy_maps_bulk_matches_single(keyed):
    """Several attributes in one pass give each attribute the map its
    one-attribute pass (the case ``greedy_map`` runs) gives."""
    _, s, t = keyed
    aligned = sample_random_alignment(s, t, ["g", "v"], seed=5).cache()
    bulk = greedy_maps_bulk(aligned, ["g", "v"])
    assert bulk["v"] == greedy_maps_bulk(aligned, ["v"])["v"]
    assert bulk["g"] == greedy_maps_bulk(aligned, ["g"])["g"]
    assert bulk["g"].entries == (("x", "x"), ("y", "y"))
    assert dict(bulk["v"].entries)["a"] == "A"
    aligned.unpersist()


def test_greedy_maps_bulk_empty():
    assert greedy_maps_bulk(None, []) == {}


def test_greedy_map_convenience(keyed):
    _, s, t = keyed
    g = greedy_map(s, t, "v", seed=11)
    assert isinstance(g, ValueMapping)
    assert dict(g.entries)["a"] == "A"


def test_greedy_map_excludes_nulls(spark):
    p = make_problem(spark, ["g", "v"], [("x", None), ("x", "a")], [("x", "A"), ("x", "B")])
    s, t = with_block_key(p, SearchState((Identity(), UNDECIDED)))
    g = greedy_map(s, t, "v", seed=0)
    assert None not in dict(g.entries)
