"""Random block-respecting alignments and greedy value maps (§4.3)."""
import pytest

from repro.core.alignment import (
    greedy_map,
    greedy_maps_bulk,
    sample_random_alignment,
)
from repro.core.blocking import with_block_key
from repro.core.functions import Identity, ValueMapping
from repro.core.state import UNDECIDED, SearchState

from .util import make_problem

ATTRS = ["g", "v"]
# blocks by g: block "x" has 3/3 records, block "y" 2/1, block "z" 0/1
SRC = [("x", "a"), ("x", "a"), ("x", "b"), ("y", "c"), ("y", "c")]
TGT = [("x", "A"), ("x", "A"), ("x", "B"), ("y", "C"), ("z", "Z")]


@pytest.fixture(scope="module")
def keyed(spark):
    p = make_problem(spark, ATTRS, SRC, TGT)
    st = SearchState((Identity(), UNDECIDED))
    s = with_block_key(p.source, st, p.attrs, is_source=True).cache()
    t = with_block_key(p.target, st, p.attrs, is_source=False).cache()
    return p, s, t


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
    st = SearchState((Identity(), UNDECIDED))
    s = with_block_key(p.source, st, p.attrs, is_source=True)
    t = with_block_key(p.target, st, p.attrs, is_source=False)
    g = greedy_map(s, t, "v", seed=0)
    assert None not in dict(g.entries)
