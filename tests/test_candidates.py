"""Candidate induction from in-block examples (§4.4.2)."""
import pytest

from repro.core.blocking import BK, with_block_key
from repro.core.candidates import (
    induce_attr_candidates,
    sample_examples,
    scaled_support,
)
from repro.core.functions import Identity, Scale
from repro.core.state import UNDECIDED, SearchState

from .util import make_problem

ATTRS = ["g", "v"]
# every source v is 1000x its target counterpart within the same g-block;
# 7*(i+1) keeps values from being round thousands, so division is the only
# cheap function explaining all pairs (canonical formatting via str()).
SRC = [(str(i % 4), str(7000 * (i + 1))) for i in range(40)]
TGT = [(str(i % 4), str(7 * (i + 1))) for i in range(40)]


@pytest.fixture(scope="module")
def keyed(spark):
    p = make_problem(spark, ATTRS, SRC, TGT)
    st = SearchState((Identity(), UNDECIDED))
    s = with_block_key(p.source, st, p.attrs, is_source=True).cache()
    t = with_block_key(p.target, st, p.attrs, is_source=False).cache()
    return p, s, t


def test_sample_examples_collects_block_values(keyed):
    _, s, t = keyed
    sample = sample_examples(s, t, ["v"], k=10, seed=1)
    assert len(sample.targets) == 10
    for tr in sample.targets:
        assert tr[BK] in sample.block_source_values
        assert sample.block_source_values[tr[BK]]["v"]


def test_sample_examples_empty_when_no_mixed_blocks(spark):
    p = make_problem(spark, ["a"], [("x",)], [("y",)])
    st = SearchState((Identity(),))
    s = with_block_key(p.source, st, p.attrs, is_source=True)
    t = with_block_key(p.target, st, p.attrs, is_source=False)
    sample = sample_examples(s, t, ["a"], k=5, seed=0)
    assert sample.targets == [] and sample.population == 0


def test_scaled_support():
    assert scaled_support(100, 89) == 5
    assert scaled_support(89, 89) == 5
    assert scaled_support(20, 89) == 2
    assert scaled_support(45, 89) == 3
    assert scaled_support(0, 89) == 2


def test_induce_attr_candidates_finds_scale(keyed):
    _, s, t = keyed
    sample = sample_examples(s, t, ["v"], k=40, seed=2)
    cands = induce_attr_candidates(sample, "v", min_support=5)
    funcs = [f for f, _ in cands]
    assert Scale(1.0 / 1000) in funcs
    # the true function is generated from every sampled target
    support = dict((f.signature(), n) for f, n in cands)
    assert support[Scale(1.0 / 1000).signature()] == len(sample.targets)


def test_induce_attr_candidates_support_filter(keyed):
    _, s, t = keyed
    sample = sample_examples(s, t, ["v"], k=40, seed=2)
    cands = induce_attr_candidates(sample, "v", min_support=10_000)
    assert cands == []


def test_induce_attr_candidates_max_candidates(keyed):
    _, s, t = keyed
    sample = sample_examples(s, t, ["v"], k=40, seed=2)
    cands = induce_attr_candidates(sample, "v", min_support=1, max_candidates=3)
    assert len(cands) <= 3

