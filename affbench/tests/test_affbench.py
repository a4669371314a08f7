"""The benchmark's own tests: span arithmetic, result checks, name
restoration and seed-only-permutes. None of them starts Spark."""
import sys
import types

import numpy as np
import pandas as pd
import pytest

import run
from checks import check_explanation
from repro.core import RID, Explanation, Identity, Uppercasing
from spans import SEARCH_LAYERS, Recorder, Span, covered, instrument, self_times
from workloads import WORKLOADS, permute


def test_covered_merges_overlapping_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered([(1, 3), (2, 5)], 2.5, 4) == pytest.approx(1.5)
    assert covered([(5, 6)], 0, 4) == 0
    assert covered([], 0, 4) == 0


def test_self_times_nested_and_overlapping():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union counts once
        Span("a.inner", 1.5, 2.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10 - (5 + 1))
    assert st[1] == pytest.approx(3 - 0.5)
    assert st[2] == pytest.approx(3)
    assert st[3] == pytest.approx(0.5)
    assert st[4] == pytest.approx(3)


def test_self_times_of_a_sequential_tree_sum_to_the_root():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 0.5, 4.0, parent=0),
        Span("a.x", 1.0, 2.0, parent=1),
        Span("b", 4.0, 9.5, parent=0),
    ]
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_recorder_nests_spans_and_restores_job_groups():
    groups = []
    rec = Recorder(groups.append, prefix="g")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner.parent == 0 and outer.parent is None
    assert groups == ["g-0", "g-1", "g-0", None]
    assert outer.start <= inner.start <= inner.end <= outer.end


def _problem_frames():
    attrs = ["k", "u"]
    source = pd.DataFrame({"k": ["a", "b", "c"], "u": ["x", "y", "z"], RID: [0, 1, 2]})
    target = pd.DataFrame({"k": ["a", "b", "d"], "u": ["X", "Y", "W"], RID: [0, 1, 2]})
    expl = Explanation(
        functions=(Identity(), Uppercasing()),
        n_attrs=2,
        core_size=2,
        n_deleted=1,
        n_inserted=1,
    )
    pairs = pd.DataFrame({"s_rid": [0, 1], "t_rid": [0, 1]})
    return attrs, source, target, expl, pairs


def _check(expl, pairs, source, target, attrs, reached_end=True, trivial=6.0):
    # 6.0 = 2 * alpha * |A| * |T|, the trivial explanation's cost here
    return check_explanation(
        expl, pairs, source, target, attrs,
        trivial_cost=trivial, reached_end=reached_end,
    )


def test_checks_accept_a_valid_explanation():
    attrs, source, target, expl, pairs = _problem_frames()
    assert _check(expl, pairs, source, target, attrs) == []


def test_checks_reject_a_swapped_core_pair():
    attrs, source, target, expl, pairs = _problem_frames()
    swapped = pd.DataFrame({"s_rid": [0, 1], "t_rid": [1, 0]})
    causes = _check(expl, swapped, source, target, attrs)
    assert any("attribute k" in c for c in causes)
    assert any("attribute u" in c for c in causes)


def test_checks_reject_a_wrong_function():
    attrs, source, target, expl, pairs = _problem_frames()
    wrong = Explanation((Identity(), Identity()), 2, 2, 1, 1)
    causes = _check(wrong, pairs, source, target, attrs)
    assert causes == ["F(s) != t on attribute u for 2 core pairs"]


def test_checks_reject_repeats_counts_cost_and_missing_end_state():
    attrs, source, target, expl, pairs = _problem_frames()
    repeated = pd.DataFrame({"s_rid": [0, 0], "t_rid": [0, 1]})
    assert any("s_rid" in c for c in _check(expl, repeated, source, target, attrs))
    miscounted = Explanation(expl.functions, 2, 2, 0, 1)
    assert any("|S|" in c for c in _check(miscounted, pairs, source, target, attrs))
    causes = _check(expl, pairs, source, target, attrs, trivial=expl.cost() - 1)
    assert any("trivial cost" in c for c in causes)
    causes = _check(expl, pairs, source, target, attrs, reached_end=False)
    assert any("no end state" in c for c in causes)


def test_instrument_restores_every_wrapped_name():
    import importlib

    before = {
        (m, a): getattr(importlib.import_module(m), a) for _, m, a in SEARCH_LAYERS
    }
    rec = Recorder(lambda g: None, prefix="t")
    with pytest.raises(RuntimeError):
        with instrument(rec):
            for (m, a), fn in before.items():
                assert getattr(sys.modules[m], a) is not fn
                assert getattr(sys.modules[m], a).__wrapped__ is fn
            raise RuntimeError("search failed")
    for (m, a), fn in before.items():
        assert getattr(sys.modules[m], a) is fn


def test_instrument_records_one_span_per_call_with_counts():
    mod = types.ModuleType("fake_layer_module")
    mod.induce = lambda sample, attr: [1, 2, 3]
    sys.modules[mod.__name__] = mod
    try:
        rec = Recorder(lambda g: None, prefix="t")
        layers = (("candidates.induce_attr_candidates", mod.__name__, "induce"),)
        with instrument(rec, layers):
            assert mod.induce(None, "a") == [1, 2, 3]
            mod.induce(None, "b")
        assert [s.name for s in rec.spans] == ["candidates.induce_attr_candidates"] * 2
        assert [s.counts["kept"] for s in rec.spans] == [3, 3]
    finally:
        del sys.modules[mod.__name__]


def test_seed_only_permutes_rows_and_record_ids():
    pdf = pd.DataFrame({"a": list("pqrstu"), "b": list("xxyyzz"), RID: range(6)})
    out = permute(pdf, np.random.default_rng([7, 0]))
    assert sorted(out[RID]) == list(range(6))
    key = ["a", "b"]
    assert sorted(map(tuple, out[key].to_numpy())) == sorted(
        map(tuple, pdf[key].to_numpy())
    )
    again = permute(pdf, np.random.default_rng([7, 0]))
    pd.testing.assert_frame_equal(out, again)
    other = permute(pdf, np.random.default_rng([8, 0]))
    assert not out.equals(other)


def test_self_checks_fail_on_other_work():
    fig1 = WORKLOADS["fig1-hs"]
    pinned = {"k": 0, "polls": fig1.polls, "jobs": fig1.jobs}
    assert run._self_checks([pinned, dict(pinned, k=1)], fig1) == []
    other = dict(pinned, k=1, jobs=141)
    problems = run._self_checks([pinned, other], fig1)
    assert len(problems) == 1 and "search 1" in problems[0]
    raised = {"k": 0, "jobs": 3}  # a search that raised has no polls
    assert len(run._self_checks([raised], fig1)) == 1
