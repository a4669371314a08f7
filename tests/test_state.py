"""Search-state model and state-cost definition (§4.1, §4.5)."""
import pytest

from repro.core.functions import Addition, Identity, ValueMapping
from repro.core.state import RID, UNDECIDED, Problem, SearchState, state_cost


def _st(*assignments):
    return SearchState(tuple(assignments))


def test_level_counts_non_undecided():
    s = _st(UNDECIDED, Identity(), UNDECIDED, Addition(1.0))
    assert s.level == 2


def test_undecided_and_marker_indices():
    s = _st(UNDECIDED, Identity(), Addition(1.0), UNDECIDED)
    assert s.undecided_indices() == [0, 3]


def test_is_end_requires_all_functions():
    assert _st(Identity(), Addition(1.0)).is_end
    assert not _st(Identity(), UNDECIDED).is_end


def test_cf_sums_psi():
    s = _st(Identity(), Addition(1.0), ValueMapping((("a", "b"), ("c", "d"))))
    assert s.cf() == 0 + 1 + 4


def test_extend_undecided_and_marker():
    s = _st(UNDECIDED, UNDECIDED)
    s2 = s.extend(0, Identity()).extend(1, ValueMapping(()))
    assert s2.is_end
    with pytest.raises(ValueError):
        s2.extend(0, Identity())


def test_extend_is_persistent():
    s = _st(UNDECIDED, UNDECIDED)
    s.extend(0, Identity())
    assert s.assignments[0] == UNDECIDED  # original unchanged


def test_signature_dedups():
    a = _st(Identity(), UNDECIDED)
    b = _st(Identity(), UNDECIDED)
    assert a.signature() == b.signature()
    assert a.signature() != _st(UNDECIDED, Identity()).signature()


def test_with_cost():
    s = _st(UNDECIDED).with_cost(3.5, 7)
    assert s.cost == 3.5 and s.overlap == 7


class _FakeProblem:
    n_target = 100
    n_attrs = 5


def test_state_cost_formula():
    # c(H) = 2(1-alpha)*cf + 2*alpha*|A|*(|T| - M)
    p = _FakeProblem()
    assert state_cost(p, cf=10, overlap=90, alpha=0.5) == 10 + 5 * 10
    assert state_cost(p, cf=10, overlap=100, alpha=0.5) == 10
    assert state_cost(p, cf=10, overlap=0, alpha=1.0) == 2 * 5 * 100


def test_state_cost_alpha_zero_only_functions():
    p = _FakeProblem()
    assert state_cost(p, cf=7, overlap=0, alpha=0.0) == 14


@pytest.mark.parametrize("side", ["source", "target"])
def test_problem_needs_record_ids(spark, side):
    df = spark.createDataFrame([("a", 0)], f"x string, {RID} bigint")
    frames = {"source": df, "target": df, side: df.drop(RID)}
    with pytest.raises(ValueError, match=RID):
        Problem(spark, frames["source"], frames["target"], ["x"])
