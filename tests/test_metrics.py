"""§5.2 metrics: Δcore, Δcosts, acc."""
import pytest

from repro.bench.datasets import make_dataset
from repro.bench.instances import PK_ATTR, make_instance
from repro.bench.metrics import evaluate_explanation
from repro.core.explanation import (
    Explanation,
    explanation_from_functions,
    trivial_explanation,
)
from repro.core.functions import ConstantValue, Identity


@pytest.fixture(scope="module")
def inst(spark):
    pdf = make_dataset("iris", seed=21)
    return make_instance(spark, pdf, eta=0.3, tau=0.0, seed=5)


def test_reference_functions_score_perfect(inst):
    e = explanation_from_functions(inst.problem, inst.ref_functions)
    r = evaluate_explanation(inst, e, runtime_s=1.5)
    assert r.acc == 1.0
    assert r.dcore >= 1.0  # noise may coincidentally align on top of core
    assert r.dcosts <= 1.0
    assert r.t == 1.5


def test_trivial_explanation_scores_zero_core(inst):
    e = trivial_explanation(inst.problem)
    r = evaluate_explanation(inst, e, runtime_s=0.1)
    assert r.dcore == 0.0
    assert r.dcosts > 1.0


def test_acc_ignores_pk_attribute(inst):
    # wrong pk function must not affect acc (tau=0: everything else id)
    funcs = tuple(
        ConstantValue("0") if a == PK_ATTR else Identity()
        for a in inst.problem.attrs
    )
    e = Explanation(
        functions=funcs,
        n_attrs=inst.problem.n_attrs,
        core_size=inst.ref_core_size,
        n_deleted=inst.ref_n_deleted,
        n_inserted=inst.ref_n_inserted,
    )
    r = evaluate_explanation(inst, e, runtime_s=0.0)
    assert r.acc == 1.0


def test_acc_counts_wrong_cells(inst):
    # one non-pk attribute constant-wrong -> acc ~= (d-2)/(d-1)
    non_pk = [a for a in inst.problem.attrs if a != PK_ATTR]
    wrong_attr = non_pk[0]
    funcs = tuple(
        ConstantValue("__wrong__") if a == wrong_attr else f
        for a, f in zip(inst.problem.attrs, inst.ref_functions)
    )
    e = Explanation(
        functions=funcs,
        n_attrs=inst.problem.n_attrs,
        core_size=inst.ref_core_size,
        n_deleted=inst.ref_n_deleted,
        n_inserted=inst.ref_n_inserted,
    )
    r = evaluate_explanation(inst, e, runtime_s=0.0)
    assert r.acc == pytest.approx(1 - 1 / len(non_pk))
