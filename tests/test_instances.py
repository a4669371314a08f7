"""Problem-instance generation — the §5.1 evaluation protocol."""
import numpy as np
import pandas as pd
import pytest

from repro.bench.datasets import make_dataset
from repro.bench.instances import PK_ATTR, make_instance, stringify
from repro.core.explanation import explanation_from_functions
from repro.core.functions import ValueMapping


@pytest.fixture(scope="module")
def inst(spark):
    pdf = make_dataset("iris", seed=4)
    return make_instance(spark, pdf, eta=0.3, tau=0.3, seed=7)


def test_snapshot_sizes(inst):
    """|S| = |T| = core + noise with noise ~= eta * snapshot size."""
    p = inst.problem
    assert p.n_source == p.n_target
    assert inst.ref_core_size + inst.ref_n_inserted == p.n_target
    eta_eff = inst.ref_n_inserted / p.n_target
    assert eta_eff == pytest.approx(0.3, abs=0.05)


def test_pk_attribute_added_and_permuted(inst):
    p = inst.problem
    assert PK_ATTR in p.attrs
    src_pk = sorted(r[PK_ATTR] for r in p.source.select(PK_ATTR).collect())
    tgt_pk = sorted(r[PK_ATTR] for r in p.target.select(PK_ATTR).collect())
    assert src_pk == tgt_pk  # same integer set in both snapshots
    f_pk = dict(zip(p.attrs, inst.ref_functions))[PK_ATTR]
    assert isinstance(f_pk, ValueMapping)
    assert len(f_pk.entries) == inst.ref_core_size


def test_reference_explanation_is_achievable(inst):
    """Applying the reference functions aligns at least the core (noise can
    coincidentally align too, which only lowers the cost)."""
    e = explanation_from_functions(inst.problem, inst.ref_functions)
    assert e.core_size >= inst.ref_core_size
    assert e.cost(0.5) <= inst.ref_cost(0.5)


def test_at_least_one_identity_attribute(spark):
    pdf = make_dataset("iris", seed=11)
    for seed in range(3):
        inst = make_instance(spark, pdf, eta=0.3, tau=0.9, seed=seed)
        kinds = [
            type(f).__name__
            for a, f in zip(inst.problem.attrs, inst.ref_functions)
            if a != PK_ATTR
        ]
        assert "Identity" in kinds


def test_transformed_attrs_respect_tau_zero(spark):
    pdf = make_dataset("iris", seed=12)
    inst = make_instance(spark, pdf, eta=0.3, tau=0.0, seed=3)
    assert set(inst.transformed_attrs) == {PK_ATTR}  # pk always mapped


def test_high_distinct_attribute_removed(spark):
    pdf = make_dataset("iris", seed=13)
    pdf["unique_id"] = [f"u{i}" for i in range(len(pdf))]  # ratio 1.0 > 0.7
    inst = make_instance(spark, pdf, eta=0.3, tau=0.3, seed=3)
    assert "unique_id" not in inst.problem.attrs


def test_ref_cost_formula(inst):
    lf = sum(f.psi for f in inst.ref_functions)
    lt = inst.problem.n_attrs * inst.ref_n_inserted
    assert inst.ref_cost(0.5) == lt + lf
    assert inst.ref_cost(1.0) == 2 * lt


def test_core_source_pdf_shape(inst):
    assert len(inst.core_source_pdf) == inst.ref_core_size
    assert list(inst.core_source_pdf.columns) == inst.problem.attrs


def test_stringify_canonical_numbers():
    pdf = pd.DataFrame({"x": [80.0, 0.065, np.nan], "s": ["a", "b", None]})
    out = stringify(pdf)
    assert out["x"].tolist()[:2] == ["80", "0.065"]
    assert out["x"].iloc[2] is None
    assert out["s"].iloc[2] is None


def test_instance_deterministic(spark):
    pdf = make_dataset("iris", seed=4)
    a = make_instance(spark, pdf, eta=0.5, tau=0.5, seed=9)
    b = make_instance(spark, pdf, eta=0.5, tau=0.5, seed=9)
    assert [f.signature() for f in a.ref_functions] == [
        f.signature() for f in b.ref_functions
    ]
    assert a.ref_core_size == b.ref_core_size


def test_eta_07_sizes(spark):
    pdf = make_dataset("balance", seed=4)
    inst = make_instance(spark, pdf, eta=0.7, tau=0.7, seed=2)
    eta_eff = inst.ref_n_inserted / inst.problem.n_target
    assert eta_eff == pytest.approx(0.7, abs=0.05)
