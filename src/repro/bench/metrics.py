"""Evaluation metrics of §5.2: runtime t, relative core size Δcore,
relative costs Δcosts, and cell accuracy acc.

* Δcore  = |core(E_res)| / |core(E_ref)|  (0 means trivial explanation)
* Δcosts = c(E_res) / c(E_ref)            (<1: result cheaper than reference)
* acc    = fraction of cells of the reference core whose learned
           translation F_res(r)[a] equals the correct one F_ref(r)[a],
           ignoring the artificial primary-key attribute (§5.2).

acc is computed driver-side over the (bounded) core rows — it is harness
instrumentation, not part of the reproduced system.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.explanation import Explanation
from .instances import PK_ATTR, ProblemInstance

__all__ = ["CellResult", "evaluate_explanation"]


@dataclass
class CellResult:
    t: float
    dcore: float
    dcosts: float
    acc: float


def evaluate_explanation(
    instance: ProblemInstance,
    explanation: Explanation,
    *,
    runtime_s: float,
    alpha: float = 0.5,
) -> CellResult:
    ref_cost = instance.ref_cost(alpha)
    dcore = (
        explanation.core_size / instance.ref_core_size
        if instance.ref_core_size
        else 0.0
    )
    dcosts = explanation.cost(alpha) / ref_cost if ref_cost else float("inf")

    attrs = instance.problem.attrs
    core = instance.core_source_pdf
    total = 0
    correct = 0
    for a, f_res, f_ref in zip(attrs, explanation.functions, instance.ref_functions):
        if a == PK_ATTR:
            continue
        col = core[a]
        got = f_res.apply_series(col)
        want = f_ref.apply_series(col)
        eq = (got == want) | (got.isna() & want.isna())
        total += len(col)
        correct += int(eq.sum())
    acc = correct / total if total else 1.0
    return CellResult(t=runtime_s, dcore=dcore, dcosts=dcosts, acc=acc)
