"""Correctness checks on one search result, run outside the timed region.

Each check returns a list of failure causes; an empty list means the
explanation is valid. Nothing here talks to Spark: the caller collects the
core pairs and passes the snapshots as pandas frames indexed by record id.
"""
from __future__ import annotations

import pandas as pd

from repro.core import RID, Explanation

__all__ = ["check_explanation"]


def check_explanation(
    expl: Explanation,
    pairs: pd.DataFrame,
    source: pd.DataFrame,
    target: pd.DataFrame,
    attrs: list[str],
    *,
    trivial_cost: float,
    reached_end: bool,
    alpha: float = 0.5,
) -> list[str]:
    """Validate E = (S-, T+, F) against the snapshots it explains.

    ``pairs`` has columns ``s_rid``/``t_rid``; ``source``/``target`` carry
    the attribute columns and ``__rid``.
    """
    causes: list[str] = []
    if not reached_end:
        # run_affidavit returns the trivial explanation without saying so
        # when the queue empties or max_polls is hit.
        causes.append("no end state: search fell back to the trivial explanation")
    n_s, n_t = len(source), len(target)
    if expl.core_size + expl.n_deleted != n_s:
        causes.append(f"core {expl.core_size} + deleted {expl.n_deleted} != |S| {n_s}")
    if expl.core_size + expl.n_inserted != n_t:
        causes.append(f"core {expl.core_size} + inserted {expl.n_inserted} != |T| {n_t}")
    if len(pairs) != expl.core_size:
        causes.append(f"{len(pairs)} core pairs for core size {expl.core_size}")
    for col in ("s_rid", "t_rid"):
        if pairs[col].duplicated().any():
            causes.append(f"core pairs repeat a {col}: not a bijection")
    if len(expl.functions) != len(attrs):
        causes.append(f"{len(expl.functions)} functions for {len(attrs)} attributes")
        return causes

    s = source.set_index(RID)
    t = target.set_index(RID)
    missing = ~pairs["s_rid"].isin(s.index) | ~pairs["t_rid"].isin(t.index)
    if missing.any():
        causes.append(f"{int(missing.sum())} core pairs name unknown record ids")
        return causes
    s_rows = s.loc[pairs["s_rid"].to_numpy()].reset_index(drop=True)
    t_rows = t.loc[pairs["t_rid"].to_numpy()].reset_index(drop=True)
    for a, f in zip(attrs, expl.functions):
        got = f.apply_series(s_rows[a])
        want = t_rows[a]
        ok = (got == want) | (got.isna() & want.isna())
        if not ok.all():
            causes.append(
                f"F(s) != t on attribute {a} for {int((~ok).sum())} core pairs"
            )

    cost = expl.cost(alpha)
    if cost > trivial_cost:
        causes.append(f"cost {cost} exceeds the trivial cost {trivial_cost}")
    return causes
