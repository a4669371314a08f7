"""Blocking substrate (paper §4.1, Defs. 4.3/4.4) as Spark DataFrame ops.

Decided attributes of a search state define a *blocking index* per record:
source records are projected through their assigned functions (vectorized
pandas UDFs), target records through their raw values. Records with equal
indices share a block. Everything the search needs from the data reduces to
aggregations over these keyed frames:

* ``block_overlap``  — M(H) = sum over blocks of min(#source, #target);
  the state-cost lower bound ct(H) is |T| - M(H).
* ``indeterminacy``  — per undecided attribute, the maximum number of
  distinct source values over blocks containing both source and target
  records (§4.3's attribute-ordering estimate).
* ``evaluate_pairs`` — one-pass evaluation of many candidate extensions
  (attribute, function): emits the refined block key per candidate on the
  source side, builds the per-attribute target histograms once, and joins —
  this is the exact form of the §4.4.3 histogram-overlap ranking, fused
  with the Def. 4.6 cost computation (see DESIGN.md note 4).
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from .functions import TransformFunction
from .state import Problem, SearchState

__all__ = [
    "BK",
    "with_block_key",
    "block_overlap",
    "indeterminacy",
    "evaluate_pairs",
    "state_overlap",
]

BK = "__bk"
SEP = "\x1f"
NULL_SENT = "\x00N"


def _coalesced(a: str) -> Column:
    return F.coalesce(F.col(a), F.lit(NULL_SENT))


def _transform_udf(f: TransformFunction):
    """Vectorized string->string pandas UDF applying one attribute function."""

    def _apply(s: pd.Series) -> pd.Series:
        return f.apply_series(s)

    return F.pandas_udf(_apply, "string")


def with_block_key(
    df: DataFrame,
    state: SearchState,
    attrs: Sequence[str],
    *,
    is_source: bool,
) -> DataFrame:
    """Add the blocking-index column ``__bk`` under ``state`` (Def. 4.3).

    Source values flow through the assigned functions; target values are
    used raw. States with no decided attribute put every record in one
    block (empty key).
    """
    decided = state.decided()
    if not decided:
        return df.withColumn(BK, F.lit(""))
    cols = []
    for i, f in decided:
        a = attrs[i]
        if is_source:
            cols.append(F.coalesce(_transform_udf(f)(F.col(a)), F.lit(NULL_SENT)))
        else:
            cols.append(_coalesced(a))
    return df.withColumn(BK, F.concat_ws(SEP, *cols))


def block_overlap(s_keyed: DataFrame, t_keyed: DataFrame) -> int:
    """M(H): sum over blocks of min(source count, target count)."""
    sc = s_keyed.groupBy(BK).agg(F.count("*").alias("__sc"))
    tc = t_keyed.groupBy(BK).agg(F.count("*").alias("__tc"))
    row = (
        sc.join(tc, BK)
        .agg(F.sum(F.least("__sc", "__tc")).alias("m"))
        .first()
    )
    return int(row["m"] or 0)


def state_overlap(problem: Problem, state: SearchState) -> int:
    """M(H) computed from scratch for an arbitrary state."""
    s_keyed = with_block_key(problem.source, state, problem.attrs, is_source=True)
    t_keyed = with_block_key(problem.target, state, problem.attrs, is_source=False)
    return block_overlap(s_keyed, t_keyed)


def indeterminacy(
    s_keyed: DataFrame, t_keyed: DataFrame, attrs: Iterable[str]
) -> dict[str, float]:
    """Max #distinct source values per attribute over mixed blocks.

    Attributes for which no mixed block exists get +inf (least determined).
    ``approx_count_distinct`` keeps this a single pass even for wide tables.
    """
    attrs = list(attrs)
    if not attrs:
        return {}
    tgt_bks = t_keyed.select(BK).distinct()
    src_mixed = s_keyed.join(tgt_bks, BK)
    per_block = src_mixed.groupBy(BK).agg(
        *[F.approx_count_distinct(a).alias(a) for a in attrs]
    )
    row = per_block.agg(*[F.max(a).alias(a) for a in attrs]).first()
    out = {}
    for a in attrs:
        v = row[a] if row is not None else None
        out[a] = float(v) if v is not None else float("inf")
    return out


def evaluate_pairs(
    problem: Problem,
    s_keyed: DataFrame,
    t_keyed: DataFrame,
    pairs: Sequence[tuple[int, TransformFunction]],
) -> list[int]:
    """Exact overlap M(H + {attr_i := f_i}) for every candidate extension.

    One source-side mapInPandas emits ``(candidate, attr, refined key)``
    rows; per-attribute target histograms are built once and joined. The
    result is M for each pair, aligned with the input order.
    """
    if not pairs:
        return []
    attrs = problem.attrs
    needed = sorted({attrs[i] for i, _ in pairs})
    pair_list = [(attrs[i], f) for i, f in pairs]

    src = s_keyed.select(BK, *needed)

    def gen(iterator):
        for pdf in iterator:
            if len(pdf) == 0:
                continue
            outs = []
            for ci, (a, f) in enumerate(pair_list):
                vals = f.apply_series(pdf[a]).fillna(NULL_SENT)
                outs.append(
                    pd.DataFrame(
                        {
                            "cand": ci,
                            "attr": a,
                            "key": pdf[BK].fillna("") + SEP + vals.astype(str),
                        }
                    )
                )
            yield pd.concat(outs, ignore_index=True)

    src_counts = (
        src.mapInPandas(gen, "cand int, attr string, key string")
        .groupBy("cand", "attr", "key")
        .agg(F.count("*").alias("__sc"))
    )

    tgt_parts = [
        t_keyed.select(
            F.lit(a).alias("attr"),
            F.concat(F.col(BK), F.lit(SEP), _coalesced(a)).alias("key"),
        )
        for a in needed
    ]
    tgt_counts = (
        reduce(DataFrame.unionByName, tgt_parts)
        .groupBy("attr", "key")
        .agg(F.count("*").alias("__tc"))
    )

    rows = (
        src_counts.join(tgt_counts, ["attr", "key"])
        .groupBy("cand")
        .agg(F.sum(F.least("__sc", "__tc")).alias("m"))
        .collect()
    )
    out = [0] * len(pair_list)
    for r in rows:
        out[r["cand"]] = int(r["m"])
    return out
