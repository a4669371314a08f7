"""Blocking substrate (paper §4.1, Defs. 4.3/4.4) as Spark DataFrame ops.

Decided attributes of a search state define a *blocking index* per record:
source records are projected through their assigned functions (vectorized
pandas UDFs), target records through their raw values. The key ``__bk`` is
the projected tuple itself, an ``array<string>``; Spark compares such
arrays element by element, with null equal to null in grouping, joins and
``IN``, so records with equal keys are exactly the records with equal
projections (Def. 4.3). ``with_block_key`` keys both snapshots under a
state in one call and is the only code that writes the key. Everything the
search needs from the data reduces to aggregations over these keyed frames:

* ``state_overlap``  — M(H) = sum over blocks of min(#source, #target);
  the state-cost lower bound ct(H) is |T| - M(H).
* ``indeterminacy``  — per undecided attribute, the maximum number of
  distinct source values over blocks containing both source and target
  records (§4.3's attribute-ordering estimate).
* ``evaluate_pairs`` — one-pass evaluation of many candidate extensions
  (attribute, function): emits (attribute, block, transformed value) per
  candidate and source record, builds the per-attribute target histograms
  once, and joins on the attribute and the refined key (the block's key
  with the value appended) — this is the exact form of the §4.4.3
  histogram-overlap ranking, fused with the Def. 4.6 cost computation (see
  DESIGN.md note 4).

Every seeded draw of the search is built here too: ``mixed`` (records of
blocks the other side has), ``rank_in_blocks``, ``pair_in_blocks`` (§4.3's
Sample-Random-Alignment and, under an end state, the Prop. 3.6 bijection)
and ``draw``.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql.types import StringType

from .functions import TransformFunction
from .state import Problem, SearchState

__all__ = [
    "BK",
    "RN",
    "with_block_key",
    "mixed",
    "rank_in_blocks",
    "pair_in_blocks",
    "draw",
    "indeterminacy",
    "evaluate_pairs",
    "state_overlap",
    "persisted",
]

BK = "__bk"
RN = "__rn"


def _transform_udf(f: TransformFunction):
    """Vectorized string->string pandas UDF applying one attribute function."""

    def _apply(s: pd.Series) -> pd.Series:
        return f.apply_series(s)

    return F.pandas_udf(_apply, StringType())


def with_block_key(problem: Problem, state: SearchState) -> tuple[DataFrame, DataFrame]:
    """Both snapshots with the blocking-index column ``__bk`` under
    ``state`` (Def. 4.3): the array of the decided attributes' values, in
    attribute order, source values through the assigned functions and
    target values raw. States with no decided attribute put every record in
    one block (the empty array). This is the only code that writes the
    key."""
    decided = [(problem.attrs[i], f) for i, f in state.decided()]
    s_key = F.array(*[_transform_udf(f)(F.col(a)) for a, f in decided])
    t_key = F.array(*[F.col(a) for a, _ in decided])
    return problem.source.withColumn(BK, s_key), problem.target.withColumn(BK, t_key)


def mixed(df: DataFrame, other: DataFrame) -> DataFrame:
    """The rows of ``df`` whose block also occurs in ``other``."""
    return df.join(other.select(BK).distinct(), BK)


def rank_in_blocks(df: DataFrame, seed: int) -> DataFrame:
    """Add ``__rn``: a random row number within each block, drawn with
    ``seed``. The draw depends on which rows reach it and in what order, so
    callers filter and project before ranking."""
    w = Window.partitionBy(BK).orderBy(F.rand(seed))
    return df.withColumn(RN, F.row_number().over(w))


def pair_in_blocks(s: DataFrame, t: DataFrame, seed: int) -> DataFrame:
    """Pair the rows of ``s`` and ``t`` at random within each block: the
    i-th ranked row of one side meets the i-th of the other, so a block
    yields min(#s, #t) pairs and no row is used twice."""
    return rank_in_blocks(s, seed).join(rank_in_blocks(t, seed + 1), [BK, RN]).drop(RN)


def draw(df: DataFrame, k: int, seed: int) -> DataFrame:
    """Up to ``k`` rows of ``df`` in an order drawn with ``seed``."""
    return df.orderBy(F.rand(seed)).limit(k)


def state_overlap(problem: Problem, state: SearchState) -> int:
    """M(H): sum over blocks of min(source count, target count)."""
    s_keyed, t_keyed = with_block_key(problem, state)
    sc = s_keyed.groupBy(BK).agg(F.count("*").alias("__sc"))
    tc = t_keyed.groupBy(BK).agg(F.count("*").alias("__tc"))
    row = (
        sc.join(tc, BK)
        .agg(F.sum(F.least("__sc", "__tc")).alias("m"))
        .first()
    )
    return int(row["m"] or 0)


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
    per_block = mixed(s_keyed, t_keyed).groupBy(BK).agg(
        *[F.approx_count_distinct(a).alias(a) for a in attrs]
    )
    row = per_block.agg(*[F.max(a).alias(a) for a in attrs]).first()
    return {a: float("inf") if row[a] is None else float(row[a]) for a in attrs}


def evaluate_pairs(
    problem: Problem,
    s_keyed: DataFrame,
    t_keyed: DataFrame,
    pairs: Sequence[tuple[int, TransformFunction]],
) -> list[int]:
    """Exact overlap M(H + {attr_i := f_i}) for every candidate extension.

    One source-side mapInPandas emits ``(candidate, attr, __bk, val)``
    rows. A candidate's refined block is the state's block plus the
    transformed value, so both sides group on the refined key
    ``array_append(__bk, val)``: the source per candidate, the melted
    target once per attribute. The histograms join on ``(attr, key)``. The
    result is M for each pair, aligned with the input order.
    """
    if not pairs:
        return []
    attrs = problem.attrs
    needed = sorted({attrs[i] for i, _ in pairs})
    pair_list = [(attrs[i], f) for i, f in pairs]

    def gen(iterator):
        for pdf in iterator:
            for ci, (a, f) in enumerate(pair_list):
                yield pd.DataFrame(
                    {"cand": ci, "attr": a, BK: pdf[BK], "val": f.apply_series(pdf[a])}
                )

    refined = F.array_append(BK, F.col("val")).alias("key")
    src_counts = (
        s_keyed.select(BK, *needed)
        .mapInPandas(gen, f"cand int, attr string, {BK} array<string>, val string")
        .groupBy("cand", "attr", refined)
        .agg(F.count("*").alias("__sc"))
    )
    tgt_counts = (
        t_keyed.unpivot([BK], needed, "attr", "val")
        .groupBy("attr", refined)
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


@contextmanager
def persisted(*frames: DataFrame) -> Iterator[tuple[DataFrame, ...]]:
    """Cache ``frames`` for a ``with`` block; unpersist them on exit, even on error."""
    try:
        yield tuple(df.cache() for df in frames)
    finally:
        for df in frames:
            df.unpersist()
