"""Random block-respecting alignments and greedy value maps (paper §4.3).

``Sample-Random-Alignment`` pairs source and target records uniformly at
random *within* each block of the current blocking result: both sides get a
random row number per block and are inner-joined on (block, row number).

``Induce-Greedy-Map`` turns such an alignment into a value mapping for one
attribute by mapping every source value to the target value with the
highest co-occurrence among the aligned pairs. The map's cost (psi = 2n)
is the yardstick induced functions must beat to be kept as extensions, and
it is the fallback Finalize uses to resolve MAP_MARKER attributes.
"""
from __future__ import annotations

from functools import reduce
from typing import Sequence

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .blocking import BK
from .functions import ValueMapping

__all__ = ["sample_random_alignment", "greedy_maps_bulk", "greedy_map"]

S_PREFIX = "s__"
T_PREFIX = "t__"


def sample_random_alignment(
    s_keyed: DataFrame,
    t_keyed: DataFrame,
    attrs: Sequence[str],
    *,
    seed: int,
) -> DataFrame:
    """Aligned record pairs respecting the blocking result.

    Returns one row per aligned pair with columns ``s__<a>``/``t__<a>`` for
    every requested attribute (raw values on both sides — greedy maps
    replace the attribute's function, so their domain is the raw source
    value).
    """
    sw = Window.partitionBy(BK).orderBy(F.rand(seed))
    tw = Window.partitionBy(BK).orderBy(F.rand(seed + 1))
    s = s_keyed.select(
        BK, *[F.col(a).alias(S_PREFIX + a) for a in attrs]
    ).withColumn("__rn", F.row_number().over(sw))
    t = t_keyed.select(
        BK, *[F.col(a).alias(T_PREFIX + a) for a in attrs]
    ).withColumn("__rn", F.row_number().over(tw))
    return s.join(t, [BK, "__rn"]).drop("__rn")


def greedy_maps_bulk(aligned: DataFrame, attrs: list[str]) -> dict[str, ValueMapping]:
    """Greedy maps for several attributes in ONE aggregation pass: melt the
    aligned pairs to (attr, source value, target value), count
    co-occurrences, and take the per-(attr, source value) argmax. Null
    values on either side are excluded (they carry no mapping
    information)."""
    if not attrs:
        return {}
    parts = [
        aligned.select(
            F.lit(a).alias("__attr"),
            F.col(S_PREFIX + a).alias("__sv"),
            F.col(T_PREFIX + a).alias("__tv"),
        )
        for a in attrs
    ]
    melted = reduce(DataFrame.unionByName, parts).where(
        F.col("__sv").isNotNull() & F.col("__tv").isNotNull()
    )
    co = melted.groupBy("__attr", "__sv", "__tv").agg(F.count("*").alias("__n"))
    w = Window.partitionBy("__attr", "__sv").orderBy(F.desc("__n"), F.asc("__tv"))
    best = co.withColumn("__r", F.row_number().over(w)).where(F.col("__r") == 1)
    rows = best.select("__attr", "__sv", "__tv").collect()
    entries: dict[str, list] = {a: [] for a in attrs}
    for r in rows:
        entries[r["__attr"]].append((r["__sv"], r["__tv"]))
    return {a: ValueMapping(tuple(sorted(entries[a]))) for a in attrs}


def greedy_map(
    s_keyed: DataFrame,
    t_keyed: DataFrame,
    attr: str,
    *,
    seed: int,
) -> ValueMapping:
    """Convenience: sample an alignment and induce the greedy map for one
    attribute (used by Finalize, which re-samples after every assignment)."""
    aligned = sample_random_alignment(s_keyed, t_keyed, [attr], seed=seed)
    return greedy_maps_bulk(aligned, [attr])[attr]
