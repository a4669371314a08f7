"""Overlap-score start state Hs (paper §4.2).

Independently assume every attribute unchanged and link records sharing a
value on it. Value overlaps whose source-count x target-count pair
product exceeds ``max_block_size`` are ignored (too-frequent values would
generate an enormous number of pairs — and, on low-cardinality datasets,
this is exactly what silently reduces the a-priori matching to an
artificial key, the failure mode Table 2 shows for chess/letter/nursery).

For each source record the target record with the highest overlap score
forms the a-priori alignment; k' = the most frequent overlap score among
those pairs; the k' attributes whose values overlap most often on the
pairs are assigned ``id`` in the single start state.
"""
from __future__ import annotations

from pyspark.sql import Window
from pyspark.sql import functions as F

from .blocking import persisted
from .functions import Identity
from .state import RID, UNDECIDED, Problem, SearchState

__all__ = ["MAX_BLOCK_SIZE", "overlap_start_state"]

MAX_BLOCK_SIZE = 100_000  # §5.2's Hs bound on a value's source x target pairs


def overlap_start_state(
    problem: Problem, *, max_block_size: int = MAX_BLOCK_SIZE
) -> SearchState:
    """Compute Hs. Falls back to the all-undecided state when no value
    overlap survives the block-size threshold."""
    attrs = problem.attrs
    s_melt = problem.source.unpivot([RID], attrs, "attr", "val").where(
        F.col("val").isNotNull()
    )
    t_melt = problem.target.unpivot([RID], attrs, "attr", "val").where(
        F.col("val").isNotNull()
    )
    sc = s_melt.groupBy("attr", "val").agg(F.count("*").alias("__sc"))
    tc = t_melt.groupBy("attr", "val").agg(F.count("*").alias("__tc"))
    allowed = (
        sc.join(tc, ["attr", "val"])
        .where((F.col("__sc") * F.col("__tc")) <= max_block_size)
        .select("attr", "val")
    )
    with persisted(
        s_melt.withColumnRenamed(RID, "s_rid")
        .join(allowed, ["attr", "val"])
        .join(t_melt.withColumnRenamed(RID, "t_rid"), ["attr", "val"])
        .select("s_rid", "t_rid", "attr")
    ) as (contrib,):
        scores = contrib.groupBy("s_rid", "t_rid").agg(F.count("*").alias("score"))
        w = Window.partitionBy("s_rid").orderBy(F.desc("score"), F.asc("t_rid"))
        with persisted(
            scores.withColumn("__r", F.row_number().over(w))
            .where(F.col("__r") == 1)
            .select("s_rid", "t_rid", "score")
        ) as (best,):
            mode_row = (
                best.groupBy("score")
                .agg(F.count("*").alias("__n"))
                .orderBy(F.desc("__n"), F.desc("score"))
                .first()
            )
            if mode_row is None:
                return SearchState(tuple(UNDECIDED for _ in attrs))
            attr_freq = (
                contrib.join(best.select("s_rid", "t_rid"), ["s_rid", "t_rid"])
                .groupBy("attr")
                .agg(F.count("*").alias("__n"))
                .orderBy(F.desc("__n"), F.asc("attr"))
                .limit(int(mode_row["score"]))  # k'
                .collect()
            )
            a_id = {r["attr"] for r in attr_freq}
            return SearchState(
                tuple(Identity() if a in a_id else UNDECIDED for a in attrs)
            )
