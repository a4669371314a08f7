"""Candidate induction from noisy in-block examples (paper §4.4.2–4.4.3).

Affidavit samples k distinct target records from *mixed* blocks (blocks
containing both source and target records), where k is the smallest sample
size for which a function visible in a theta-fraction of targets is
generated >= 5 times with confidence rho (``stats.sample_size_for_support``).
For every sampled target record and attribute, candidate functions are
induced from each source value in the same block; a candidate's *support*
is the number of distinct sampled targets that generated it. Candidates
below the (proportionally scaled) support threshold are filtered out.

Ranking uses block-level histogram overlap, which ``evaluate_pairs``
(blocking.py) computes exactly in one pass instead of estimating it from a
Cochran-sized sample as §4.4.3 does (DESIGN.md note 4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .blocking import BK
from .functions import TransformFunction, induce_candidates

__all__ = [
    "ExampleSample",
    "sample_examples",
    "induce_attr_candidates",
    "scaled_support",
]


@dataclass
class ExampleSample:
    """Sampled target records plus the (capped) distinct source values of
    their blocks, for a set of attributes."""

    targets: list[dict]  # each: {attr: value, BK: key}
    block_source_values: dict[str, dict[str, list]]  # bk -> attr -> values
    population: int  # number of target records in mixed blocks


def sample_examples(
    s_keyed: DataFrame,
    t_keyed: DataFrame,
    attrs: list[str],
    *,
    k: int,
    seed: int,
    max_block_rows: int = 50,
) -> ExampleSample:
    """Draw up to k target records from mixed blocks together with the
    source values of their blocks (at most ``max_block_rows`` source rows
    per block are considered, keeping the driver-side work bounded on
    coarse early-search blockings)."""
    src_bks = s_keyed.select(BK).distinct()
    mixed_tgt = t_keyed.join(src_bks, BK).select(BK, *attrs)
    sampled = mixed_tgt.orderBy(F.rand(seed)).limit(k).collect()
    if not sampled:
        return ExampleSample([], {}, 0)
    pop = len(sampled)  # == min(k, mixed population); enough for support scaling
    bks = sorted({r[BK] for r in sampled})

    w = Window.partitionBy(BK).orderBy(F.rand(seed + 1))
    src_rows = (
        s_keyed.where(F.col(BK).isin(bks))
        .select(BK, *attrs)
        .withColumn("__rn", F.row_number().over(w))
        .where(F.col("__rn") <= max_block_rows)
        .collect()
    )
    block_vals: dict[str, dict[str, list]] = {bk: {a: [] for a in attrs} for bk in bks}
    seen: dict[str, dict[str, set]] = {bk: {a: set() for a in attrs} for bk in bks}
    for r in src_rows:
        for a in attrs:
            v = r[a]
            if v is not None and v not in seen[r[BK]][a]:
                seen[r[BK]][a].add(v)
                block_vals[r[BK]][a].append(v)
    targets = [{**{a: r[a] for a in attrs}, BK: r[BK]} for r in sampled]
    return ExampleSample(targets, block_vals, pop)


def scaled_support(n_sampled: int, k: int, base_support: int = 5) -> int:
    """Support threshold, scaled down proportionally when fewer than k
    targets exist (DESIGN.md note 3)."""
    if n_sampled >= k:
        return base_support
    return max(2, math.ceil(base_support * n_sampled / max(1, k)))


def induce_attr_candidates(
    sample: ExampleSample,
    attr: str,
    *,
    min_support: int,
    max_candidates: int = 24,
) -> list[tuple[TransformFunction, int]]:
    """Candidate functions for one attribute with their support, filtered
    and sorted by support (descending). Value mappings are never induced
    here (§4.4.1: they are resolved at the end of the search)."""
    support: dict[TransformFunction, int] = {}
    for t in sample.targets:
        out_v = t[attr]
        if out_v is None:
            continue
        gen_here: set[TransformFunction] = set()
        for in_v in sample.block_source_values.get(t[BK], {}).get(attr, []):
            gen_here.update(induce_candidates(in_v, out_v))
        for f in gen_here:
            support[f] = support.get(f, 0) + 1
    kept = [(f, n) for f, n in support.items() if n >= min_support]
    kept.sort(key=lambda fn: (-fn[1], fn[0].psi, fn[0].signature()))
    return kept[:max_candidates]
