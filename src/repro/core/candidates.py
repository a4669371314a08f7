"""Candidate induction from noisy in-block examples (paper §4.4.2–4.4.3).

Affidavit samples k = ``SAMPLE_SIZE`` distinct target records from *mixed*
blocks (blocks containing both source and target records): the smallest
sample in which a function visible in a ``THETA`` share of targets is
generated >= ``BASE_SUPPORT`` times with confidence ``CONFIDENCE``.
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

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .blocking import BK, RN, draw, mixed, rank_in_blocks
from .functions import TransformFunction, induce_candidates
from .stats import sample_size_for_support

__all__ = [
    "ExampleSample",
    "sample_examples",
    "induce_attr_candidates",
    "scaled_support",
]


MAX_BLOCK_ROWS = 50  # source rows read per sampled block
MAX_CANDIDATES = 24  # candidates kept per attribute, by support
BASE_SUPPORT = 5  # a function must be generated ">= 5 times" (§4.4.2)
THETA = 0.1  # share of targets showing a function's effect (every §5.2 run)
CONFIDENCE = 0.95  # the paper's rho (every §5.2 run)
SAMPLE_SIZE = sample_size_for_support(THETA, CONFIDENCE, BASE_SUPPORT)  # 89


@dataclass
class ExampleSample:
    """Sampled target records plus the (capped) distinct source values of
    their blocks, for a set of attributes. A block key, an array in Spark,
    reads back as a tuple."""

    targets: list[dict]  # each: {attr: value, BK: key tuple}
    block_source_values: dict[tuple, dict[str, list]]  # key tuple -> attr -> values


def sample_examples(
    s_keyed: DataFrame,
    t_keyed: DataFrame,
    attrs: list[str],
    *,
    k: int,
    seed: int,
) -> ExampleSample:
    """Draw up to k target records from mixed blocks together with the
    source values of their blocks (at most ``MAX_BLOCK_ROWS`` source rows
    per block are considered, keeping the driver-side work bounded on
    coarse early-search blockings)."""
    mixed_tgt = mixed(t_keyed, s_keyed).select(BK, *attrs)
    sampled = draw(mixed_tgt, k, seed).collect()
    if not sampled:
        return ExampleSample([], {})
    bks = list(dict.fromkeys(tuple(r[BK]) for r in sampled))

    keys = [F.array(*map(F.lit, bk)) for bk in bks]
    src = s_keyed.where(F.col(BK).isin(*keys)).select(BK, *attrs)
    src_rows = (
        rank_in_blocks(src, seed + 1).where(F.col(RN) <= MAX_BLOCK_ROWS).collect()
    )
    block_vals: dict[tuple, dict[str, list]] = {bk: {a: [] for a in attrs} for bk in bks}
    for r in src_rows:
        for a in attrs:
            vals = block_vals[tuple(r[BK])][a]  # at most MAX_BLOCK_ROWS values
            if r[a] is not None and r[a] not in vals:
                vals.append(r[a])
    targets = [{**{a: r[a] for a in attrs}, BK: tuple(r[BK])} for r in sampled]
    return ExampleSample(targets, block_vals)


def scaled_support(n_sampled: int, k: int) -> int:
    """Support threshold, scaled down proportionally when fewer than k
    targets exist (DESIGN.md note 3)."""
    if n_sampled >= k:
        return BASE_SUPPORT
    return max(2, math.ceil(BASE_SUPPORT * n_sampled / max(1, k)))


def induce_attr_candidates(
    sample: ExampleSample,
    attr: str,
    *,
    min_support: int,
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
    return kept[:MAX_CANDIDATES]
