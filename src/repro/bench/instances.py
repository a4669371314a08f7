"""Problem-instance generation — the paper's evaluation protocol (§5.1).

From a dataset of N records and parameters (eta, tau):

1. Attributes with a distinct-value ratio > 0.7 are removed (they would
   make alignment too easy), as are empty attributes.
2. Two disjoint noise sets of size round(m*eta) each are drawn, where
   m = N/(1+eta) is the resulting snapshot size; the remaining records form
   the core of the reference explanation.
3. Per attribute, with probability tau a non-identity function is sampled
   from the domain-appropriate meta functions (value mappings are
   instantiated as random permutations of the attribute's values — the
   hardest case). A draw transforming *every* attribute is rejected and
   redrawn.
4. The target snapshot is the transformed core plus the transformed target
   noise; the source snapshot is the core plus the source noise.
5. An artificial primary key of running integers is added: the same
   integer set appears in both snapshots under two independent random
   permutations, so key-based linking produces a wrong alignment (the
   reference function for this attribute is a value mapping).

The returned ``ProblemInstance`` carries the reference explanation
(functions, core size, insertions) against which Table 2's Δcore, Δcosts
and acc are computed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.functions import (
    Addition,
    ConstantValue,
    FrontMasking,
    Identity,
    PrefixReplacement,
    Prefixing,
    Scale,
    Suffixing,
    TransformFunction,
    Uppercasing,
    ValueMapping,
    format_number,
    parse_number,
)
from ..core.state import RID, Problem, mdl_cost

__all__ = ["PK_ATTR", "ProblemInstance", "make_instance", "stringify"]

PK_ATTR = "added_pk"
MAX_DISTINCT_RATIO = 0.7  # step 1


@dataclass
class ProblemInstance:
    """A generated Explain-Table-Delta instance plus its reference
    explanation (the ground truth used by §5.2's metrics)."""

    problem: Problem
    ref_functions: tuple[TransformFunction, ...]  # aligned with problem.attrs
    ref_core_size: int
    ref_n_inserted: int
    ref_n_deleted: int
    core_source_pdf: pd.DataFrame = field(repr=False)  # core rows, source side
    transformed_attrs: tuple[str, ...] = ()

    def ref_cost(self, alpha: float = 0.5) -> float:
        psi = sum(f.psi for f in self.ref_functions)
        return mdl_cost(self.problem.n_attrs, self.ref_n_inserted, psi, alpha)


def stringify(pdf: pd.DataFrame) -> pd.DataFrame:
    """Canonical string representation per column (numeric columns through
    ``format_number`` so generator transformations round-trip exactly)."""
    out = {}
    for c in pdf.columns:
        col = pdf[c]
        if pd.api.types.is_numeric_dtype(col):
            out[c] = col.map(
                lambda v: None if pd.isna(v) else format_number(float(v))
            )
        else:
            out[c] = col.map(lambda v: None if pd.isna(v) else str(v))
    return pd.DataFrame(out, dtype="object")


def _numeric_share(col: pd.Series) -> float:
    vals = col.dropna()
    if len(vals) == 0:
        return 0.0
    return float(np.mean([parse_number(v) is not None for v in vals]))


def _sample_function(
    rng: np.random.Generator, col: pd.Series, *, allow_mapping: bool = True
) -> TransformFunction:
    """Draw one domain-appropriate non-identity function (step 3)."""
    values = col.dropna().unique()
    numeric = _numeric_share(col) == 1.0
    choices: list[str] = []
    if numeric:
        choices += ["addition", "scale", "constant"]
    else:
        choices += ["prefix", "suffix", "mask", "prefix_replace", "constant"]
        if any(any(ch.islower() for ch in v) for v in values[:200]):
            choices.append("upper")
    if allow_mapping:
        choices.append("mapping")

    kind = rng.choice(choices)
    if kind == "addition":
        y = float(rng.integers(1, 1000)) * float(rng.choice([-1, 1]))
        return Addition(y)
    if kind == "scale":
        return Scale(1.0 / float(rng.choice([10, 100, 1000])))
    if kind == "constant":
        return ConstantValue(str(rng.choice(values)))
    if kind == "upper":
        return Uppercasing()
    if kind == "prefix":
        return Prefixing("".join(rng.choice(list("xyzq"), size=2)))
    if kind == "suffix":
        return Suffixing("_" + str(rng.integers(0, 10)))
    if kind == "mask":
        return FrontMasking("".join(rng.choice(list("#@"), size=1)))
    if kind == "prefix_replace":
        firsts = pd.Series([v[0] for v in values if len(v) > 0])
        if firsts.empty:
            return Prefixing("zz")
        y = firsts.mode().iloc[0]
        z = str(rng.choice(list("KLMNP"))) + str(rng.integers(0, 10))
        return PrefixReplacement(y, z)
    if kind == "mapping":
        vals = sorted(map(str, values))
        perm = list(rng.permutation(vals))
        return ValueMapping(tuple(zip(vals, perm)))
    raise AssertionError(kind)


def _restrict_mapping(f: TransformFunction, core_values: set) -> TransformFunction:
    """Reference-explanation form of a mapping: only the entries needed to
    translate the core count toward its description length (Def. 3.9
    minimality)."""
    if isinstance(f, ValueMapping):
        return ValueMapping(
            tuple(sorted(e for e in f.entries if e[0] in core_values))
        )
    return f


def make_instance(
    spark: SparkSession,
    pdf: pd.DataFrame,
    *,
    eta: float,
    tau: float,
    seed: int = 0,
) -> ProblemInstance:
    """Generate one problem instance per §5.1 (see module docstring)."""
    rng = np.random.default_rng(seed)
    pdf = stringify(pdf.reset_index(drop=True))

    # 1. attribute removal
    keep = []
    for c in pdf.columns:
        col = pdf[c].dropna()
        if len(col) == 0:
            continue
        if col.nunique() / len(pdf) > MAX_DISTINCT_RATIO:
            continue
        keep.append(c)
    if not keep:
        raise ValueError("no attribute survives the distinct-ratio rule")
    pdf = pdf[keep]
    n = len(pdf)

    # 2. core / noise split: m = N/(1+eta); noise = m*eta per side
    m = max(1, round(n / (1 + eta)))
    n_noise = min(round(m * eta), (n - 1) // 2)
    n_core = n - 2 * n_noise
    order = rng.permutation(n)
    src_noise_idx = order[:n_noise]
    tgt_noise_idx = order[n_noise : 2 * n_noise]
    core_idx = order[2 * n_noise :]

    # 3. transformation sampling (reject all-transformed draws)
    while True:
        flags = rng.random(len(keep)) < tau
        if not flags.all() or len(keep) == 1:
            break
    functions: dict[str, TransformFunction] = {}
    for c, flag in zip(keep, flags):
        functions[c] = _sample_function(rng, pdf[c]) if flag else Identity()

    # 4. snapshots
    core = pdf.iloc[core_idx].reset_index(drop=True)
    src_noise = pdf.iloc[src_noise_idx].reset_index(drop=True)
    tgt_noise_in = pdf.iloc[tgt_noise_idx].reset_index(drop=True)
    source = pd.concat([core, src_noise], ignore_index=True)
    target_in = pd.concat([core, tgt_noise_in], ignore_index=True)
    target = pd.DataFrame(
        {c: functions[c].apply_series(target_in[c]) for c in keep}, dtype="object"
    )

    # 5. artificial primary key: same integers, two permutations
    n_s, n_t = len(source), len(target)
    src_pk = rng.permutation(n_s)
    tgt_pk = rng.permutation(n_t)
    source[PK_ATTR] = [str(int(v)) for v in src_pk]
    target[PK_ATTR] = [str(int(v)) for v in tgt_pk]
    # core rows sit at positions 0..n_core-1 on BOTH sides (concat order),
    # which defines the reference pk mapping and alignment.
    pk_entries = tuple(
        sorted(
            (str(int(src_pk[i])), str(int(tgt_pk[i]))) for i in range(n_core)
        )
    )
    functions[PK_ATTR] = ValueMapping(pk_entries)

    attrs = keep + [PK_ATTR]
    core_source_pdf = source.iloc[:n_core][attrs].reset_index(drop=True)

    ref_functions = tuple(
        _restrict_mapping(functions[c], set(core_source_pdf[c].dropna()))
        for c in attrs
    )

    # 6. shuffle row order and attach hidden record ids
    source = source.sample(frac=1.0, random_state=int(rng.integers(2**31)))
    target = target.sample(frac=1.0, random_state=int(rng.integers(2**31)))
    source = source.reset_index(drop=True)
    target = target.reset_index(drop=True)
    source[RID] = range(n_s)
    target[RID] = range(n_t)

    parts = max(1, min(8, n // 5000))
    problem = Problem(
        spark=spark,
        source=spark.createDataFrame(source).coalesce(parts),
        target=spark.createDataFrame(target).coalesce(parts),
        attrs=attrs,
    )
    return ProblemInstance(
        problem=problem,
        ref_functions=ref_functions,
        ref_core_size=n_core,
        ref_n_inserted=n_noise,
        ref_n_deleted=n_noise,
        core_source_pdf=core_source_pdf,
        transformed_attrs=tuple(
            c for c in attrs if not isinstance(functions[c], Identity)
        ),
    )
