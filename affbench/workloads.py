"""The benchmark's workloads: fixed instances, fixed search configurations.

Every generation seed and search seed is fixed here. The benchmark's
``--seed`` only permutes the row order and the record ids of the snapshots
(``permute``), so every seed should ask the program for the same work; the
polls and jobs pinned per workload check it. Why each workload was chosen
is written in README.md next to this file.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable
from unittest import mock

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.bench.datasets import DATASETS, make_dataset
from repro.bench.instances import make_instance
from repro.bench.metrics import evaluate_explanation
from repro.bench.running_example import (
    E1_CORE_SIZE,
    E1_COST,
    running_example_problem,
)
from repro.bench.table2 import make_config
from repro.core import (
    RID,
    AffidavitConfig,
    ConstantValue,
    Explanation,
    Identity,
    PrefixReplacement,
    Scale,
)

__all__ = ["Instance", "Workload", "WORKLOADS", "permute", "e1_accuracy"]


@dataclass
class Instance:
    """One generated instance as plain frames, plus its quality yardsticks."""

    source: pd.DataFrame
    target: pd.DataFrame
    attrs: list[str]
    partitions: int  # partitions make_instance gives the snapshot frames
    ref_cost: float
    ref_core: int
    accuracy: Callable[[Explanation], float]


@dataclass(frozen=True)
class Workload:
    name: str
    config: AffidavitConfig
    # Runs the program's own instance generator; ``setup(name)`` opens a
    # span, so each generator call is timed as its own setup layer.
    generate: Callable[[SparkSession, Callable], Instance]
    generation_seeds: dict
    # The work every search of this workload must do: polls and Spark jobs
    # of one ``run_affidavit`` call (Spark 4.1, AQE on). A search that does
    # other work fails the run, since then the work changed, not the speed.
    polls: int
    jobs: int


def _frames(problem) -> tuple[pd.DataFrame, pd.DataFrame, int]:
    parts = problem.source.rdd.getNumPartitions()
    return problem.source.toPandas(), problem.target.toPandas(), parts


# Figure 1's E1 on the attributes the paper prints in closed form; ID1 and
# ID2 are value maps, given only as the colored alignment.
E1_CLOSED_FORM = {
    "Date": PrefixReplacement("9999123", "2018070"),
    "Type": Identity(),
    "Val": Scale(1.0 / 1000),
    "Unit": ConstantValue("k $"),
    "Org": Identity(),
}
E1_DELETED_IDS = ("S04", "S10", "S14", "S16")


def e1_accuracy(expl: Explanation, attrs: list[str], source: pd.DataFrame) -> float:
    """Share of E1's core cells (closed-form attributes) that the result
    translates as E1 does; the acc of §5.2 with E1 as the reference."""
    core = source[~source["ID1"].isin(E1_DELETED_IDS)]
    by_attr = dict(zip(attrs, expl.functions))
    total = correct = 0
    for a, f_ref in E1_CLOSED_FORM.items():
        got = by_attr[a].apply_series(core[a])
        want = f_ref.apply_series(core[a])
        correct += int(((got == want) | (got.isna() & want.isna())).sum())
        total += len(core)
    return correct / total


def _fig1(spark: SparkSession, setup) -> Instance:
    with setup("setup.make_instance"):
        problem = running_example_problem(spark)
        source, target, parts = _frames(problem)
    attrs = list(problem.attrs)
    return Instance(
        source,
        target,
        attrs,
        parts,
        E1_COST,
        E1_CORE_SIZE,
        lambda expl: e1_accuracy(expl, attrs, source),
    )


DATASET_SEED = 0
INSTANCE_SEED = 1


def _generated(dataset: str, n_rows: int, n_attrs: int, eta: float, tau: float):
    def generate(spark: SparkSession, setup) -> Instance:
        with setup("setup.make_dataset"):
            pdf = make_dataset(
                dataset, n_rows=n_rows, n_attrs=n_attrs, seed=DATASET_SEED
            )
        with setup("setup.make_instance"):
            inst = make_instance(spark, pdf, eta=eta, tau=tau, seed=INSTANCE_SEED)
            source, target, parts = _frames(inst.problem)
        return Instance(
            source,
            target,
            list(inst.problem.attrs),
            parts,
            inst.ref_cost(),
            inst.ref_core_size,
            lambda expl: evaluate_explanation(inst, expl, runtime_s=0.0).acc,
        )

    return generate


def _adult_hs_config(rows: int) -> AffidavitConfig:
    # Table 2's Hs with its quadratic max-block-size rule, applied to the
    # rows generated here instead of the stand-in's bench_rows.
    spec = replace(DATASETS["adult"], bench_rows=rows)
    with mock.patch.dict(DATASETS, {"adult": spec}):
        return make_config("Hs", "adult", seed=2)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "fig1-hs",
            AffidavitConfig(start="overlap", beta=1, queue_width=1, seed=1),
            _fig1,
            {},
            polls=4,
            jobs=157,
        ),
        Workload(
            "adult1k-hs",
            _adult_hs_config(1000),
            _generated("adult", 1000, 3, 0.3, 0.3),
            {"dataset": DATASET_SEED, "instance": INSTANCE_SEED},
            polls=3,
            jobs=102,
        ),
        Workload(
            "adult6k-hs",
            _adult_hs_config(6000),
            _generated("adult", 6000, 3, 0.3, 0.3),
            {"dataset": DATASET_SEED, "instance": INSTANCE_SEED},
            polls=3,
            jobs=88,
        ),
        Workload(
            "balance-hid",
            make_config("Hid", "balance", seed=2),
            _generated("balance", 625, 2, 0.3, 0.3),
            {"dataset": DATASET_SEED, "instance": INSTANCE_SEED},
            polls=8,
            jobs=193,
        ),
    ]
}


def permute(pdf: pd.DataFrame, rng: np.random.Generator) -> pd.DataFrame:
    """Shuffle the rows and relabel the record ids 0..n-1 by a random
    bijection; the multiset of attribute rows is unchanged."""
    n = len(pdf)
    relabel = rng.permutation(n)
    out = pdf.iloc[rng.permutation(n)].reset_index(drop=True)
    out[RID] = relabel[out[RID].to_numpy()]
    return out
