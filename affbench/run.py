"""Affidavit benchmark: one workload, one driver process, one client.

Run from the root of a checkout of the repository:

    python3 affbench/run.py --workload adult1k-hs --seed 1 --seconds 30 --trace 0

The run starts one Spark session with a fixed ``local[k]`` master, builds
the workload's snapshots ``SETUP_REPEATS`` times (``setup_s``), and then
runs ``repro.core.run_affidavit`` once, on freshly built snapshot frames,
in the fresh JVM (``first_search_s``); the search is checked and cleaned
up after it returns. A run's work is fixed: it does not grow or shrink
with ``--seconds``, which one search of a listed workload roughly fills.

With ``--trace 1`` two more searches follow, each on fresh frames: an
untraced one, then one with every call into the search's layers wrapped
(spans.py), and the run reports the per-layer metrics instead. The last
line of standard output is the result as one JSON object; the lines
before it are a report: the hygiene block, every search in order and
every failure with its cause. README.md explains the workloads and which
layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

# One task thread and a heap fixed at its maximum size: of the settings
# tried on 4 cores this gave the steadiest times from process to process
# (README.md, warm-up measurements).
MASTER = "local[1]"
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
SETUP_REPEATS = 3
WORK_DIR = ".affbench-work"
SETUP_LAYERS = (
    "setup.session",
    "setup.make_dataset",
    "setup.make_instance",
    "setup.snapshots",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _prepare_environment(root: Path) -> Path:
    """Point the JVM, the Python workers and every scratch directory into
    the checkout. Must run before pyspark is imported."""
    src = root / "src"
    work = root / WORK_DIR
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True
    tempfile.tempdir = str(tmp)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    # No hsperfdata files: the JVMs write nothing outside the checkout.
    jvm_tmp = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(f'-Xms{DRIVER_MEMORY} {jvm_tmp}')} "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell"
    )
    return work


def _start_session(work: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("affbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # Keep every job and stage of the run in the status store, so the
        # per-group job and task counts are exact.
        .config("spark.ui.retainedJobs", 1_000_000)
        .config("spark.ui.retainedStages", 1_000_000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_session(spark) -> None:
    """Stop Spark and wait until the JVM (and with it the Python worker
    daemon it started) has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on end of input
        proc.wait(timeout=60)


class SparkFacts:
    """The few facts the benchmark reads from Spark, behind one object."""

    def __init__(self, spark):
        self.spark = spark
        self.sc = spark.sparkContext
        self.tracker = self.sc.statusTracker()

    def probe(self, group: str) -> int:
        """Run one tiny job under ``group`` and return its job id. Job ids
        are numbered in start order, so two probes bound the ids of every
        job started between them."""
        self.set_group(group)
        try:
            self.spark.range(1).collect()
        finally:
            self.set_group(None)
        self.drain()
        ids = self.tracker.getJobIdsForGroup(group)
        if len(ids) != 1:
            raise RuntimeError(f"probe {group} ran {len(ids)} Spark jobs, not 1")
        return ids[0]

    def set_group(self, group: str | None) -> None:
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(group, "affbench")

    def drain(self) -> None:
        """Wait until the status store has seen every finished job."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()

    def job_stats(self, group: str) -> tuple[int, int, int]:
        """(jobs, tasks completed, tasks failed) run under ``group``."""
        jobs = self.tracker.getJobIdsForGroup(group)
        stages: set[int] = set()
        for j in jobs:
            info = self.tracker.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        tasks = failed = 0
        for s in stages:
            info = self.tracker.getStageInfo(s)
            if info is not None:
                tasks += info.numCompletedTasks
                failed += info.numFailedTasks
        return len(jobs), tasks, failed

    def persisted(self) -> int:
        return len(self.sc._jsc.getPersistentRDDs())

    def peak_rss_mb(self) -> float:
        """VmHWM of the driver JVM plus the Python driver's max RSS."""
        pid = self.spark._jvm.java.lang.ProcessHandle.current().pid()
        jvm_kb = None
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                jvm_kb = int(line.split()[1])
        if jvm_kb is None:
            raise RuntimeError(f"no VmHWM for the driver JVM (pid {pid})")
        py_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (jvm_kb + py_kb) / 1024.0

    def hygiene(self, workload, seed: int) -> dict:
        import pandas
        import pyarrow

        conf = self.spark.conf
        jvm = self.spark._jvm
        return {
            "spark": self.spark.version,
            "java": jvm.java.lang.System.getProperty("java.version"),
            "jvm_options": os.environ["PYSPARK_SUBMIT_ARGS"],
            "python": platform.python_version(),
            "pandas": pandas.__version__,
            "pyarrow": pyarrow.__version__,
            "master": self.sc.master,
            "nproc": os.cpu_count(),
            "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "aqe": conf.get("spark.sql.adaptive.enabled"),
            "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
            "driver_memory": self.sc.getConf().get("spark.driver.memory"),
            "benchmark_seed": seed,
            "generation_seeds": workload.generation_seeds,
            "pinned_work": {"polls": workload.polls, "jobs": workload.jobs},
            "search_config": vars(workload.config),
        }


class Bench:
    """One workload's closed loop: build, search, check, release."""

    def __init__(self, facts: SparkFacts, workload, seed: int, recorder):
        self.facts = facts
        self.workload = workload
        self.seed = seed
        self.rec = recorder
        self.searches: list[dict] = []
        self.traced_spans: list = []

    def build(self, setup) -> tuple[float, dict]:
        """Fresh snapshot frames, materialised, and the Problem over them.
        Every build of a run uses the same permutation, the one ``--seed``
        draws: the search's work depends on the row order (README.md)."""
        import numpy as np

        from repro.core import Problem

        from workloads import permute

        spark = self.facts.spark
        t0 = time.perf_counter()
        inst = self.workload.generate(spark, setup)
        with setup("setup.snapshots"):
            rng = np.random.default_rng(self.seed)
            source = permute(inst.source, rng)
            target = permute(inst.target, rng)
            frames = [
                spark.createDataFrame(pdf).coalesce(inst.partitions).cache()
                for pdf in (source, target)
            ]
            for df in frames:
                df.count()
            problem = Problem(spark, frames[0], frames[1], list(inst.attrs))
        built = dict(inst=inst, source=source, target=target, problem=problem)
        return time.perf_counter() - t0, built

    def release(self, built: dict) -> None:
        for df in (built["problem"].source, built["problem"].target):
            df.unpersist()
        self.facts.spark.catalog.clearCache()

    def search(self, *, traced: bool) -> dict:
        import pandas as pd

        from repro.core import run_affidavit, trivial_explanation

        from checks import check_explanation
        from spans import instrument

        k = len(self.searches)
        cfg = self.workload.config
        setup = self.rec.span if traced else (lambda name: nullcontext())
        first_span = len(self.rec.spans)
        setup_s, built = self.build(setup)
        inst, problem = built["inst"], built["problem"]

        before = self.facts.persisted()
        expl = diag = root = None
        causes: list[str] = []
        group = f"search-{k}"
        if traced:
            first_id = self.facts.probe(f"probe-{k}-before")
        else:
            self.facts.set_group(group)
        t1 = time.perf_counter()
        try:
            if traced:
                with instrument(self.rec), self.rec.span("affidavit") as root:
                    expl, diag = run_affidavit(problem, cfg)
            else:
                expl, diag = run_affidavit(problem, cfg)
        except Exception as exc:  # a failed search is counted, not retried
            causes.append(f"search raised {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - t1
            if not traced:
                self.facts.set_group(None)
        if root is not None:
            elapsed = root.end - root.start

        # Everything below is outside the timed region.
        self.facts.drain()
        if traced:
            spans = self.traced_spans = self.rec.spans[first_span:]
            for sp in spans:
                sp.counts["jobs"], sp.counts["tasks"], sp.counts["failed"] = (
                    self.facts.job_stats(sp.group)
                )
            in_search = [sp for sp in spans if not sp.name.startswith("setup.")]
            jobs = sum(sp.counts["jobs"] for sp in in_search)
            tasks = sum(sp.counts["tasks"] for sp in in_search)
            failed_tasks = sum(sp.counts["failed"] for sp in in_search)
            # Every job started between the probes must have run under the
            # group of one of the search's spans.
            started = self.facts.probe(f"probe-{k}-after") - first_id - 1
            if started != jobs:
                causes.append(
                    f"{started} Spark jobs started during the traced search,"
                    f" {jobs} ran under a layer's job group"
                )
        else:
            jobs, tasks, failed_tasks = self.facts.job_stats(group)
        persisted_after = self.facts.persisted() - before

        rec = {
            "k": k,
            "traced": traced,
            "setup_s": setup_s,
            "search_s": elapsed,
            "jobs": jobs,
            "tasks": tasks,
            "failed_tasks": failed_tasks,
            "persisted_after": persisted_after,
        }
        if expl is not None:
            if expl.core_pairs is not None:
                pairs = expl.core_pairs.toPandas()
                expl.core_pairs.unpersist()
            else:
                pairs = pd.DataFrame({"s_rid": [], "t_rid": []})
            causes += check_explanation(
                expl,
                pairs,
                built["source"],
                built["target"],
                list(inst.attrs),
                trivial_cost=trivial_explanation(problem).cost(cfg.alpha),
                reached_end=diag.end_state is not None and diag.end_state.is_end,
                alpha=cfg.alpha,
            )
            rec.update(
                polls=diag.polls,
                generated=diag.generated,
                cost=expl.cost(cfg.alpha),
                cost_ratio=expl.cost(cfg.alpha) / inst.ref_cost,
                core=expl.core_size,
                dcore=expl.core_size / inst.ref_core,
                acc=inst.accuracy(expl),
            )
        self.release(built)
        left = self.facts.persisted()
        if left:
            causes.append(f"{left} cached RDDs left after cleanup")
        if failed_tasks:
            causes.append(f"{failed_tasks} Spark tasks failed")
        rec["causes"] = causes
        self.searches.append(rec)
        return rec


def layer_metrics(spans, search: dict, base: dict) -> dict[str, float]:
    """Per-layer figures of one traced search (plus the session span)."""
    from spans import SEARCH_LAYERS, self_times

    names = [name for name, _, _ in SEARCH_LAYERS] + list(SETUP_LAYERS)
    out: dict[str, float] = {}
    for name in names:
        out.update({f"{name}.calls": 0, f"{name}.self_s": 0.0})
        out.update({f"{name}.jobs": 0, f"{name}.tasks": 0})
    pairs = kept = 0
    for sp, self_s in zip(spans, self_times(spans)):
        if sp.name == "affidavit":
            out["affidavit.self_s"] = self_s
            continue
        out[f"{sp.name}.calls"] += 1
        out[f"{sp.name}.self_s"] += self_s
        out[f"{sp.name}.jobs"] += sp.counts.get("jobs", 0)
        out[f"{sp.name}.tasks"] += sp.counts.get("tasks", 0)
        pairs += sp.counts.get("pairs", 0)
        kept += sp.counts.get("kept", 0)
    polls = search.get("polls", 0)  # missing when the search raised
    out["candidates.induce_attr_candidates.kept"] = kept
    out["affidavit.polls"] = polls
    out["affidavit.generated"] = search.get("generated", 0)
    out["affidavit.jobs"] = search["jobs"]
    out["affidavit.jobs_per_poll"] = search["jobs"] / polls if polls else 0.0
    out["affidavit.yield"] = out["affidavit.generated"] / pairs if pairs else 0.0
    out["affidavit.traced_s"] = search["search_s"]
    out["spark.persisted_after"] = search["persisted_after"]
    out["spark.failed_tasks"] = search["failed_tasks"]
    out["trace_overhead"] = search["search_s"] / base["search_s"]
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("affidavit.jobs_per_poll", "affidavit.yield", "trace_overhead"):
        return "ratio"
    return "count"


def _self_checks(searches: list[dict], workload) -> list[str]:
    problems = []
    for s in searches:
        work = (s.get("polls"), s["jobs"])
        if work != (workload.polls, workload.jobs):
            problems.append(
                f"search {s['k']} made (polls, jobs) {work}, the workload"
                f" pins {(workload.polls, workload.jobs)}: the work changed,"
                " not the speed"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    t_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "repro" / "core" / "affidavit.py").is_file():
        print(
            "affbench: src/repro not found; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    work = _prepare_environment(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from spans import Recorder, Span
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"affbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    spark = _start_session(work)
    session_s = time.perf_counter() - t_start
    try:
        facts = SparkFacts(spark)
        rec = Recorder(facts.set_group, prefix="span")
        rec.spans.append(Span("setup.session", t_start, t_start + session_s))
        bench = Bench(facts, workload, args.seed, rec)

        builds = []
        for _ in range(SETUP_REPEATS):
            seconds, built = bench.build(lambda name: nullcontext())
            bench.release(built)
            builds.append(seconds)

        first = bench.search(traced=False)
        if args.trace:
            # The untraced search right before the traced one is the base
            # of trace_overhead; the cold first search would overstate it.
            base = bench.search(traced=False)
            traced = bench.search(traced=True)

        searches = bench.searches
        failures = [
            {"search": s["k"], "causes": s["causes"]} for s in searches if s["causes"]
        ]
        self_problems = _self_checks(searches, workload)
        if args.trace:
            # The session span and the traced search's own spans.
            layer = layer_metrics(rec.spans[:1] + bench.traced_spans, traced, base)
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
        else:
            metrics = {
                "first_search_s": first["search_s"],
                "setup_s": session_s + statistics.median(builds),
                "peak_rss_mb": facts.peak_rss_mb(),
                # Missing when the search raised; the run is then failed.
                "cost_ratio": first.get("cost_ratio", float("inf")),
                "acc": first.get("acc", 0.0),
            }
            units = {"peak_rss_mb": "MB", "cost_ratio": "ratio", "acc": "ratio"}
            metrics = {
                k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()
            }
        report = {
            "workload": workload.name,
            "hygiene": facts.hygiene(workload, args.seed),
            "session_s": session_s,
            "setup_builds_s": builds,
            "searches": searches,
            "failures": failures,
            "self_checks_failed": self_problems,
        }
    finally:
        _stop_session(spark)

    print(json.dumps(report, indent=1, default=str))
    failed = len(failures)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not self_problems,
                "attempted": len(searches),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
