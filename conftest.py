import os
import sys


def _driver_mem() -> str:
    """Heap for the Spark driver JVM: half of the machine's ``MemTotal``,
    clamped to 2-8 GiB, the rule of ROADMAP.md's tier-1 command.

    SPARK_DRIVER_MEM overrides it. spark.driver.memory is read at JVM
    launch, not from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS before
    pyspark is imported anywhere — this runs at conftest import, which
    pytest loads before any test module.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    kib = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    kib = int(line.split()[1])
    except (OSError, ValueError):
        pass
    return f"{min(8, max(2, kib // (1 << 21)))}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, built by the
    jobs' ``build_session`` (its docstring gives the settings and why).

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch); the tests run with 64 shuffle partitions unless
    ``SPARK_SHUFFLE_PARTITIONS`` says otherwise.
    """
    # Imported here: affbench/tests load this file too, before they put
    # src/ on the path, and need no session.
    from repro.bench.session import build_session

    os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "64")
    s = build_session("repro")
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
