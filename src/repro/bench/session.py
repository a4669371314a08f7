"""SparkSession builder for the spark-submit job entrypoints.

Tests use the ``spark`` fixture from conftest.py (do not build sessions in
tests); jobs run standalone and need an equivalent session: local master,
broadcast joins disabled, Arrow on, console progress off (the Table 2 grid
runs many concurrent tiny jobs whose progress bars would interleave), and
a codegen cache large enough for the about 300 classes one search
compiles (a static setting, so it must be set before the session starts).
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def build_session(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.codegen.cache.maxEntries", 100000)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
