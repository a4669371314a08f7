"""The one SparkSession builder, for the job entrypoints and the tests'
``spark`` fixture (conftest.py) alike.

* Master: ``SPARK_MASTER``, default ``local[*]``.
* Shuffle partitions: ``SPARK_SHUFFLE_PARTITIONS``, default 8; the fixture
  sets 64 through the variable.
* Broadcast joins are disabled, so joins exercise the shuffle path at these
  small data sizes; a query that wants a broadcast join sets the threshold
  back for itself.
* Arrow is on, and the UI and console progress bars are off.
* The codegen cache keeps 100000 entries: one search compiles about 300
  classes, more than the default 100 keep. The setting is static, so it
  holds only because this builder starts the session.
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
