"""Shared helpers for the Spark test modules."""
import pandas as pd

from repro.core.state import RID, Problem


def cached_plans(spark) -> int:
    """The session's cached plans, read or not, counted through the JVM
    with no Spark job."""
    return spark._jsparkSession.sharedState().cacheManager().numCachedEntries()


def make_problem(spark, attrs, source_rows, target_rows) -> Problem:
    """Build a Problem from lists of value tuples (strings or None)."""
    s = pd.DataFrame(source_rows, columns=attrs, dtype="object")
    t = pd.DataFrame(target_rows, columns=attrs, dtype="object")
    s[RID] = range(len(s))
    t[RID] = range(len(t))
    # An explicit schema lets a column hold only nulls, or no rows at all.
    schema = ", ".join([f"`{a}` string" for a in attrs] + [f"{RID} bigint"])
    return Problem(
        spark=spark,
        source=spark.createDataFrame(s, schema).coalesce(1),
        target=spark.createDataFrame(t, schema).coalesce(1),
        attrs=list(attrs),
    )
