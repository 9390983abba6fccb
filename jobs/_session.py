"""The one SparkSession config, shared by the spark-submit entrypoints,
the benchmark and the test fixture (the root ``conftest.py``).

Arrow on, so a pandas frame crosses into or out of Spark (the lift's
``createDataFrame``, a ``toPandas``) as one columnar transfer, as the
collect's ``toArrow`` always does; 8 shuffle partitions keep the small
jobs left (the lift's edge dedup, Table I's degrees, the DuckDB-checked
test queries) low-latency; broadcast autojoin off so shuffle paths are
exercised.
"""
from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
