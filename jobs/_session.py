"""The one SparkSession config, shared by the spark-submit entrypoints,
the benchmark and the test fixture (the root ``conftest.py``).

Arrow on; 8 shuffle partitions keep the tiny iterative peel jobs
low-latency; broadcast autojoin off so shuffle paths are exercised
(iterative loops use explicit broadcast hints where the small side is
provably small).
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
