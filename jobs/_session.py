"""The one SparkSession config, shared by the spark-submit entrypoints,
the benchmark and the test fixture (the root ``conftest.py``).

Arrow on, so a pandas frame crosses into or out of Spark (the lift's
``createDataFrame``, a ``toPandas``) as one columnar transfer, as the
collect's ``toArrow`` always does. The pipeline itself never shuffles:
the lift, its checkpoint and the collect are narrow. The only shuffles
left are the DuckDB-checked test queries' ``groupBy``
(``tests/test_oracle_synth.py``), which 8 shuffle partitions keep
low-latency.
"""
from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
