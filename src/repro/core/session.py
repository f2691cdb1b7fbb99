"""The harness's one SparkSession configuration.

The test and benchmark suites (root ``conftest.py``) and the jobs
(``jobs/_common.py``) build their session here. Driver memory is not set
here: the JVM reads it at launch, before any builder runs.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def build(app: str) -> SparkSession:
    """A SparkSession named ``app`` with the harness's settings.

    Driver-built graphs and checkpoints keep one partition, which plans no
    shuffle; the shuffle partition count (``SPARK_SHUFFLE_PARTITIONS``)
    reaches only the exchanges the planner still adds (DESIGN.md §5) and
    frames a caller repartitions. Broadcast joins are off. Spark writes no
    progress bar and only its errors to the console, so job logs
    (``results/*.err``) keep the program's own warnings.
    """
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
