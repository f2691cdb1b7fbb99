"""Spark jobs a block of driver code runs, counted under a job group of its
own.

At lite scale a call's cost is mostly its Spark jobs (fixed scheduling
latency per job), so the tests pin job counts and the figure benchmarks
report them beside their seconds.
"""
from __future__ import annotations

import uuid

from pyspark.sql import SparkSession


class JobCount:
    """Context manager: ``with JobCount(spark, "label") as jobs: ...`` runs
    the block under a fresh ``sc.setJobGroup`` label; ``jobs.n`` is the
    number of Spark jobs it ran, read from Spark's status tracker."""

    def __init__(self, spark: SparkSession, label: str):
        self._sc = spark.sparkContext
        self._group = f"{label}-{uuid.uuid4().hex}"
        self.n: int | None = None

    def __enter__(self) -> "JobCount":
        self._sc.setJobGroup(self._group, self._group)
        return self

    def __exit__(self, *exc) -> None:
        sc = self._sc
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
        # The status store learns of jobs from the listener bus: drain it first.
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        self.n = len(sc.statusTracker().getJobIdsForGroup(self._group))
