"""Benchmark-session knobs, set before the session ``spark`` fixture builds
the SparkSession: a small shuffle partition count. Materialized graphs keep
their edges in one partition, so it reaches only lazy frames and the
exchanges the planner still adds (DESIGN.md §5)."""
import os

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")
