"""Shared plumbing for the spark-submit job entrypoints.

Mirrors the test-session Spark configuration from ``conftest.py``
(shuffle partitions, Arrow, broadcast joins disabled) and provides the
standard CLI knobs: ``--scale`` (dataset size multiplier), ``--rhos``
(prune-rate sweep), ``--runs`` (seeds for non-deterministic
sparsifiers), ``--seed``, ``--sparsifiers`` (abbreviation subset).
"""
from __future__ import annotations

import argparse
import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config(
            # Materialized graphs and checkpoints keep one partition, which
            # plans no shuffle; this count reaches only lazy frames (a
            # stand-in before its cache) and the exchanges the planner
            # still adds (DESIGN.md §5). Override for bigger inputs.
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"),
        )
        .config("spark.default.parallelism", 16)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        # Keeps results/*.err to warnings, not progress-bar fragments.
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def std_parser(desc: str, *, default_rhos=(0.1, 0.3, 0.5, 0.7, 0.9)) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=2, help="seeds for non-deterministic sparsifiers")
    p.add_argument(
        "--rhos", type=float, nargs="+", default=list(default_rhos),
        help="prune rates to sweep",
    )
    p.add_argument(
        "--sparsifiers", type=str, nargs="+", default=None,
        help="sparsifier abbreviations (default: the figure's subset)",
    )
    return p


def print_results(title: str, results: dict) -> None:
    """Print every DataFrame in a figure-result dict as a pipe table."""
    from repro.core.tables import print_table

    print(f"\n# {title}")
    for key, df in results.items():
        if key.startswith("raw"):
            continue
        print_table(key, df)
