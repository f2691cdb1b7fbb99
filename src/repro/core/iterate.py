"""The one fixed-point loop for level-synchronous DataFrame algorithms.

PageRank, power iteration, Katz, label propagation and connected
components are each a loop of ``join state with adjacency -> aggregate``
supersteps. :func:`loop` owns what they share:

* **Lineage control** — each iteration adds a join + aggregate to the
  plan; after a few dozen rounds Catalyst analysis dominates runtime.
  ``loop`` localCheckpoints the initial state and every step's output
  once, so each step starts from a shallow plan.
* **Convergence** — the optional stop test is one cheap ``limit(1)``
  job per round: has any row of the named column changed?

At lite scale a round costs its Spark jobs, so a step is one aggregate
over the union of its messages and one self row per vertex (which keeps
every vertex without a join against the vertex set). A per-round scalar
is read from the checkpointed state with a filter or a one-partition
aggregate, which needs no shuffle.

The frontier loops of :mod:`repro.metrics.paths` and
:mod:`repro.metrics.betweenness` carry a frontier beside their state and
run their own rounds.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def materialize(df: DataFrame) -> DataFrame:
    """Eagerly localCheckpoint ``df``, truncating its lineage."""
    return df.localCheckpoint(eager=True)


def loop(
    state: DataFrame,
    step: Callable[[DataFrame, int], DataFrame],
    *,
    max_iter: int,
    until_stable: str | None = None,
) -> DataFrame:
    """Run ``state = step(state, i)`` for ``i < max_iter``; return the last
    (checkpointed) state.

    With ``until_stable``, stop after the first step that leaves that
    column unchanged on every row; rows are matched on the state's other
    columns.
    """
    state = materialize(state)
    for i in range(max_iter):
        new = materialize(step(state, i))
        if until_stable is not None and _unchanged(state, new, until_stable):
            return new
        state = new
    return state


def _unchanged(prev: DataFrame, new: DataFrame, col: str) -> bool:
    keys = [c for c in prev.columns if c != col]
    changed = (
        prev.withColumnRenamed(col, "_prev")
        .join(new, keys)
        .where(F.col("_prev") != F.col(col))
        .limit(1)
        .count()
    )
    return changed == 0
