"""The one fixed-point loop for level-synchronous DataFrame algorithms.

PageRank, power iteration, Katz, label propagation and connected
components are each a loop of ``join state with adjacency -> aggregate``
supersteps. :func:`loop` owns what they share:

* **Lineage control** — each iteration adds a join + aggregate to the
  plan; after a few dozen rounds Catalyst analysis dominates runtime.
  ``loop`` localCheckpoints every step's output once, so each step
  starts from a shallow plan. The initial state is not checkpointed: the
  callers pass a projection of the one-slice vertex range, which has no
  lineage to truncate.
* **Convergence** — the optional stop test is one cheap ``limit(1)``
  job per round: has any row of the named column changed?

At lite scale a round costs its Spark jobs, so a step is one aggregate
over the union of its messages and one self row per vertex (which keeps
every vertex without a join against the vertex set). A per-round scalar
stays in the plan as an aggregate over ``Window.partitionBy()``: the
checkpointed state is one partition, which satisfies the window's
all-rows distribution, so it costs neither a shuffle nor a driver
``collect()``.

The frontier loops of :mod:`repro.metrics.paths` and
:mod:`repro.metrics.betweenness` carry a frontier beside their state and
run their own rounds.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def materialize(df: DataFrame) -> DataFrame:
    """Eagerly localCheckpoint ``df``, truncating its lineage, and read it
    as one partition.

    A checkpoint of an adaptive plan reports no partitioning; the
    ``coalesce(1)`` over it reports a single partition again, so the plans
    that read it need no exchange of their own (DESIGN.md §5).
    """
    return df.localCheckpoint(eager=True).coalesce(1)


def loop(
    state: DataFrame,
    step: Callable[[DataFrame, int], DataFrame],
    *,
    max_iter: int,
    until_stable: str | None = None,
) -> DataFrame:
    """Run ``state = step(state, i)`` for ``i < max_iter``; return the last
    state (checkpointed, unless ``max_iter`` is 0).

    With ``until_stable``, stop after the first step that leaves that
    column unchanged on every row; rows are matched on the state's other
    columns.
    """
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
