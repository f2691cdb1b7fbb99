"""The one superstep loop for level-synchronous DataFrame algorithms.

PageRank, power iteration, Katz, label propagation, connected
components, multi-source BFS / Bellman-Ford and Brandes' forward and
backward passes are each a loop of ``join state with adjacency ->
aggregate`` supersteps. :func:`loop` owns what they share:

* **Lineage control** — each iteration adds a join + aggregate to the
  plan; after a few dozen rounds Catalyst analysis dominates runtime.
  ``loop`` localCheckpoints every step's output once, so each step
  starts from a shallow plan. The initial state is not checkpointed: the
  callers pass a projection of the one-slice vertex range or of an
  earlier loop's checkpoint, which has no lineage to truncate.
* **Convergence** — Pregel's vote to halt: a step flags every row it
  changed in a boolean column, and the loop stops after the first step
  that flags none, one cheap ``limit(1)`` job per round over the
  checkpoint it already holds.

At lite scale a round costs its Spark jobs, so a step is one aggregate
over the union of its messages and one own row per vertex (which keeps
every vertex without a join against the vertex set, and lets the same
aggregate compare the new value with the own one to set the flag). A
per-round scalar stays in the plan as an aggregate over
``Window.partitionBy()``: the checkpointed state is one partition, which
satisfies the window's all-rows distribution, so it costs neither a
shuffle nor a driver ``collect()``.
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
    until_none: str | None = None,
) -> DataFrame:
    """Run ``state = step(state, i)`` for ``i < max_iter``; return the last
    state (checkpointed, unless ``max_iter`` is 0).

    With ``until_none``, the name of a boolean column that each step sets
    on the rows it changed, stop after the first step that flags no row.
    """
    for i in range(max_iter):
        state = materialize(step(state, i))
        if until_none and state.where(F.col(until_none)).limit(1).count() == 0:
            break
    return state
