"""Graph preparation pipeline (paper §3.1).

1. Remove isolated vertices (no incident edge) and reindex the remaining
   vertices to dense zero-based ids — order-preserving, so any per-vertex
   side data (e.g. SBM labels) can be realigned with the returned mapping.
   This runs on the generator's pandas edge list, before the graph
   becomes a DataFrame.
2. For directed graphs, :func:`repro.core.graph.Graph.symmetrized` builds
   the undirected version used by undirected-only sparsifiers.

:func:`used_vertices` and :func:`isolated_count` ask the same question
of a built :class:`Graph`, as DataFrame jobs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graph import Graph


def used_vertices(g: Graph) -> DataFrame:
    """DataFrame[v] of vertices with at least one incident edge."""
    return (
        g.edges.select(F.col("src").alias("v"))
        .unionByName(g.edges.select(F.col("dst").alias("v")))
        .distinct()
    )


def drop_isolated_and_reindex(edges: pd.DataFrame) -> tuple[pd.DataFrame, np.ndarray]:
    """§3.1 step 1: drop isolated vertices, reindex dense and zero-based.

    ``edges`` is a pandas edge list (src, dst[, weight]). Self-loops are
    dropped first, as :meth:`Graph.from_pandas` drops them, so a vertex
    whose only edge is a self-loop counts as isolated. Returns
    ``(edges, old_ids)`` where ``old_ids[new_id] = old_id`` (sorted
    ascending, so the relabelling is order-preserving); the new graph has
    ``len(old_ids)`` vertices.
    """
    e = edges[edges["src"].to_numpy() != edges["dst"].to_numpy()]
    old_ids = np.unique(np.concatenate([e["src"].to_numpy(), e["dst"].to_numpy()]))
    e = e.assign(
        src=np.searchsorted(old_ids, e["src"].to_numpy()),
        dst=np.searchsorted(old_ids, e["dst"].to_numpy()),
    )
    return e, old_ids.astype(np.int64)


def isolated_count(g: Graph) -> int:
    """Number of vertices of ``g`` with no incident edge."""
    return g.n - used_vertices(g).count()
