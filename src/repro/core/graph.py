"""Edge-list graphs as Spark DataFrames.

A :class:`Graph` wraps one edge-list DataFrame with columns
``src: long, dst: long, weight: double`` plus the graph's type flags.
Vertex ids are dense ``0..n-1`` (the paper reindexes all graphs this way,
§3.1). Undirected graphs store each edge **once** in canonical orientation
``src < dst``; :meth:`Graph.adjacency` expands to both orientations when an
algorithm needs per-vertex incidence. Self-loops are dropped at
construction; parallel edges are merged (max weight) so ``|E|`` counts
simple edges, as in the paper's Table 3.

Every graph the driver builds (:meth:`Graph.from_pandas`: the stand-ins,
their symmetrized views, the driver-side sparsifiers' outputs) keeps its
canonical pandas edge list, so :meth:`Graph.to_pandas_edges` and the
views built on it run no Spark job. Such a graph, like a
:meth:`Graph.checkpointed` one, keeps its edges in one partition, and
:meth:`Graph.vertices` is one slice. Spark plans no exchange over a child
that reports a single partition, so a join, window or aggregate that
reads such a graph runs without a shuffle; under adaptive execution every
exchange is a Spark job of its own, and at lite scale jobs, not rows, are
the cost.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

EDGE_COLUMNS = ("src", "dst", "weight")
EDGE_SCHEMA = "src long, dst long, weight double"


@dataclass
class Graph:
    """A graph over an edge-list DataFrame.

    Attributes:
        edges: DataFrame[src, dst, weight]; canonical ``src < dst`` rows
            for undirected graphs, arbitrary orientation for directed.
        directed: True if edges are one-way.
        weighted: True if ``weight`` carries information (else all 1.0).
        n: number of vertices; ids are ``0..n-1``.
        name: optional label used in reports.
    """

    edges: DataFrame
    directed: bool
    weighted: bool
    n: int
    name: str = ""
    _m: int | None = field(default=None, repr=False, compare=False)
    # The canonical edge list ``edges`` was built from, sorted by
    # (src, dst); None for an edge set Spark computes.
    _pdf: pd.DataFrame | None = field(default=None, repr=False, compare=False)

    # -- construction -------------------------------------------------
    @staticmethod
    def from_pandas(
        spark: SparkSession,
        pdf: pd.DataFrame,
        *,
        directed: bool,
        weighted: bool,
        n: int,
        name: str = "",
    ) -> "Graph":
        """Build a Graph from a pandas edge list (src, dst[, weight]).

        Drops self-loops, fills missing weights with 1.0, folds undirected
        edges into ``src < dst`` orientation, and merges parallel edges by
        max weight, all in pandas: the frame handed to Spark needs no
        ``groupBy`` (under adaptive execution an exchange is a Spark job
        of its own). Rows arrive sorted by ``(src, dst)``, in one
        partition, already counted: the graph is materialized without a
        Spark job, and the driver keeps the canonical frame.
        """
        src = pdf["src"].to_numpy(np.int64)
        dst = pdf["dst"].to_numpy(np.int64)
        if "weight" in pdf.columns:
            weight = pdf["weight"].to_numpy(np.float64)
        else:
            weight = np.ones(len(pdf), dtype=np.float64)
        keep = src != dst
        src, dst, weight = src[keep], dst[keep], weight[keep]
        if not directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        canonical = (
            pd.DataFrame({"src": src, "dst": dst, "weight": weight})
            .groupby(["src", "dst"], as_index=False, sort=True)["weight"]
            .max()
        )
        edges = spark.createDataFrame(canonical, schema=EDGE_SCHEMA).coalesce(1)
        return Graph(
            edges=edges, directed=directed, weighted=weighted, n=n, name=name,
            _m=len(canonical), _pdf=canonical,
        )

    # -- basic accessors ----------------------------------------------
    @property
    def spark(self) -> SparkSession:
        return self.edges.sparkSession

    @property
    def m(self) -> int:
        """Number of (simple) edges; computed once and cached."""
        if self._m is None:
            self._m = self.edges.count()
        return self._m

    def with_edges(self, edges: DataFrame, *, name: str | None = None) -> "Graph":
        """Same graph type over a new edge set (sparsifier output)."""
        return replace(
            self, edges=edges, name=self.name if name is None else name, _m=None,
            _pdf=None,
        )

    def vertices(self) -> DataFrame:
        """DataFrame[v] of all vertex ids, including isolated ones."""
        return self.spark.range(0, self.n, 1, 1).withColumnRenamed("id", "v")

    def adjacency(self) -> DataFrame:
        """Incidence view: DataFrame[src, dst, weight].

        Directed graphs: out-edges as stored. Undirected: both
        orientations, so ``groupBy(src)`` sees every incident edge.
        """
        if self.directed:
            return self.edges
        return self.edges.unionByName(
            self.edges.select(
                F.col("dst").alias("src"), F.col("src").alias("dst"), "weight"
            )
        )

    def reverse_adjacency(self) -> DataFrame:
        """In-edge view (same as adjacency for undirected graphs)."""
        if not self.directed:
            return self.adjacency()
        return self.edges.select(
            F.col("dst").alias("src"), F.col("src").alias("dst"), "weight"
        )

    def degrees(self, *, include_zero: bool = True) -> DataFrame:
        """DataFrame[v, degree] of out-degrees (degree, if undirected).

        ``include_zero`` adds a zero row per vertex to the same aggregate,
        so vertices with no incident edge appear with degree 0.
        """
        rows = self.adjacency().select(F.col("src").alias("v"), F.lit(1).alias("d"))
        if include_zero:
            rows = rows.unionByName(self.vertices().select("v", F.lit(0).alias("d")))
        return rows.groupBy("v").agg(F.sum("d").alias("degree"))

    def symmetrized(self) -> "Graph":
        """Undirected version per §3.1 (adds dst→src edges, merges dups)."""
        if not self.directed:
            return self
        return Graph.from_pandas(
            self.spark,
            self.to_pandas_edges(),
            directed=False,
            weighted=self.weighted,
            n=self.n,
            name=self.name + "+sym" if self.name else "",
        )

    # -- driver-side views (for inherently sequential kernels) --------
    def to_pandas_edges(self) -> pd.DataFrame:
        """The canonical edge list on the driver.

        Ordered by (src, dst) so driver-side kernels (union-find, CSR
        builds, ER sampling) see a deterministic edge order regardless of
        shuffle partitioning. A driver-built graph returns a copy of its
        own frame, with no Spark job; any other graph collects its edges.
        """
        if self._pdf is not None:
            return self._pdf.copy()
        return self.edges.orderBy("src", "dst").toPandas()

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collect edges as (src, dst, weight) int64/int64/float64 arrays."""
        pdf = self.to_pandas_edges()
        return (
            pdf["src"].to_numpy(np.int64),
            pdf["dst"].to_numpy(np.int64),
            pdf["weight"].to_numpy(np.float64),
        )

    def to_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR incidence view (indptr, neighbors, weights) on the driver.

        Uses :meth:`adjacency` semantics: out-edges for directed graphs,
        both orientations for undirected.
        """
        s, d, w = self.to_arrays()
        if not self.directed:
            s, d, w = (
                np.concatenate([s, d]),
                np.concatenate([d, s]),
                np.concatenate([w, w]),
            )
        order = np.argsort(s, kind="stable")
        s, d, w = s[order], d[order], w[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(indptr, s + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, d, w

    def checkpointed(self) -> "Graph":
        """The same graph with its edges checkpointed in one partition,
        lineage truncated, and counted.

        The lazy checkpoint is written by the count's own job, so the two
        cost one Spark job after the edges' own exchanges. A checkpoint
        reports no partitioning, so it is read back through ``coalesce(1)``
        (as :func:`repro.core.iterate.materialize` does).

        Only a driver-built graph is returned as is, with no Spark job: its
        edges are already one partition with no plan behind them. The
        result of a checkpoint is not marked as one, so calling this again
        on it checkpoints and counts again (one more job).
        """
        if self._pdf is not None:
            return self
        edges = self.edges.coalesce(1).localCheckpoint(eager=False).coalesce(1)
        return replace(self, edges=edges, _m=edges.count())
