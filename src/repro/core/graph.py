"""Edge-list graphs as Spark DataFrames.

A :class:`Graph` wraps one edge-list DataFrame with columns
``src: long, dst: long, weight: double`` plus the graph's type flags.
Vertex ids are dense ``0..n-1`` (the paper reindexes all graphs this way,
§3.1). Undirected graphs store each edge **once** in canonical orientation
``src < dst``; :meth:`Graph.adjacency` expands to both orientations when an
algorithm needs per-vertex incidence. Self-loops are dropped at
construction; parallel edges are merged (max weight) so ``|E|`` counts
simple edges, as in the paper's Table 3.
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

    # -- construction -------------------------------------------------
    @staticmethod
    def from_edges(
        edges: DataFrame, *, directed: bool, weighted: bool, n: int, name: str = ""
    ) -> "Graph":
        """Canonicalize an arbitrary (src, dst[, weight]) DataFrame.

        Drops self-loops, fills missing weights with 1.0, folds undirected
        edges into ``src < dst`` orientation, and merges parallel edges by
        max weight (deterministic).
        """
        if "weight" not in edges.columns:
            edges = edges.withColumn("weight", F.lit(1.0))
        e = edges.select(
            F.col("src").cast("long"),
            F.col("dst").cast("long"),
            F.col("weight").cast("double"),
        ).where(F.col("src") != F.col("dst"))
        if not directed:
            e = e.select(
                F.least("src", "dst").alias("src"),
                F.greatest("src", "dst").alias("dst"),
                "weight",
            )
        e = e.groupBy("src", "dst").agg(F.max("weight").alias("weight"))
        return Graph(edges=e, directed=directed, weighted=weighted, n=n, name=name)

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
        """Build a Graph from a pandas edge list (src, dst[, weight])."""
        if "weight" not in pdf.columns:
            pdf = pdf.assign(weight=1.0)
        df = spark.createDataFrame(
            pdf[["src", "dst", "weight"]].astype(
                {"src": "int64", "dst": "int64", "weight": "float64"}
            ),
            schema=EDGE_SCHEMA,
        )
        return Graph.from_edges(
            df, directed=directed, weighted=weighted, n=n, name=name
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
            self, edges=edges, name=self.name if name is None else name, _m=None
        )

    def vertices(self) -> DataFrame:
        """DataFrame[v] of all vertex ids, including isolated ones."""
        return self.spark.range(self.n).withColumnRenamed("id", "v")

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
        return Graph.from_edges(
            self.edges,
            directed=False,
            weighted=self.weighted,
            n=self.n,
            name=self.name + "+sym" if self.name else "",
        )

    # -- driver-side views (for inherently sequential kernels) --------
    def to_pandas_edges(self) -> pd.DataFrame:
        """Collect the canonical edge list to the driver.

        Ordered by (src, dst) so driver-side kernels (union-find, CSR
        builds, ER sampling) see a deterministic edge order regardless of
        shuffle partitioning.
        """
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

    def cache(self) -> "Graph":
        self.edges.cache()
        return self

    def checkpointed(self) -> "Graph":
        """Truncate lineage of the edge set (after iterative construction)."""
        return self.with_edges(self.edges.localCheckpoint(eager=True))
