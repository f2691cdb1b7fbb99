"""Laplacian quadratic form preservation (§2.2.1, §3.3.1).

For an undirected graph, ``x^T L x = sum_e w_e (x_u - x_v)^2`` — an
edge-local sum, so it is computed as a DataFrame join of the edge list
with a (vertex, vector-index, value) table of random test vectors. The
reported statistic is the mean over ``k`` random vectors of the ratio
``x^T L_sparse x / x^T L x`` (closer to 1 is better; ER-weighted is the
only sparsifier designed to keep it there).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.core.graph import Graph


def random_vectors(n: int, k: int, *, seed: int = 0) -> pd.DataFrame:
    """Long-format (v, vec, x) table of k random N(0,1) test vectors."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    return pd.DataFrame(
        {
            "v": np.repeat(np.arange(n, dtype=np.int64), k),
            "vec": np.tile(np.arange(k, dtype=np.int64), n),
            "x": x.ravel(),
        }
    )


def quadratic_forms(g: Graph, vectors: pd.DataFrame) -> pd.Series:
    """``x_vec^T L x_vec`` per test vector, indexed by ``vec``."""
    gu = g.symmetrized()
    vec_df = g.spark.createDataFrame(vectors, schema="v long, vec long, x double")
    xu = vec_df.select(F.col("v").alias("src"), "vec", F.col("x").alias("xu"))
    xv = vec_df.select(F.col("v").alias("dst"), "vec", F.col("x").alias("xv"))
    qf = (
        gu.edges.join(xu, "src")
        .join(xv, ["dst", "vec"])
        .groupBy("vec")
        .agg(
            F.sum(F.col("weight") * (F.col("xu") - F.col("xv")) ** 2).alias("qf")
        )
    )
    return qf.toPandas().set_index("vec")["qf"]


def quadratic_form_ratio(qf0: pd.Series, qf1: pd.Series) -> float:
    """Mean over test vectors of x^T L_sparse x / x^T L_orig x, from the
    :func:`quadratic_forms` of the original (``qf0``) and the sparsified
    graph (``qf1``) on the same vectors."""
    return float((qf1 / qf0).mean())
