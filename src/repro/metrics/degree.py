"""Degree distribution preservation (§2.2.1, §3.3.1).

The sparsified graph's degree distribution is compared to the original's
with the Bhattacharyya distance between 100-bin histograms, each over
its own graph's degree range (paper: "evenly divide the discrete degree
distribution into 100 bins for all graphs"). The original's histogram
is computed once per figure and compared with every sparsified graph's.
"""
from __future__ import annotations

import numpy as np

from repro.core.graph import Graph


def degree_counts(g: Graph) -> np.ndarray:
    """Array of per-vertex degrees (out-degree for directed), incl. zeros."""
    pdf = g.degrees(include_zero=True).toPandas()
    return pdf.sort_values("v")["degree"].to_numpy(np.int64)


def histogram(degrees: np.ndarray, *, bins: int, max_degree: int | None = None) -> np.ndarray:
    """Probability histogram over ``bins`` equal-width bins on [0, max].

    ``max_degree`` defaults to the distribution's own maximum: the paper
    bins every graph's degree distribution into 100 equal bins, which
    normalizes the *shape* — uniform thinning (Random) then maps the
    distribution onto itself, while degree-biased sparsifiers distort it.
    """
    if max_degree is None:
        max_degree = int(degrees.max()) if len(degrees) else 1
    edges = np.linspace(0, max(max_degree, 1), bins + 1)
    h, _ = np.histogram(np.clip(degrees, 0, max_degree), bins=edges)
    total = h.sum()
    return h / total if total else h.astype(float)


def bhattacharyya(p: np.ndarray, q: np.ndarray) -> float:
    """B_d(P, Q) = -ln(sum_x sqrt(P(x) Q(x))); 0 means identical."""
    bc = float(np.sum(np.sqrt(p * q)))
    return float(-np.log(max(bc, 1e-300)))


def degree_histogram(g: Graph) -> np.ndarray:
    """The per-graph statistic of Fig 2: ``g``'s 100-bin degree histogram
    over its own degree range; compare two with :func:`bhattacharyya`."""
    return histogram(degree_counts(g), bins=100)
