"""Vertex features, labels and splits for the GNN experiments.

The paper's GNN graphs (Reddit, ogbn-proteins) have community-correlated
features. Our SBM stand-ins provide the planted community as the label;
features are noisy class centroids, with the signal-to-noise ratio tuned
so a structure-blind MLP (the paper's red "empty graph" line) lands well
below the full-graph GNN (green line) — the gap the sparsifiers are
scored in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NodeData:
    """Features/labels/splits for one graph."""

    x: np.ndarray  # (n, f) float64
    y: np.ndarray  # (n,) int64 class ids
    train_mask: np.ndarray  # (n,) bool
    val_mask: np.ndarray
    test_mask: np.ndarray


def make_node_data(
    labels: np.ndarray,
    *,
    n_features: int = 32,
    signal: float = 0.55,
    seed: int = 0,
    train_frac: float = 0.6,
    val_frac: float = 0.2,
) -> NodeData:
    """Noisy-centroid features + random 60/20/20 split over ``labels``."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    k = int(labels.max()) + 1
    centers = rng.standard_normal((k, n_features))
    x = signal * centers[labels] + rng.standard_normal((n, n_features))
    perm = rng.permutation(n)
    n_train = int(train_frac * n)
    n_val = int(val_frac * n)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:n_train]] = True
    val[perm[n_train : n_train + n_val]] = True
    test[perm[n_train + n_val :]] = True
    return NodeData(x=x, y=labels.astype(np.int64), train_mask=train, val_mask=val, test_mask=test)
