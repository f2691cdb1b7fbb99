"""NumPy message-passing networks: GraphSAGE and a ClusterGCN-style GCN.

Neighbor aggregation is a linear operator built from the edge list:

* SAGE uses the row-normalized adjacency (mean of in-neighbors'
  features);
* GCN uses D̂^{-1}(A + I) with self-loops.

Both are applied as scatter-adds (``np.add.at``), and their transposes
(needed for backprop) reuse the same edges reversed. Layers are
``H' = act(H W_self + (agg H) W_nb + b)`` — for GCN, ``W_self`` is tied
to zero and self-information flows through the self-loop in the
aggregator, matching Kipf–Welling. Training is full-batch (SAGE) or
cluster-batched (ClusterGCN) manual-backprop Adam.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeanAggregator:
    """Linear operator H -> normalized-adjacency @ H and its transpose."""

    def __init__(
        self, src: np.ndarray, dst: np.ndarray, n: int, *, directed: bool,
        self_loops: bool = False,
    ):
        if not directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if self_loops:
            loops = np.arange(n, dtype=np.int64)
            src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
        # Row v aggregates from its in-neighbors: edges (u -> v).
        self.src, self.dst, self.n = src, dst, n
        deg = np.zeros(n)
        np.add.at(deg, dst, 1.0)
        self.inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)

    def __call__(self, h: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, h.shape[1]))
        np.add.at(out, self.dst, h[self.src])
        return out * self.inv_deg[:, None]

    def transpose(self, h: np.ndarray) -> np.ndarray:
        """(A_norm)^T @ h — normalization applied on the source side."""
        hn = h * self.inv_deg[:, None]
        out = np.zeros((self.n, h.shape[1]))
        np.add.at(out, self.src, hn[self.dst])
        return out


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class Adam:
    """Plain Adam over a list of parameter arrays (in-place updates)."""

    def __init__(self, params: list[np.ndarray], lr: float = 0.01):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mh = m / (1 - b1**self.t)
            vh = v / (1 - b2**self.t)
            p -= self.lr * mh / (np.sqrt(vh) + eps)


@dataclass
class SageParams:
    ws1: np.ndarray
    wn1: np.ndarray
    b1: np.ndarray
    ws2: np.ndarray
    wn2: np.ndarray
    b2: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [self.ws1, self.wn1, self.b1, self.ws2, self.wn2, self.b2]


def init_sage(n_in: int, n_hidden: int, n_out: int, *, seed: int = 0) -> SageParams:
    rng = np.random.default_rng(seed)

    def glorot(a: int, b: int) -> np.ndarray:
        return rng.standard_normal((a, b)) * np.sqrt(2.0 / (a + b))

    return SageParams(
        ws1=glorot(n_in, n_hidden), wn1=glorot(n_in, n_hidden),
        b1=np.zeros(n_hidden),
        ws2=glorot(n_hidden, n_out), wn2=glorot(n_hidden, n_out),
        b2=np.zeros(n_out),
    )


def sage_forward(p: SageParams, x: np.ndarray, agg: MeanAggregator):
    ax = agg(x)
    z1 = x @ p.ws1 + ax @ p.wn1 + p.b1
    h1 = _relu(z1)
    ah1 = agg(h1)
    logits = h1 @ p.ws2 + ah1 @ p.wn2 + p.b2
    return logits, (x, ax, z1, h1, ah1)


def sage_backward(
    p: SageParams, cache, dlogits: np.ndarray, agg: MeanAggregator
) -> list[np.ndarray]:
    x, ax, z1, h1, ah1 = cache
    dws2 = h1.T @ dlogits
    dwn2 = ah1.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dh1 = dlogits @ p.ws2.T + agg.transpose(dlogits) @ p.wn2.T
    dz1 = dh1 * (z1 > 0)
    dws1 = x.T @ dz1
    dwn1 = ax.T @ dz1
    db1 = dz1.sum(axis=0)
    return [dws1, dwn1, db1, dws2, dwn2, db2]


def cross_entropy_grad(
    logits: np.ndarray, y: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Masked mean cross-entropy loss and dL/dlogits.

    A mask with no vertex (a ClusterGCN batch without training labels)
    gives loss 0 and a zero gradient.
    """
    d = np.zeros_like(logits)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0.0, d
    probs = _softmax(logits)
    loss = float(-np.log(np.maximum(probs[idx, y[idx]], 1e-12)).mean())
    d[idx] = probs[idx]
    d[idx, y[idx]] -= 1.0
    return loss, d / idx.size


def train_sage(
    x: np.ndarray, y: np.ndarray, train_mask: np.ndarray, agg: MeanAggregator,
    *, n_hidden: int = 32, epochs: int = 150, lr: float = 0.01, seed: int = 0,
) -> SageParams:
    """Full-batch GraphSAGE training on the given aggregation graph."""
    p = init_sage(x.shape[1], n_hidden, int(y.max()) + 1, seed=seed)
    opt = Adam(p.as_list(), lr=lr)
    for _ in range(epochs):
        logits, cache = sage_forward(p, x, agg)
        _, dlogits = cross_entropy_grad(logits, y, train_mask)
        opt.step(sage_backward(p, cache, dlogits, agg))
    return p


# ---- ClusterGCN-style GCN ------------------------------------------------
@dataclass
class GcnParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


def init_gcn(n_in: int, n_hidden: int, n_out: int, *, seed: int = 0) -> GcnParams:
    rng = np.random.default_rng(seed)

    def glorot(a: int, b: int) -> np.ndarray:
        return rng.standard_normal((a, b)) * np.sqrt(2.0 / (a + b))

    return GcnParams(
        w1=glorot(n_in, n_hidden), b1=np.zeros(n_hidden),
        w2=glorot(n_hidden, n_out), b2=np.zeros(n_out),
    )


def gcn_forward(p: GcnParams, x: np.ndarray, agg: MeanAggregator):
    ax = agg(x)
    z1 = ax @ p.w1 + p.b1
    h1 = _relu(z1)
    ah1 = agg(h1)
    logits = ah1 @ p.w2 + p.b2
    return logits, (ax, z1, h1, ah1)


def gcn_backward(p: GcnParams, cache, dlogits: np.ndarray, agg: MeanAggregator):
    ax, z1, h1, ah1 = cache
    dw2 = ah1.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dh1 = agg.transpose(dlogits) @ p.w2.T
    dz1 = dh1 * (z1 > 0)
    dw1 = ax.T @ dz1
    db1 = dz1.sum(axis=0)
    return [dw1, db1, dw2, db2]


def train_cluster_gcn(
    x: np.ndarray, y: np.ndarray, train_mask: np.ndarray,
    src: np.ndarray, dst: np.ndarray, clusters: np.ndarray,
    *, directed: bool, n_batches: int = 8, n_hidden: int = 32,
    epochs: int = 60, lr: float = 0.01, seed: int = 0,
) -> GcnParams:
    """ClusterGCN: group clusters into batches, per-batch GCN updates.

    ``clusters`` assigns each vertex a partition id (the paper uses METIS
    on the training graph; we pass LPA communities). Each epoch visits
    all batches; each batch trains on its induced subgraph only — the
    ClusterGCN approximation.
    """
    rng = np.random.default_rng(seed)
    n = len(y)
    ids = np.unique(clusters)
    rng.shuffle(ids)
    batch_of_cluster = {int(c): i % n_batches for i, c in enumerate(ids)}
    batch = np.array([batch_of_cluster[int(c)] for c in clusters])
    p = init_gcn(x.shape[1], n_hidden, int(y.max()) + 1, seed=seed)
    opt = Adam(p.as_list(), lr=lr)
    # Precompute per-batch induced subgraphs.
    batches = []
    for b in range(n_batches):
        nodes = np.flatnonzero(batch == b)
        if len(nodes) == 0:
            continue
        remap = -np.ones(n, dtype=np.int64)
        remap[nodes] = np.arange(len(nodes))
        keep = (batch[src] == b) & (batch[dst] == b)
        agg = MeanAggregator(
            remap[src[keep]], remap[dst[keep]], len(nodes),
            directed=directed, self_loops=True,
        )
        batches.append((nodes, agg))
    for _ in range(epochs):
        for nodes, agg in batches:
            logits, cache = gcn_forward(p, x[nodes], agg)
            _, dlogits = cross_entropy_grad(logits, y[nodes], train_mask[nodes])
            opt.step(gcn_backward(p, cache, dlogits, agg))
    return p


# ---- evaluation ----------------------------------------------------------
def accuracy(logits: np.ndarray, y: np.ndarray, mask: np.ndarray) -> float:
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return float("nan")
    return float((logits[idx].argmax(axis=1) == y[idx]).mean())


def macro_auroc(logits: np.ndarray, y: np.ndarray, mask: np.ndarray) -> float:
    """One-vs-rest macro AUROC from softmax scores (rank statistic)."""
    probs = _softmax(logits)
    idx = np.flatnonzero(mask)
    aucs = []
    for c in range(probs.shape[1]):
        pos = y[idx] == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            continue
        order = probs[idx, c].argsort(kind="stable")
        ranks = np.empty(len(idx))
        ranks[order] = np.arange(1, len(idx) + 1)
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        aucs.append(auc)
    return float(np.mean(aucs)) if aucs else float("nan")
