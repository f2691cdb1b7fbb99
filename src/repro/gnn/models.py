"""One NumPy two-layer message-passing network, in two configurations.

A layer is ``H' = act(H Ws + (agg H) Wn + b)``, where ``agg`` is the
row-normalized adjacency built from the edge list (the mean of
in-neighbors' features), applied as scatter-adds (``np.add.at``); its
transpose, for backprop, reuses the edges reversed. GraphSAGE is the
layer as written, trained full-batch. The ClusterGCN-style GCN
(``gcn=True``) has no ``Ws``: self-information flows through the
self-loops of its aggregator, D̂^{-1}(A + I) (Kipf–Welling), and it
trains on cluster batches. Training is manual-backprop Adam over
``(nodes, aggregator)`` batches.
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


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
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
            p -= self.lr * (m / (1 - b1**self.t)) / (np.sqrt(v / (1 - b2**self.t)) + eps)


@dataclass
class Params:
    """Both layers' weights. GCN has no ``ws1``/``ws2`` (``None``)."""

    ws1: np.ndarray | None
    wn1: np.ndarray
    b1: np.ndarray
    ws2: np.ndarray | None
    wn2: np.ndarray
    b2: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [w for w in vars(self).values() if w is not None]


def init(n_in: int, n_hidden: int, n_out: int, *, gcn: bool, seed: int = 0) -> Params:
    """Glorot weights, zero biases; ``gcn`` drops the self weights."""
    rng = np.random.default_rng(seed)

    def glorot(a: int, b: int) -> np.ndarray:
        return rng.standard_normal((a, b)) * np.sqrt(2.0 / (a + b))

    def layer(a: int, b: int):
        ws = None if gcn else glorot(a, b)
        return ws, glorot(a, b), np.zeros(b)

    return Params(*layer(n_in, n_hidden), *layer(n_hidden, n_out))


def _linear(
    h: np.ndarray, ah: np.ndarray, ws: np.ndarray | None, wn: np.ndarray, b: np.ndarray
) -> np.ndarray:
    return (ah @ wn if ws is None else h @ ws + ah @ wn) + b


def forward(p: Params, x: np.ndarray, agg: MeanAggregator):
    ax = agg(x)
    z1 = _linear(x, ax, p.ws1, p.wn1, p.b1)
    h1 = np.maximum(z1, 0.0)
    ah1 = agg(h1)
    logits = _linear(h1, ah1, p.ws2, p.wn2, p.b2)
    return logits, (x, ax, z1, h1, ah1)


def _linear_grads(
    h: np.ndarray, ah: np.ndarray, dz: np.ndarray, ws: np.ndarray | None
) -> list[np.ndarray]:
    """Gradients of one layer's weights, in :meth:`Params.as_list` order."""
    grads = [ah.T @ dz, dz.sum(axis=0)]
    return grads if ws is None else [h.T @ dz, *grads]


def backward(p: Params, cache, dlogits: np.ndarray, agg: MeanAggregator) -> list[np.ndarray]:
    x, ax, z1, h1, ah1 = cache
    dh1 = agg.transpose(dlogits) @ p.wn2.T
    if p.ws2 is not None:
        dh1 = dlogits @ p.ws2.T + dh1
    dz1 = dh1 * (z1 > 0)
    return [*_linear_grads(x, ax, dz1, p.ws1), *_linear_grads(h1, ah1, dlogits, p.ws2)]


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


def cluster_batches(
    src: np.ndarray, dst: np.ndarray, clusters: np.ndarray, *, directed: bool,
    n_batches: int, seed: int = 0,
) -> list[tuple[np.ndarray, MeanAggregator]]:
    """ClusterGCN batches: clusters shuffled into ``n_batches`` groups, each
    a ``(nodes, aggregator)`` pair over its induced subgraph only — the
    ClusterGCN approximation.

    ``clusters`` assigns each vertex a partition id (the paper uses METIS
    on the training graph; we pass LPA communities). Aggregators carry
    self-loops, as GCN's do.
    """
    rng = np.random.default_rng(seed)
    ids, cluster = np.unique(clusters, return_inverse=True)
    # The i-th cluster of a random order goes to batch i % n_batches.
    batch = np.argsort(rng.permutation(len(ids)))[cluster] % n_batches
    batches = []
    for b in np.unique(batch):
        nodes = np.flatnonzero(batch == b)
        local = np.cumsum(batch == b) - 1  # a batch vertex's row in its batch
        keep = (batch[src] == b) & (batch[dst] == b)
        agg = MeanAggregator(
            local[src[keep]], local[dst[keep]], len(nodes), directed=directed, self_loops=True
        )
        batches.append((nodes, agg))
    return batches


def train(
    x: np.ndarray, y: np.ndarray, train_mask: np.ndarray,
    batches: list[tuple[np.ndarray, MeanAggregator]], *, gcn: bool,
    n_hidden: int = 32, epochs: int, lr: float = 0.01, seed: int = 0,
) -> Params:
    """Adam over ``(nodes, aggregator)`` batches, every batch once an
    epoch. Full-batch GraphSAGE is one batch of every vertex."""
    p = init(x.shape[1], n_hidden, int(y.max()) + 1, gcn=gcn, seed=seed)
    opt = Adam(p.as_list(), lr=lr)
    for _ in range(epochs):
        for nodes, agg in batches:
            logits, cache = forward(p, x[nodes], agg)
            _, dlogits = cross_entropy_grad(logits, y[nodes], train_mask[nodes])
            opt.step(backward(p, cache, dlogits, agg))
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
