"""Min-cut / max-flow preservation (§2.2.5, §3.3.4).

Per-pair max-flow is computed with Dinic's algorithm — blocking-flow
phases over a level graph — which is inherently sequential per pair and
therefore runs on the driver over a collected edge list (DESIGN.md §2).
Undirected edges become two opposite arcs of the edge's capacity;
directed edges one arc (with a zero-capacity reverse arc for the
residual graph).

The paper's statistic is the mean stretch ``flow_sparse / flow_orig``
over sampled (s, t) pairs, excluding pairs disconnected in the original
graph (Table 1 footnote) and reporting the newly-zero fraction
separately so the §4.5 "<20% unreachable" constraint can be applied.
"""
from __future__ import annotations

import numpy as np

from repro.core.graph import Graph


class _Dinic:
    """Dinic max-flow over an arc-list residual graph."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[float] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, c: float, c_rev: float = 0.0) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(c_rev)

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 1e-12 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    queue.append(v)
        return self.level[t] >= 0

    def _augment(self, s: int, t: int) -> float:
        """Push one augmenting path of the level graph; return its flow.

        Depth-first with an explicit arc stack (paths can be as long as
        the graph); each vertex's current-arc pointer ``it`` skips arcs
        already found to lead nowhere in this phase.
        """
        path: list[int] = []
        u = s
        while u != t:
            while self.it[u] < len(self.head[u]):
                e = self.head[u][self.it[u]]
                if self.cap[e] > 1e-12 and self.level[self.to[e]] == self.level[u] + 1:
                    break
                self.it[u] += 1
            else:
                if not path:
                    return 0.0
                u = self.to[path.pop() ^ 1]  # retreat to the arc's tail
                self.it[u] += 1
                continue
            path.append(e)
            u = self.to[e]
        f = min(self.cap[e] for e in path)
        for e in path:
            self.cap[e] -= f
            self.cap[e ^ 1] += f
        return f

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while (f := self._augment(s, t)) > 1e-12:
                flow += f
        return flow


def max_flow_values(g: Graph, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Max-flow for each (s, t) pair; fresh residual network per pair."""
    src, dst, w = g.to_arrays()
    out = np.empty(len(pairs))
    for i, (s, t) in enumerate(pairs):
        net = _Dinic(g.n)
        for u, v, c in zip(src, dst, w):
            if g.directed:
                net.add_edge(int(u), int(v), float(c))
            else:
                net.add_edge(int(u), int(v), float(c), float(c))
        out[i] = net.max_flow(int(s), int(t))
    return out


def sample_pairs(g: Graph, k: int, *, seed: int = 0) -> list[tuple[int, int]]:
    """k random (s, t) pairs with s != t, deterministic in seed."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < k:
        s, t = rng.integers(0, g.n, 2)
        if s != t:
            pairs.append((int(s), int(t)))
    return pairs


def maxflow_stretch(f0: np.ndarray, f1: np.ndarray) -> tuple[float, float]:
    """(mean flow stretch, newly-zero fraction) from the
    :func:`max_flow_values` of the original (``f0``) and the sparsified
    graph (``f1``) over the same pairs.

    Pairs with zero flow in the original are excluded (different
    communities, Table 1 footnote); pairs that drop to zero only in the
    sparsified graph are excluded from the mean but reported as the
    second value (the §4.5 unreachable constraint).
    """
    valid = f0 > 1e-12
    if not valid.any():
        return float("nan"), 0.0
    newly_zero = (f1[valid] <= 1e-12).mean()
    both = valid & (f1 > 1e-12)
    stretch = float((f1[both] / f0[both]).mean()) if both.any() else float("nan")
    return stretch, float(newly_zero)
