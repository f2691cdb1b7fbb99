"""Fig. 13 harness: train on the sparsified graph, test on the full graph.

Per §3.3.4 the network is trained with the *sparsified* adjacency (the
expensive phase the paper wants to shrink) and evaluated with the *full*
adjacency — revealing how much full-graph structure the sparsified graph
taught the model. Also provides the paper's two reference lines: the
full-graph model (green) and the empty-graph / MLP-only model (red).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import Graph
from repro.gnn.data import NodeData
from repro.gnn.models import MeanAggregator, accuracy, cluster_batches, forward, macro_auroc, train
from repro.metrics.clustering import lpa_communities


@dataclass
class GnnResult:
    accuracy: float
    auroc: float


def _evaluate(
    train_graph: Graph, full_graph: Graph, data: NodeData, *, gcn: bool, seed: int,
    epochs: int, n_batches: int = 8,
) -> GnnResult:
    """Train on ``train_graph`` (GraphSAGE full-batch, or ClusterGCN on
    ``n_batches`` batches of its LPA communities), test on ``full_graph``."""
    ts, td, _ = train_graph.to_arrays()
    n, directed = train_graph.n, train_graph.directed
    if not gcn:
        batches = [(np.arange(n), MeanAggregator(ts, td, n, directed=directed))]
    else:
        clusters = (
            lpa_communities(train_graph).toPandas().sort_values("v")["label"].to_numpy(np.int64)
            if len(ts) else np.arange(n)
        )
        batches = cluster_batches(
            ts, td, clusters, directed=directed, n_batches=n_batches, seed=seed
        )
    params = train(data.x, data.y, data.train_mask, batches, gcn=gcn, epochs=epochs, seed=seed)
    fs, fd, _ = full_graph.to_arrays()
    agg_full = MeanAggregator(fs, fd, full_graph.n, directed=full_graph.directed, self_loops=gcn)
    logits, _ = forward(params, data.x, agg_full)
    return GnnResult(
        accuracy(logits, data.y, data.test_mask), macro_auroc(logits, data.y, data.test_mask)
    )


def eval_graphsage(
    train_graph: Graph, full_graph: Graph, data: NodeData, *, seed: int = 0,
    epochs: int = 150,
) -> GnnResult:
    """GraphSAGE trained on ``train_graph``, tested on ``full_graph``."""
    return _evaluate(train_graph, full_graph, data, gcn=False, seed=seed, epochs=epochs)


def eval_cluster_gcn(
    train_graph: Graph, full_graph: Graph, data: NodeData, *, seed: int = 0,
    epochs: int = 60, n_batches: int = 8,
) -> GnnResult:
    """ClusterGCN trained on LPA-partitioned ``train_graph`` batches."""
    return _evaluate(
        train_graph, full_graph, data, gcn=True, seed=seed, epochs=epochs, n_batches=n_batches
    )


def empty_graph(g: Graph) -> Graph:
    """The paper's red-line baseline: same vertices, no edges."""
    return g.with_edges(g.edges.limit(0), name=f"{g.name}|empty")
