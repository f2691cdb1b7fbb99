"""Reproduce Fig 13: GraphSAGE (proteins_lite) and ClusterGCN (reddit_lite).

Usage: spark-submit jobs/fig13_gnn.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig13_gnn",
        "Fig 13: GraphSAGE (proteins_lite) and ClusterGCN (reddit_lite)",
    )
