"""Reproduce Fig 6: eigenvector centrality top-k precision on enron_lite.

Usage: spark-submit jobs/fig06_eigenvector.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig06_eigenvector",
        "Fig 6: eigenvector centrality top-k precision on enron_lite",
    )
