"""Reproduce Fig 5: betweenness (dblp_lite) / closeness (astroph_lite) top-k precision.

Usage: spark-submit jobs/fig05_betweenness_closeness.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig05_betweenness_closeness",
        "Fig 5: betweenness (dblp_lite) / closeness (astroph_lite) top-k precision",
    )
