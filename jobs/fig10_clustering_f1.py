"""Reproduce Fig 10: clustering F1 similarity on hepph_lite.

Usage: spark-submit jobs/fig10_clustering_f1.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig10_clustering_f1",
        "Fig 10: clustering F1 similarity on hepph_lite",
    )
