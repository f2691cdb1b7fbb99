"""Reproduce Fig 2: degree-distribution Bhattacharyya distance on proteins_lite.

Usage: spark-submit jobs/fig02_degree_distribution.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig02_degree_distribution",
        "Fig 2: degree-distribution Bhattacharyya distance on proteins_lite",
    )
