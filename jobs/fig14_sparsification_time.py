"""Reproduce Fig 14: sparsification time on proteins_lite.

Usage: spark-submit jobs/fig14_sparsification_time.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig14_sparsification_time",
        "Fig 14: sparsification time on proteins_lite",
    )
