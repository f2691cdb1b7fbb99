"""Reproduce Fig 1: graph connectivity (unreachable/isolated ratio) on astroph_lite.

Usage: spark-submit jobs/fig01_connectivity.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig01_connectivity",
        "Fig 1: graph connectivity (unreachable/isolated ratio) on astroph_lite",
    )
