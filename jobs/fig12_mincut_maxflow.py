"""Reproduce Fig 12: min-cut/max-flow stretch on hepph_lite.

Usage: spark-submit jobs/fig12_mincut_maxflow.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig12_mincut_maxflow",
        "Fig 12: min-cut/max-flow stretch on hepph_lite",
    )
