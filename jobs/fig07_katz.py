"""Reproduce Fig 7: Katz centrality top-k precision on twitter_lite.

Usage: spark-submit jobs/fig07_katz.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig07_katz",
        "Fig 7: Katz centrality top-k precision on twitter_lite",
    )
