"""Reproduce Fig 8: number of communities on dblp_lite.

Usage: spark-submit jobs/fig08_communities.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(__doc__, "fig08_communities", "Fig 8: number of communities on dblp_lite")
