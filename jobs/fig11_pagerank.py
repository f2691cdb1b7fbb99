"""Reproduce Fig 11: PageRank top-k precision on google_lite (directed)
and facebook_lite (undirected).

Usage: spark-submit jobs/fig11_pagerank.py [--scale S] [--rhos ...]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(__doc__, "fig11_pagerank", "Fig 11: PageRank top-k precision")
