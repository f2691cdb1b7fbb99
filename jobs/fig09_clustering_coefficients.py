"""Reproduce Fig 9: MCC (amazon_lite) and GCC (gene_lite).

Usage: spark-submit jobs/fig09_clustering_coefficients.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig09_clustering_coefficients",
        "Fig 9: MCC (amazon_lite) and GCC (gene_lite)",
    )
