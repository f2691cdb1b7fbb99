"""Reproduce Fig 3: Laplacian quadratic form ratio on amazon_lite.

Usage: spark-submit jobs/fig03_quadratic_form.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig03_quadratic_form",
        "Fig 3: Laplacian quadratic form ratio on amazon_lite",
    )
