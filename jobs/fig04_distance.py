"""Reproduce Fig 4: SPSP/eccentricity stretch (astroph_lite) and diameter (facebook_lite).

Usage: spark-submit jobs/fig04_distance.py [--scale S] [--rhos ...] [--runs N]
"""
from _common import run_figure

if __name__ == "__main__":
    run_figure(
        __doc__, "fig04_distance",
        "Fig 4: SPSP/eccentricity stretch (astroph_lite) and diameter (facebook_lite)",
    )
