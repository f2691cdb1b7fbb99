"""Reproduce Table 1: metric applicability to graph types.

Usage: spark-submit jobs/table1_metric_applicability.py
"""
import argparse

from repro.core.figures import table1_metric_applicability
from repro.core.tables import print_table

if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()
    print_table("Table 1: metric applicability", table1_metric_applicability())
