"""Reproduce Table 3: dataset statistics for the 14 stand-in graphs.

Usage: spark-submit jobs/table3_datasets.py [--scale S]
"""
from _common import std_parser
from repro.core import session
from repro.core.figures import table3_datasets
from repro.core.tables import print_table

if __name__ == "__main__":
    args = std_parser(__doc__).parse_args()
    spark = session.build("table3")
    df = table3_datasets(spark, scale=args.scale, seed=args.seed)
    print_table("Table 3: datasets", df, floatfmt="{:.2e}")
    spark.stop()
