"""Reproduce Table 2: sparsifier characteristics, empirically verified.

Usage: spark-submit jobs/table2_sparsifier_characteristics.py [--scale S]
"""
from _common import std_parser
from repro.core import session
from repro.core.figures import table2_sparsifier_characteristics
from repro.core.tables import print_table

if __name__ == "__main__":
    args = std_parser(__doc__).parse_args()
    spark = session.build("table2")
    df = table2_sparsifier_characteristics(spark, scale=args.scale * 0.25, seed=args.seed)
    print_table("Table 2: sparsifier characteristics", df)
    spark.stop()
