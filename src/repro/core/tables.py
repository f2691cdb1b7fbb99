"""Plain-text table rendering for the jobs (no external deps).

Jobs print the same rows the paper's tables/figures report; these
helpers render tidy pandas frames as GitHub-style pipe tables and pivot
sweep results into the figure layout (rows = sparsifier, columns =
prune rate).
"""
from __future__ import annotations

import math

import pandas as pd


def _fmt(x, floatfmt: str) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "-"
        return floatfmt.format(x)
    return str(x)


def render(df: pd.DataFrame, *, floatfmt: str = "{:.3f}") -> str:
    """GitHub-style pipe table of a pandas DataFrame."""
    cols = list(df.columns)
    rows = [[_fmt(v, floatfmt) for v in rec] for rec in df.itertuples(index=False)]
    widths = [
        max(len(str(c)), *(len(r[i]) for r in rows)) if rows else len(str(c))
        for i, c in enumerate(cols)
    ]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line([str(c) for c in cols]), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    return "\n".join(out)


def pivot_sweep(df: pd.DataFrame, value: str) -> pd.DataFrame:
    """Figure layout: one row per sparsifier, one column per prune rate."""
    p = df.pivot_table(
        index="sparsifier", columns="rho", values=value, dropna=False, sort=False
    )
    p.columns = [
        ("rho=n/a" if (isinstance(c, float) and math.isnan(c)) else f"rho={c:.1f}")
        for c in p.columns
    ]
    return p.reset_index()


def print_table(title: str, df: pd.DataFrame, *, floatfmt: str = "{:.3f}") -> None:
    print(f"\n## {title}\n")
    print(render(df, floatfmt=floatfmt))
