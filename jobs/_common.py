"""Shared plumbing for the spark-submit job entrypoints.

Every job takes ``--scale`` (dataset size multiplier) and ``--seed``
(:func:`std_parser`). A figure job sweeps, so it also takes ``--rhos``
(prune-rate sweep), ``--runs`` (seeds for non-deterministic sparsifiers)
and ``--sparsifiers`` (abbreviation subset) (:func:`figure_parser`).
Every figure job is one :func:`run_figure` call; the session is
:func:`repro.core.session.build`'s.
"""
from __future__ import annotations

import argparse
import inspect

from repro.core import figures, session
from repro.core.tables import print_table


def std_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
    p.add_argument("--seed", type=int, default=0)
    return p


def figure_parser(desc: str) -> argparse.ArgumentParser:
    """:func:`std_parser` plus a figure's sweep arguments."""
    p = std_parser(desc)
    p.add_argument(
        "--runs", type=int, default=None,
        help="seeds for non-deterministic sparsifiers (default: the figure's)",
    )
    p.add_argument(
        "--rhos", type=float, nargs="+", default=None,
        help="prune rates to sweep (default: the figure's)",
    )
    p.add_argument(
        "--sparsifiers", type=str, nargs="+", default=None,
        help="sparsifier abbreviations (default: the figure's subset)",
    )
    return p


def figure_kwargs(figure, args: argparse.Namespace) -> dict:
    """Keyword arguments of ``figure`` from the standard arguments.

    ``--rhos`` and ``--runs`` are passed only when given, so the figure
    runs its own defaults otherwise. ``--sparsifiers`` replaces every
    list named ``sparsifiers`` or ``sparsifiers_*`` (both of Fig 11's
    panels); a list named otherwise, such as Fig 4's
    ``diam_sparsifiers``, keeps the figure's default.
    """
    kwargs = dict(scale=args.scale, seed=args.seed)
    given = dict(rhos=args.rhos, n_runs=args.runs)
    kwargs.update({k: v for k, v in given.items() if v is not None})
    if args.sparsifiers:
        for name in inspect.signature(figure).parameters:
            if name == "sparsifiers" or name.startswith("sparsifiers_"):
                kwargs[name] = args.sparsifiers
    return kwargs


def run_figure(doc: str, name: str, title: str) -> None:
    """The job of figure function ``figures.<name>``: parse the standard
    arguments (``doc`` is the job's help text), run the figure in a session
    named ``name``, print every table under ``title``, and stop the session."""
    args = figure_parser(doc).parse_args()
    figure = getattr(figures, name)
    spark = session.build(name)
    results = figure(spark, **figure_kwargs(figure, args))
    print(f"\n# {title}")
    for key, df in results.items():
        if not key.startswith("raw"):
            print_table(key, df)
    spark.stop()
