"""The N-to-N sweep harness (the paper's §3.2/§4 experiment loop).

``run_sweep`` drives one figure's experiment: for every requested
sparsifier and prune rate, sparsify (averaging non-deterministic
algorithms over ``n_runs`` seeds, §3.2), evaluate a metric function
``metric(sparsified) -> dict[str, float]``, and collect tidy rows
with mean/std plus the achieved prune rate and sparsification wall time
(reused by the Fig. 14 experiment). The metric closes over whatever it
precomputed on the original graph, so that side runs once per figure.

Sparsifiers without prune-rate control (Table 2: SF, SP) are run once,
at whatever rate their output implies.
"""
from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping

import pandas as pd

from repro.core.graph import Graph
from repro.core.registry import SPARSIFIERS

MetricFn = Callable[[Graph], Mapping[str, float]]


def sparsify_timed(spec, g: Graph, rho: float, *, seed: int) -> tuple[Graph, float]:
    """Run one sparsifier and materialize its output, returning wall time."""
    t0 = time.perf_counter()
    h = spec(g, rho, seed=seed).checkpointed()  # computed inside the timing
    return h, time.perf_counter() - t0


def run_sweep(
    g: Graph,
    sparsifier_abbrevs: Iterable[str],
    rhos: Iterable[float],
    metric: MetricFn,
    *,
    n_runs: int = 3,
    base_seed: int = 0,
) -> pd.DataFrame:
    """Tidy per-(sparsifier, rho) results with mean/std over seeds.

    Columns: ``sparsifier, rho, achieved_rho, spar_time_s`` plus, for
    every key the metric returns, ``<key>`` (mean) and ``<key>_std``.
    """
    raw_rows: list[dict] = []
    m_full = g.m
    for ab in sparsifier_abbrevs:
        spec = SPARSIFIERS[ab]
        rho_list = [None] if spec.prune_rate_control == "none" else list(rhos)
        runs = 1 if spec.deterministic else n_runs
        for rho in rho_list:
            for r in range(runs):
                h, dt = sparsify_timed(
                    spec, g, 0.0 if rho is None else rho, seed=base_seed + r
                )
                vals = dict(metric(h))
                raw_rows.append(
                    {
                        "sparsifier": ab,
                        "rho": float("nan") if rho is None else rho,
                        "achieved_rho": 1.0 - h.m / m_full,
                        "spar_time_s": dt,
                        **vals,
                    }
                )
    raw = pd.DataFrame(raw_rows)
    value_cols = [
        c for c in raw.columns if c not in ("sparsifier", "rho")
    ]
    agg = raw.groupby(["sparsifier", "rho"], dropna=False, sort=False).agg(
        {c: ["mean", "std"] for c in value_cols}
    )
    agg.columns = [
        name if stat == "mean" else f"{name}_std" for name, stat in agg.columns
    ]
    return agg.reset_index()
