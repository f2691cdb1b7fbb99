"""The benchmark's workloads and the checks on their outputs.

A workload is one public figure function of ``repro.core.figures`` at a
fixed size. The run's ``--seed`` picks one of ``INSTANCES`` input
instances (``seed % INSTANCES`` is passed as the figure's seed, which
seeds both the stand-in graph and the sparsifiers), so the rows of the
deterministic sparsifiers can be checked against values stored with the
benchmark in ``reference.json``.
"""
from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

INSTANCES = 8
REFERENCE = Path(__file__).with_name("reference.json")

# The paper's Table 2, as the benchmark's own fixed spec (not read from
# the registry, whose shape later changes may alter).
DETERMINISTIC = {"LD", "SF", "SP", "LS", "GS", "LSim", "SCAN"}
NO_RHO_CONTROL = {"SF", "SP"}
FINE_CONTROL = {"RN", "GS", "SCAN", "ERw", "ERu"}
RHO_TOL = 0.01
REF_TOL = 1e-9


@dataclass(frozen=True)
class Sweep:
    """One ``run_sweep`` call of a figure: its raw frame and value ranges."""

    raw_key: str
    sparsifiers: tuple[str, ...]
    values: dict  # column -> (lo, hi)


@dataclass(frozen=True)
class Workload:
    name: str
    figure: str
    kwargs: dict
    sweeps: tuple[Sweep, ...]
    # Kernel whose call on the LD-sparsified graph the oracle check reads.
    capture: tuple[str, str]
    # Overrides for the warm-up call: a cheaper call of the same figure
    # that reaches the same Spark plans, so the timed calls start warm.
    warmup: dict

    def call_kwargs(self, seed: int) -> dict:
        return {**self.kwargs, "seed": seed % INSTANCES}

    def rhos(self) -> list[float]:
        return list(self.kwargs["rhos"])

    def expected_cells(self) -> list[tuple[str, str, float]]:
        """(raw key, sparsifier, rho) for every cell, once per seed run."""
        cells = []
        for sw in self.sweeps:
            for ab in sw.sparsifiers:
                rhos = [math.nan] if ab in NO_RHO_CONTROL else self.rhos()
                runs = 1 if ab in DETERMINISTIC else self.kwargs["n_runs"]
                cells += [(sw.raw_key, ab, r) for r in rhos for _ in range(runs)]
        return cells


UNIT = (0.0, 1.0)
PR3 = ("RN", "KN", "LD")
# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "pagerank_sweep",
            "fig11_pagerank",
            dict(scale=0.25, rhos=[0.5], n_runs=1, iters=1,
                 sparsifiers_a=list(PR3), sparsifiers_b=list(PR3)),
            (Sweep("raw_a", PR3, {"pagerank_p": UNIT}),
             Sweep("raw_b", PR3, {"pagerank_p": UNIT})),
            ("repro.metrics.centrality", "pagerank"),
            # The plans are the reference's and PageRank's, on both graphs.
            dict(sparsifiers_a=["LD"], sparsifiers_b=["LD"]),
        ),
        Workload(
            "sparsify_sweep",
            "fig02_degree_distribution",
            dict(scale=0.25, rhos=[0.95], n_runs=1),
            (Sweep("raw", ("RN", "LD", "RD", "KN", "FF", "LSim"),
                   {"bhattacharyya": (0.0, math.inf)}),),
            ("repro.metrics.degree", "degree_counts"),
            # Every sparsifier has its own plans; a small graph needs fewer
            # Rank Degree rounds.
            dict(scale=0.05),
        ),
    ]
}


# ------------------------------------------------------------- capture
class Capture:
    """Keeps the first call of one kernel on an LD-sparsified graph.

    Installed in every run (one extra Python call per kernel call) so the
    oracle check can compare that call's result without new Spark work.
    """

    def __init__(self, module: str, attr: str):
        self.module, self.attr = importlib.import_module(module), attr
        self.original = getattr(self.module, attr)
        self.graph = None
        self.result = None

    def __enter__(self):
        def hook(g, *args, **kwargs):
            out = self.original(g, *args, **kwargs)
            if self.graph is None and "|LD@" in getattr(g, "name", ""):
                self.graph, self.result = g, out
            return out

        setattr(self.module, self.attr, hook)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


# --------------------------------------------------------------- checks
def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


def deterministic_rows(w: Workload, out: dict) -> dict:
    """{raw_key: {"AB@rho": {column: value}}} for the deterministic rows."""
    rows = {}
    for sw in w.sweeps:
        raw = out[sw.raw_key]
        rows[sw.raw_key] = {
            f"{r['sparsifier']}@{r['rho']:.2f}": {
                c: float(r[c]) for c in ["achieved_rho", *sw.values]
            }
            for _, r in raw.iterrows()
            if r["sparsifier"] in DETERMINISTIC
        }
    return rows


def rho_errors(raw):
    """|achieved - target rho| of the fine-control rows of one raw frame."""
    fine = raw[raw["sparsifier"].isin(FINE_CONTROL)]
    return (fine["achieved_rho"] - fine["rho"]).abs()


def _cell_key(raw_key: str, ab: str, rho: float) -> tuple:
    return raw_key, ab, -1.0 if math.isnan(rho) else round(rho, 6)


def check_output(w: Workload, seed: int, out: dict, reference: dict) -> list[str]:
    """Problems found in one figure call's output; empty means correct."""
    problems = []
    want = w.expected_cells()
    for sw in w.sweeps:
        raw = out.get(sw.raw_key)
        if raw is None:
            problems.append(f"{sw.raw_key}: missing")
            continue
        have = {_cell_key(sw.raw_key, r["sparsifier"], r["rho"]) for _, r in raw.iterrows()}
        if have != {_cell_key(*c) for c in want if c[0] == sw.raw_key}:
            problems.append(f"{sw.raw_key}: cells {sorted(have)}")
        for col, (lo, hi) in {**sw.values, "achieved_rho": UNIT}.items():
            v = raw[col].to_numpy(float)
            if not (np.isfinite(v).all() and (v >= lo).all() and (v <= hi).all()):
                problems.append(f"{sw.raw_key}.{col}: out of [{lo}, {hi}]: {v}")
        err = rho_errors(raw)
        if (err > RHO_TOL).any():
            problems.append(f"{sw.raw_key}: achieved rho off by {err.max():.4f}")
    if problems:
        return problems
    ref = reference.get(w.name, {}).get(str(seed % INSTANCES))
    if ref is None:
        problems.append(f"no stored reference for instance {seed % INSTANCES}")
    else:
        got = deterministic_rows(w, out)
        for raw_key, rows in ref.items():
            for cell, vals in rows.items():
                for col, v in vals.items():
                    g = got.get(raw_key, {}).get(cell, {}).get(col)
                    if g is None or abs(g - v) > REF_TOL:
                        problems.append(f"{raw_key}.{cell}.{col}: {g} != stored {v}")
    return problems


def _nx_graph(g) -> nx.Graph:
    G = nx.DiGraph() if g.directed else nx.Graph()
    G.add_nodes_from(range(g.n))
    for r in g.to_pandas_edges().itertuples():
        G.add_edge(int(r.src), int(r.dst), weight=float(r.weight))
    return G


def oracle_check(w: Workload, out: dict, cap: Capture) -> list[str]:
    """One cross-check per workload against networkx."""
    if cap.graph is None:
        return [f"oracle: no {w.capture[1]} call on an LD graph was seen"]
    G = _nx_graph(cap.graph)
    if w.figure == "fig11_pagerank":
        return _pagerank_oracle(G, cap.result, w.kwargs["iters"])
    if w.figure == "fig02_degree_distribution":
        want = np.array([G.out_degree(v) if G.is_directed() else G.degree(v)
                         for v in range(G.number_of_nodes())])
        if not np.array_equal(np.asarray(cap.result), want):
            return ["degree counts differ from networkx"]
        return []
    return [f"oracle: no check for {w.figure}"]


def _pagerank_oracle(G, scores_df, iters: int, k: int = 20) -> list[str]:
    """``iters`` power steps of networkx's Google matrix from uniform."""
    n = G.number_of_nodes()
    M = np.asarray(nx.google_matrix(G, alpha=0.85, nodelist=range(n), weight="weight"))
    x = np.full(n, 1.0 / n)
    for _ in range(iters):
        x = x @ M
    got = scores_df.toPandas().sort_values("v")["score"].to_numpy()
    if got.shape != x.shape or not np.allclose(got, x, rtol=1e-6, atol=1e-12):
        return ["PageRank scores differ from networkx"]
    top = lambda s: set(np.lexsort((np.arange(n), -s))[:k].tolist())
    if top(got) != top(x):
        return ["PageRank top-k differs from networkx"]
    return []
