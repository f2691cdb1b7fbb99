"""Tests for the sweep harness, table rendering, and registry metadata."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core import tables
from repro.core.experiment import run_sweep, sparsify_timed
from repro.core.registry import METRICS, SPARSIFIERS


class TestRunSweep:
    @pytest.fixture(scope="class")
    def sweep_result(self, tiny_undirected):
        def metric(h):
            return {"kept_frac": h.m / tiny_undirected.m}

        return run_sweep(
            tiny_undirected, ["RN", "LD", "SF"], [0.3, 0.6], metric, n_runs=2
        )

    def test_columns(self, sweep_result):
        for c in ("sparsifier", "rho", "achieved_rho", "spar_time_s",
                  "kept_frac", "kept_frac_std"):
            assert c in sweep_result.columns

    def test_controlled_sparsifiers_sweep_rhos(self, sweep_result):
        rn = sweep_result[sweep_result.sparsifier == "RN"]
        assert sorted(rn["rho"]) == [0.3, 0.6]

    def test_uncontrolled_single_row(self, sweep_result):
        sf = sweep_result[sweep_result.sparsifier == "SF"]
        assert len(sf) == 1
        assert math.isnan(sf["rho"].iloc[0])

    def test_metric_values_consistent(self, sweep_result):
        rn = sweep_result[(sweep_result.sparsifier == "RN")]
        for _, row in rn.iterrows():
            assert row["kept_frac"] == pytest.approx(1 - row["rho"], abs=0.05)
            assert row["achieved_rho"] == pytest.approx(row["rho"], abs=0.05)

    def test_deterministic_sparsifier_zero_std(self, sweep_result):
        ld = sweep_result[sweep_result.sparsifier == "LD"]
        # single run for deterministic sparsifiers -> std is NaN
        assert ld["kept_frac_std"].isna().all()

    def test_nondeterministic_has_std(self, sweep_result):
        rn = sweep_result[sweep_result.sparsifier == "RN"]
        assert rn["kept_frac_std"].notna().all()


class TestSparsifyTimed:
    def test_returns_graph_and_time(self, tiny_undirected):
        h, dt = sparsify_timed(SPARSIFIERS["RN"], tiny_undirected, 0.5, seed=0)
        assert h.m > 0 and dt > 0


class TestTables:
    def test_render_basic(self):
        df = pd.DataFrame({"a": [1.23456, float("nan")], "b": ["x", "y"]})
        out = tables.render(df)
        assert "| a " in out and "1.235" in out and "| -" in out

    def test_pivot_sweep(self):
        df = pd.DataFrame(
            {
                "sparsifier": ["RN", "RN", "SF"],
                "rho": [0.3, 0.6, float("nan")],
                "val": [1.0, 2.0, 3.0],
            }
        )
        p = tables.pivot_sweep(df, "val")
        assert list(p.columns) == ["sparsifier", "rho=0.3", "rho=0.6", "rho=n/a"]
        assert p.set_index("sparsifier").loc["SF", "rho=n/a"] == 3.0

    def test_print_table(self, capsys):
        tables.print_table("T", pd.DataFrame({"x": [1]}))
        out = capsys.readouterr().out
        assert "## T" in out and "| x" in out


class TestRegistry:
    def test_13_variants_12_families(self):
        assert len(SPARSIFIERS) == 13  # 12 algorithms, ER in two variants

    def test_only_er_changes_weights(self):
        assert {ab for ab, s in SPARSIFIERS.items() if s.changes_weights} == {"ERw"}

    def test_undirected_only_set(self):
        undirected_only = {ab for ab, s in SPARSIFIERS.items() if not s.supports_directed}
        assert undirected_only == {"SF", "SP", "ERw", "ERu"}

    def test_prc_none_set(self):
        assert {ab for ab, s in SPARSIFIERS.items() if s.prune_rate_control == "none"} == {
            "SF", "SP",
        }

    def test_16_metrics(self):
        assert len(METRICS) == 16

    def test_metric_names_cover_paper_table1(self):
        names = {m.name for m in METRICS}
        for expected in ("PageRank", "GNN", "Katz Cent.", "GCC", "#Communities",
                         "Min-cut/Max-flow", "Clustering F1 Sim"):
            assert expected in names

    def test_undirected_only_metrics(self):
        und = {m.name for m in METRICS if not m.directed}
        assert und == {"#Communities", "Clustering F1 Sim"}
