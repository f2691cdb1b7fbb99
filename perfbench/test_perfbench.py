"""Tests of the benchmark itself (not collected by the repo's suite).

    python -m pytest perfbench -q -p no:cacheprovider

The Spark test uses the repo's session fixture from the root conftest.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

W = wl.WORKLOADS["sparsify_sweep"]


def _good_output() -> dict:
    rows = [
        {"sparsifier": ab, "rho": 0.95, "achieved_rho": 0.95, "bhattacharyya": 0.1}
        for ab in W.sweeps[0].sparsifiers
    ]
    return {"raw": pd.DataFrame(rows)}


def _reference(out: dict) -> dict:
    return {W.name: {"0": wl.deterministic_rows(W, out)}}


def test_check_output_accepts_a_correct_output():
    out = _good_output()
    assert wl.check_output(W, 0, out, _reference(out)) == []


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda raw: raw.drop(index=2), "cells"),
        (lambda raw: raw.assign(bhattacharyya=[math.nan] + [0.1] * 5), "out of"),
        (lambda raw: raw.assign(achieved_rho=[0.9] + [0.95] * 5), "achieved rho"),
    ],
)
def test_check_output_rejects_broken_rows(mutate, needle):
    out = _good_output()
    ref = _reference(out)
    out["raw"] = mutate(out["raw"]).reset_index(drop=True)
    assert any(needle in p for p in wl.check_output(W, 0, out, ref))


def test_check_output_rejects_a_changed_deterministic_row():
    out = _good_output()
    ref = _reference(out)
    out["raw"].loc[out["raw"]["sparsifier"] == "LD", "bhattacharyya"] = 0.2
    assert any("LD@0.95.bhattacharyya" in p for p in wl.check_output(W, 0, out, ref))
    assert wl.check_output(W, 1, _good_output(), ref) == [
        "no stored reference for instance 1"
    ]


def test_expected_cells_follow_table2():
    cells = wl.WORKLOADS["pagerank_sweep"].expected_cells()
    assert len(cells) == 2 * 3  # two graphs x (RN, KN, LD) x one rho, one seed


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pagerank_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced_counts(spark, label: str) -> tuple[dict, list[str]]:
    from repro.core import figures

    tracer = spans.Tracer(spark.sparkContext, label)
    tracer.install(type(spark.range(1)))
    try:
        tracer.call(spans.ROOT_SPAN, figures.fig02_degree_distribution, spark,
                    scale=0.05, rhos=[0.9], n_runs=1, seed=3,
                    sparsifiers=["RN", "LD", "RD"])
    finally:
        tracer.uninstall()
    tracer.read_jobs()
    m = tracer.metrics(cells=3)
    parts = sum(m[k] for k in spans.SELF_PARTS)
    assert parts == pytest.approx(m["core.sweep_s"], abs=1e-6)
    spark.catalog.clearCache()
    counts = {k: v for k, v in m.items() if k.endswith(("_jobs", "_tasks", "_calls"))}
    return counts, tracer.missing


def test_layer_job_counts_repeat_exactly(spark):
    first, missing = _traced_counts(spark, "perfbench-test-a")
    second, _ = _traced_counts(spark, "perfbench-test-b")
    assert missing == []
    assert first["sparsifiers.RD_jobs"] > 0 and first["metrics.degree_jobs"] > 0
    assert first == second


def test_missing_entry_point_is_reported_not_raised(spark, monkeypatch):
    monkeypatch.setattr(spans, "ENTRY_POINTS", spans.ENTRY_POINTS + [
        ("repro.core.experiment", "no_such_function", "core.gone"),
        ("repro.no_such_module", "f", "graphs.gone"),
    ])
    tracer = spans.Tracer(spark.sparkContext, "perfbench-test-missing")
    tracer.install(type(spark.range(1)))
    tracer.uninstall()
    assert tracer.missing == ["core.gone", "graphs.gone"]
    assert tracer.metrics(cells=1)["core.missing_entry_points"] == 2


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    emitted = set(spans.Tracer(None, "x").metrics(cells=1))
    emitted |= {"core.persisted_rdds_end", "core.jvm_heap_peak_mb",
                "sparsifiers.rho_abs_err"}
    assert emitted == names
