"""The job entrypoints under ``jobs/``: each parses its arguments, only a
figure job takes the sweep arguments, and the figure runner hands
``--sparsifiers`` to the right keyword arguments."""
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import figures

JOBS = Path(__file__).resolve().parents[1] / "jobs"
SRC = JOBS.parent / "src"
SWEEP_FLAGS = ("--runs", "--rhos", "--sparsifiers")


@pytest.mark.parametrize("job", sorted(p.name for p in JOBS.glob("[!_]*.py")))
def test_job_help(job):
    """``--help`` exits in argparse, before any Spark session starts."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, str(JOBS / job), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:"), done.stdout
    sweeps = job.startswith("fig")
    assert all((flag in done.stdout) == sweeps for flag in SWEEP_FLAGS), done.stdout


@pytest.fixture
def common(monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))
    return importlib.import_module("_common")


def test_sparsifiers_reach_every_sparsifier_list(common):
    args = common.figure_parser("").parse_args(["--sparsifiers", "RN", "LD"])
    fig11 = common.figure_kwargs(figures.fig11_pagerank, args)
    assert fig11["sparsifiers_a"] == fig11["sparsifiers_b"] == ["RN", "LD"]
    fig04 = common.figure_kwargs(figures.fig04_distance, args)
    assert fig04["sparsifiers"] == ["RN", "LD"]
    assert "diam_sparsifiers" not in fig04


def test_default_sparsifiers_kept(common):
    """Unset ``--runs`` and ``--rhos`` leave the figure's own defaults."""

    def run_args(figure, argv):
        kwargs = common.figure_kwargs(figure, common.figure_parser("").parse_args(argv))
        bound = inspect.signature(figure).bind(None, **kwargs)
        bound.apply_defaults()
        return kwargs, bound.arguments

    kwargs, fig01 = run_args(figures.fig01_connectivity, ["--scale", "0.5", "--rhos", "0.2"])
    assert kwargs == dict(scale=0.5, rhos=[0.2], seed=0)
    assert fig01["n_runs"] == 3
    _, fig13 = run_args(figures.fig13_gnn, [])
    assert fig13["rhos"] == (0.3, 0.6, 0.9) and fig13["n_runs"] == 1
