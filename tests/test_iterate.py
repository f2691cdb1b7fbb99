"""Tests for the fixed-point loop that the iterative metrics share."""
from pyspark.sql import functions as F

from repro.core import iterate


def _state(spark):
    return spark.range(4).withColumn("x", F.lit(0).cast("long"))


def test_runs_max_iter_steps_and_checkpoints_each_once(spark, monkeypatch):
    checkpoints = []

    def counting(df):
        checkpoints.append(df)
        return df.localCheckpoint(eager=True)

    monkeypatch.setattr(iterate, "materialize", counting)
    calls = []

    def step(state, i):
        calls.append(i)
        return state.withColumn("x", F.col("x") + 1)

    out = iterate.loop(_state(spark), step, max_iter=5)
    assert calls == [0, 1, 2, 3, 4]
    assert len(checkpoints) == 5  # each step's output; not the initial state
    assert [r.x for r in out.collect()] == [5] * 4


def test_until_stable_stops_after_first_unchanged_round(spark):
    # x climbs to id: row 3 changes in rounds 0-2, no row changes in round 3.
    calls = []

    def step(state, i):
        calls.append(i)
        return state.withColumn("x", F.least(F.col("x") + 1, F.col("id")))

    out = iterate.loop(_state(spark), step, max_iter=10, until_stable="x")
    assert calls == [0, 1, 2, 3]
    assert [tuple(r) for r in out.orderBy("id").collect()] == [(i, i) for i in range(4)]


def test_returns_last_step_output(spark):
    out = iterate.loop(
        _state(spark), lambda s, i: s.withColumn("x", F.lit(10 * i + 1)), max_iter=3
    )
    assert {r.x for r in out.collect()} == {21}
    unchanged_at_once = iterate.loop(
        _state(spark), lambda s, i: s.withColumn("x", F.lit(7)), max_iter=3,
        until_stable="x",
    )
    assert {r.x for r in unchanged_at_once.collect()} == {7}
