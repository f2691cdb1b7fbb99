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


def _climb(calls):
    """x climbs by one towards id; ``changed`` flags the rows it moved."""

    def step(state, i):
        calls.append(i)
        x = F.least(F.col("x") + 1, F.col("id"))
        return state.select("id", x.alias("x"), (x != F.col("x")).alias("changed"))

    return step


def test_until_none_stops_after_first_step_that_flags_no_row(spark):
    # Row 3 is flagged in rounds 0-2; round 3 flags no row.
    calls = []
    out = iterate.loop(_state(spark), _climb(calls), max_iter=10, until_none="changed")
    assert calls == [0, 1, 2, 3]
    # Round 3's output, not round 2's (which still flags row 3).
    assert [tuple(r) for r in out.orderBy("id").collect()] == [
        (i, i, False) for i in range(4)
    ]


def test_max_iter_zero_returns_input_unflagged(spark):
    calls = []
    out = iterate.loop(_state(spark), _climb(calls), max_iter=0, until_none="changed")
    assert calls == []
    assert out.columns == ["id", "x"]
    assert [tuple(r) for r in out.orderBy("id").collect()] == [(i, 0) for i in range(4)]


def test_returns_last_step_output(spark):
    out = iterate.loop(
        _state(spark), lambda s, i: s.withColumn("x", F.lit(10 * i + 1)), max_iter=3
    )
    assert {r.x for r in out.collect()} == {21}
    flags_none_at_once = iterate.loop(
        _state(spark),
        lambda s, i: s.select("id", F.lit(7).alias("x"), F.lit(False).alias("changed")),
        max_iter=3,
        until_none="changed",
    )
    assert {(r.x, r.changed) for r in flags_none_at_once.collect()} == {(7, False)}
