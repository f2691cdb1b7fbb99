"""Each figure benchmark reports its Spark jobs beside its seconds, as
``extra_info["spark_jobs"]`` in pytest-benchmark's report: at lite scale
the job is the cost unit. A figure bench makes one pedantic round, so the
count is one figure call's.
"""
import pytest

from repro.core.jobs import JobCount


@pytest.fixture(autouse=True)
def spark_jobs(request):
    """Count the Spark jobs of a bench that uses the session, under a job
    group of its own."""
    if "spark" not in request.fixturenames:
        yield
        return
    spark = request.getfixturevalue("spark")
    benchmark = request.getfixturevalue("benchmark")
    with JobCount(spark, request.node.name) as jobs:
        yield
    benchmark.extra_info["spark_jobs"] = jobs.n
