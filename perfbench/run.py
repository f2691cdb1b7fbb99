"""Sweep benchmark: one figure workload in a fresh Spark driver.

    python3 perfbench/run.py --workload pagerank_sweep --seed 1 --seconds 20 --trace 0

One process, one SparkSession with a pinned config, one figure call at a
time (a closed loop). The first figure call is a warm-up, timed as its
own pass but not part of any metric: it pays the JVM's JIT and Spark's
code generation, which make it 1.5-2x slower than the next and far
noisier. Then figure calls repeat while the last call's duration still
fits in ``--seconds`` of measuring (at least one); ``sweep_cpu_s`` and
``sweep_s`` are the medians of their CPU and wall times. Every call's
output is checked outside the timed region. With ``--trace 1`` the call
after the warm-up is traced, and the per-layer metrics come from it.
The last line of stdout is one JSON object; see README.md.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from spans import ROOT_SPAN, SELF_PARTS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# Two task threads on a 4-vCPU host leave cores for the JVM's JIT and GC
# threads and the Python driver; results do not depend on it, because
# the partition counts below are pinned.
CORES = 2
LOG_LEVEL = "ERROR"
# Pinned: RN, KN and RD return different edge sets at other partition
# counts, and ``spark.range`` (vertex sets) follows default parallelism.
SPARK_CONF = {
    "spark.driver.memory": "2g",
    "spark.driver.host": "127.0.0.1",
    "spark.sql.shuffle.partitions": "8",
    "spark.default.parallelism": "4",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    # The default 1000 evicts jobs before a traced call is read back.
    "spark.ui.retainedJobs": "100000",
    "spark.ui.retainedStages": "100000",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -------------------------------------------------------------- session
def start_spark():
    """SparkSession that has finished one trivial job, with everything
    Spark, the JVM and Python write kept under ``WORK``."""
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    from pyspark.sql import SparkSession

    conf = {
        **SPARK_CONF,
        "spark.local.dir": str(WORK / "spark"),
        "spark.sql.warehouse.dir": str(WORK / "warehouse"),
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={WORK} -XX:-UsePerfData",
    }
    b = SparkSession.builder.appName("perfbench").master(f"local[{CORES}]")
    for k, v in conf.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel(LOG_LEVEL)
    spark.range(1).count()
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the driver JVM, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def driver_cpu_s() -> float:
    """CPU seconds used so far by this Python process and the driver JVM.

    Unlike wall time, this leaves out the time the hypervisor gives to
    other guests, which dominates wall time's spread on a shared host.
    """
    from pyspark import SparkContext

    with open(f"/proc/{SparkContext._gateway.proc.pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    jvm_ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return time.process_time() + jvm_ticks / os.sysconf("SC_CLK_TCK")


def heap_pools(spark) -> list:
    mf = spark.sparkContext._jvm.java.lang.management.ManagementFactory
    return [p for p in mf.getMemoryPoolMXBeans() if str(p.getType()) == "Heap memory"]


def persisted_rdds(spark) -> int:
    return int(spark.sparkContext._jsc.getPersistentRDDs().size())


def release(spark) -> None:
    """Drop everything a figure call left cached, so calls are independent."""
    spark.catalog.clearCache()
    for rdd in list(spark.sparkContext._jsc.getPersistentRDDs().values()):
        rdd.unpersist(True)
    gc.collect()


def environment(spark) -> dict:
    import networkx
    import numpy
    import pandas
    import pyspark

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "master": spark.sparkContext.master,
        "conf": SPARK_CONF,
        "log_level": LOG_LEVEL,
        "nproc": os.cpu_count(),
        "git_commit": commit or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "networkx": networkx.__version__,
    }


# ---------------------------------------------------------------- calls
class Runner:
    """Runs and checks figure calls of one workload in one session."""

    def __init__(self, spark, workload, seed: int, reference: dict):
        from repro.core import figures

        self.spark = spark
        self.w = workload
        self.seed = seed
        self.reference = reference
        self.fn = getattr(figures, workload.figure)
        self.cells = len(workload.expected_cells())
        self.attempted = 0
        self.failed = 0
        self.pools = heap_pools(spark)

    def figure_call(self, kind: str = "timed") -> dict:
        """One figure call, timed, then checked and released untimed."""
        tracer = None
        with contextlib.ExitStack() as stack:
            cap = stack.enter_context(wl.Capture(*self.w.capture))
            if kind == "traced":
                tracer = Tracer(self.spark.sparkContext, f"perfbench.{self.attempted}")
                tracer.install(type(self.spark.range(1)))
                stack.callback(tracer.uninstall)
            for p in self.pools:
                p.resetPeakUsage()
            kwargs = self.w.call_kwargs(self.seed)
            out, problems = None, []
            cpu0 = driver_cpu_s()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = self.fn(self.spark, **kwargs)
                else:
                    out = tracer.call(ROOT_SPAN, self.fn, self.spark, **kwargs)
            except Exception:  # a failed call fails all its cells
                problems.append(traceback.format_exc())
            dt = time.perf_counter() - t0
            cpu_s = driver_cpu_s() - cpu0
            heap_mb = sum(p.getPeakUsage().getUsed() for p in self.pools) / 2**20
        rec = {"sweep_s": dt, "sweep_cpu_s": cpu_s, "heap_mb": heap_mb, "out": out,
               "tracer": tracer,
               "persisted_rdds_end": persisted_rdds(self.spark)}
        if out is not None:
            try:
                problems += wl.check_output(self.w, self.seed, out, self.reference)
                if not problems:
                    problems += wl.oracle_check(self.w, out, cap)
            except Exception:
                problems.append(traceback.format_exc())
        if tracer is not None:
            tracer.read_jobs()
        release(self.spark)
        self.attempted += self.cells
        if problems:
            self.failed += self.cells
            print("[perfbench] check failed:\n" + "\n".join(problems),
                  file=sys.stderr, flush=True)
        print(f"[perfbench] call {self.attempted // self.cells} ({kind}): {dt:.3f} s, "
              f"{cpu_s:.3f} CPU s", file=sys.stderr, flush=True)
        return rec


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the host so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def warm_up(runner: Runner) -> None:
    """The first, cold figure call, on the workload's cheaper warm-up
    arguments: in no metric, and not checked (its cells differ)."""
    kwargs = {**runner.w.call_kwargs(runner.seed), **runner.w.warmup}
    t0 = time.perf_counter()
    try:
        runner.fn(runner.spark, **kwargs)
    except Exception:  # the timed calls will fail and count it
        traceback.print_exc()
    dt = time.perf_counter() - t0
    release(runner.spark)
    print(f"{'warmup_s':32s} {dt:14.4f} s", flush=True)


def measure(runner: Runner, seconds: float) -> list[dict]:
    """Warm figure calls while the last call's duration still fits in
    ``seconds`` of measuring; at least one."""
    warm_up(runner)
    recs: list[dict] = []
    ticks0 = cpu_ticks()
    t0 = time.perf_counter()
    while not recs or time.perf_counter() - t0 + recs[-1]["sweep_s"] <= seconds:
        recs.append(runner.figure_call())
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # CPU time the hypervisor gave to other guests: the main source
        # of spread between runs on a shared host.
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        print(f"{'host_steal_share':32s} {steal:14.4f} ratio", flush=True)
    return recs


def traced_run(runner: Runner) -> tuple[dict, list[str]]:
    """Per-layer metrics of the first warm call, traced."""
    warm_up(runner)
    rec = runner.figure_call(kind="traced")
    if rec["out"] is None:
        return {}, ["the traced call failed"]
    m = rec["tracer"].metrics(runner.cells)
    parts = sum(m[k] for k in SELF_PARTS)
    problems = []
    if abs(parts - m["core.sweep_s"]) > 1e-6:
        problems.append(f"self times add to {parts} s, the traced call took {m['core.sweep_s']} s")
    m["core.persisted_rdds_end"] = rec["persisted_rdds_end"]
    m["core.jvm_heap_peak_mb"] = rec["heap_mb"]
    errs = [e for sw in runner.w.sweeps for e in wl.rho_errors(rec["out"][sw.raw_key])]
    m["sparsifiers.rho_abs_err"] = statistics.fmean(errs) if errs else 0.0
    for name in sorted(set(rec["tracer"].missing)):
        print(f"[perfbench] layer entry point missing: {name}", file=sys.stderr)
    return m, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "ratio"

    spark = start_spark()
    try:
        import repro
        from repro.core import figures  # noqa: F401  (import time is set-up)

        setup_s = time.perf_counter() - T_START
        if Path(repro.__file__).resolve().parents[1] != src:
            print(f"perfbench: repro imported from {repro.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        print("perfbench config: " + json.dumps(environment(spark)), flush=True)
        runner = Runner(spark, wl.WORKLOADS[args.workload], args.seed, wl.load_reference())
        if args.trace:
            metrics, problems = traced_run(runner)
            if problems:
                print("[perfbench] trace check failed:\n" + "\n".join(problems),
                      file=sys.stderr)
                runner.failed = runner.attempted
        else:
            recs = measure(runner, args.seconds)
            metrics = {
                "setup_s": setup_s,
                "sweep_s": statistics.median(r["sweep_s"] for r in recs),
                "sweep_cpu_s": statistics.median(r["sweep_cpu_s"] for r in recs),
                "py_rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "error_rate": runner.failed / runner.attempted,
            }
        for k, v in metrics.items():
            print(f"{k:32s} {v:14.4f} {units.get(k, '')}")
    finally:
        stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
