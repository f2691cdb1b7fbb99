"""Per-layer spans recorded from outside the program.

The tracer wraps the public entry points of each layer (``ENTRY_POINTS``)
by module attribute, with ``*args, **kwargs`` passthrough, so nothing
inside ``src/`` records anything. An entry point that no longer exists
is reported as missing rather than failing the run.

Each span sets its own Spark job-group label while it is open, so after
a call the status store tells which jobs ran directly inside it (its
*self* jobs). A span's self time is its duration minus its child spans;
the self times of all spans below the figure span, plus the figure
span's own self time (``core.unattributed_s``), add up to the traced
figure call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

# (module, attribute, span name). The span name's prefix is the layer.
# Callers look these up on the module at call time; a copy bound by
# ``from x import f`` elsewhere is not wrapped.
ENTRY_POINTS = [
    ("repro.graphs.datasets", "load", "graphs.load"),
    ("repro.core.figures", "run_sweep", "core.sweep"),
    ("repro.core.experiment", "sparsify_timed", "sparsifiers.sparsify"),
    ("repro.metrics.centrality", "pagerank", "metrics.pagerank"),
    ("repro.metrics.degree", "degree_counts", "metrics.degree"),
]
KERNELS = ["pagerank", "degree"]
ABBREVS = ["RN", "KN", "LD", "RD", "FF", "LSim"]
ROOT_SPAN = "core.figure"
EVALUATE = "metrics.evaluate"


@dataclass
class Span:
    name: str
    group: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    tag: str = ""
    self_jobs: list = field(default_factory=list)
    jobs: int = 0  # self jobs plus those of all descendants
    tasks: int = 0
    failed_tasks: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Spans for one traced figure call, plus DataFrame action counters."""

    def __init__(self, sc, label: str):
        self.sc = sc
        self.label = label
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.missing: list[str] = []
        self.checkpoints = 0
        self.collects = 0
        self.collect_s = 0.0
        self.own_s = 0.0  # time spent opening and closing spans
        self._in_collect = False
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def open(self, name: str, tag: str = "") -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, f"{self.label}.{len(self.spans)}", parent,
                    time.perf_counter(), tag=tag)
        self.spans.append(span)
        self.stack.append(span)
        self.sc.setJobGroup(span.group, name)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.dur
            self.sc.setJobGroup(span.parent.group, span.parent.name)
        else:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)

    def call(self, name: str, fn, *args, tag: str = "", **kwargs):
        t0 = time.perf_counter()
        span = self.open(name, tag)
        self.own_s += time.perf_counter() - t0
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.close(span)
            self.own_s += time.perf_counter() - t1

    # --------------------------------------------------------- patching
    def _span_wrapper(self, name: str, fn):
        if name == "core.sweep":
            return self._sweep_wrapper(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = ""
            if name == "sparsifiers.sparsify" and args:
                tag = str(getattr(args[0], "abbrev", ""))
            return self.call(name, fn, *args, tag=tag, **kwargs)

        return wrapper

    def _sweep_wrapper(self, fn):
        """``run_sweep``, with its ``metric`` argument wrapped as well."""
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                except TypeError:
                    bound = None
                if bound is not None and callable(bound.arguments.get("metric")):
                    metric = bound.arguments["metric"]
                    bound.arguments["metric"] = functools.partial(
                        self.call, EVALUATE, metric)
                    args, kwargs = bound.args, bound.kwargs
                else:
                    self.missing.append(EVALUATE)
            return self.call("core.sweep", fn, *args, **kwargs)

        return wrapper

    def install(self, dataframe_cls) -> None:
        """Wrap every entry point and the DataFrame actions that are counted."""
        for mod_name, attr, name in ENTRY_POINTS:
            try:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(name, original))
        self._patch_actions(dataframe_cls)

    def _patch_actions(self, cls) -> None:
        def checkpoint(original):
            def wrapper(*args, **kwargs):
                self.checkpoints += 1
                return original(*args, **kwargs)
            return wrapper

        def collect(original):
            def wrapper(*args, **kwargs):
                if self._in_collect:  # toPandas may collect internally
                    return original(*args, **kwargs)
                self.collects += 1
                self._in_collect = True
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.collect_s += time.perf_counter() - t0
                    self._in_collect = False
            return wrapper

        for method, make in (("localCheckpoint", checkpoint), ("collect", collect),
                             ("toPandas", collect)):
            original = getattr(cls, method)
            self._patches.append((cls, method, original))
            setattr(cls, method, functools.wraps(original)(make(original)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- jobs
    def read_jobs(self) -> None:
        """Attach Spark job, task and failed-task counts to every span.

        Waits for the status listener to catch up first, so the counts are
        exact and repeat between runs of the same seed.
        """
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        store = jsc.statusStore()
        tracker = self.sc.statusTracker()
        for span in self.spans:
            span.self_jobs = sorted(tracker.getJobIdsForGroup(span.group))
            for job_id in span.self_jobs:
                job = store.job(job_id)
                span.tasks += job.numCompletedTasks()
                span.failed_tasks += job.numFailedTasks()
        # Children are opened after their parent: sum bottom-up.
        for span in self.spans:
            span.jobs = len(span.self_jobs)
        for span in reversed(self.spans):
            if span.parent is not None:
                span.parent.jobs += span.jobs
                span.parent.tasks += span.tasks
                span.parent.failed_tasks += span.failed_tasks

    # ---------------------------------------------------------- summary
    def metrics(self, cells: int) -> dict[str, float]:
        """Per-layer metrics of this traced figure call (see README)."""
        out: dict[str, float] = {}

        def total(name: str, tag: str | None = None) -> tuple[float, int, int, int]:
            sel = [s for s in self.spans
                   if s.name == name and (tag is None or s.tag == tag)]
            return (sum(s.dur for s in sel), sum(s.jobs for s in sel),
                    sum(s.tasks for s in sel), len(sel))

        load_s, load_jobs, _, load_calls = total("graphs.load")
        out.update({"graphs.load_s": load_s, "graphs.load_jobs": load_jobs,
                    "graphs.load_calls": load_calls})

        spar_s, spar_jobs, spar_tasks, _ = total("sparsifiers.sparsify")
        out.update({"sparsifiers.sparsify_s": spar_s,
                    "sparsifiers.sparsify_jobs": spar_jobs,
                    "sparsifiers.sparsify_tasks": spar_tasks})
        for ab in ABBREVS:
            s, j, _, _ = total("sparsifiers.sparsify", ab)
            out[f"sparsifiers.{ab}_s"] = s
            out[f"sparsifiers.{ab}_jobs"] = j

        ev_s, ev_jobs, ev_tasks, _ = total(EVALUATE)
        out.update({"metrics.evaluate_s": ev_s, "metrics.evaluate_jobs": ev_jobs,
                    "metrics.evaluate_tasks": ev_tasks,
                    "metrics.jobs_per_cell": ev_jobs / max(cells, 1)})

        ref_s, ref_jobs = 0.0, 0
        for root in (s for s in self.spans if s.name == ROOT_SPAN):
            kids = [s for s in self.spans if s.parent is root
                    and s.name in ("graphs.load", "core.sweep")]
            ref_s += root.dur - sum(k.dur for k in kids)
            ref_jobs += root.jobs - sum(k.jobs for k in kids)
        out.update({"metrics.reference_s": ref_s, "metrics.reference_jobs": ref_jobs})

        for k in KERNELS:
            s, j, _, _ = total(f"metrics.{k}")
            out[f"metrics.{k}_s"] = s
            out[f"metrics.{k}_jobs"] = j

        sweeps = [s for s in self.spans if s.name == "core.sweep"]
        out["core.sweep_self_s"] = sum(s.self_s for s in sweeps)
        out["core.sweep_self_jobs"] = sum(len(s.self_jobs) for s in sweeps)

        # The self-time split: one figure span as the root, every other
        # span in its layer. The parts add up to core.sweep_s.
        roots = [s for s in self.spans if s.name == ROOT_SPAN]
        for layer in ("graphs", "sparsifiers", "metrics"):
            out[f"{layer}.self_s"] = sum(
                s.self_s for s in self.spans if s.layer == layer)
        out["core.unattributed_s"] = sum(s.self_s for s in roots)
        out["core.unattributed_jobs"] = sum(len(s.self_jobs) for s in roots)
        out["core.sweep_s"] = sum(s.dur for s in roots)
        out["core.jobs"] = sum(s.jobs for s in roots)
        out["core.failed_tasks"] = sum(s.failed_tasks for s in roots)
        out["core.checkpoints"] = self.checkpoints
        out["core.collects"] = self.collects
        out["core.collect_s"] = self.collect_s
        out["core.missing_entry_points"] = len(set(self.missing))
        out["core.trace_overhead_s"] = self.own_s
        return out


SELF_PARTS = ["graphs.self_s", "sparsifiers.self_s", "metrics.self_s",
              "core.sweep_self_s", "core.unattributed_s"]
