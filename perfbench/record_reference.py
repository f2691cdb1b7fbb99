"""Regenerate ``reference.json``: the deterministic sparsifiers' rows of
every workload on each of its input instances.

    python3 perfbench/record_reference.py

Run it only when a workload's definition changes, never to make a
failing check pass: the stored rows are what the checks hold later
commits to.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.core import figures

    reference = {}
    spark = run.start_spark()
    try:
        for name, w in wl.WORKLOADS.items():
            fn = getattr(figures, w.figure)
            reference[name] = {}
            for inst in range(wl.INSTANCES):
                with wl.Capture(*w.capture) as cap:
                    out = fn(spark, **w.call_kwargs(inst))
                reference[name][str(inst)] = wl.deterministic_rows(w, out)
                problems = wl.oracle_check(w, out, cap)
                run.release(spark)
                print(f"{name} instance {inst} recorded; oracle: {problems or 'ok'}",
                      file=sys.stderr, flush=True)
    finally:
        run.stop_spark(spark)
        shutil.rmtree(run.WORK, ignore_errors=True)
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
