#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny op count.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes one traced run with the
pinned digests, which must pass its checks and emit every per-layer metric
with its unit, and one untraced run with that workload's pinned digest
corrupted, which must emit every end-to-end metric with its unit and report
the mismatch as a failure.  Prints one line per check; exits 1 on any
problem.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys

import run

TINY_OPS = 10        # fewer than Sweep.HEAVY_AFTER, so no heavy cell runs


def metric_problems(label: str, metrics: dict, want: dict) -> list:
    problems = []
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(f"{label}: missing {missing}, extra {extra}, "
                        f"wrong unit {wrong}")
    for k, v in metrics.items():
        value = v["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            problems.append(f"{label}: {k} = {value!r} is not a finite number >= 0")
    return problems


def main() -> int:
    run.import_program()
    from workloads import Sweep
    assert TINY_OPS < Sweep.HEAVY_AFTER
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    pins = run.load_pins()
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        traced = run.run_workload(name, seed=7, seconds=0, trace=True, pins=pins,
                                  min_ops=TINY_OPS, setups=1, log=io.StringIO())
        res = traced["result"]
        found = metric_problems(f"{name} traced", res["metrics"], per_layer)
        if not res["correct"] or res["failed"]:
            found.append(f"{name} traced: {res['failed']} of {res['attempted']} failed")
        corrupt = dict(pins, **{name: "0" * 64})
        log = io.StringIO()
        untraced = run.run_workload(name, seed=7, seconds=0, trace=False,
                                    pins=corrupt, min_ops=TINY_OPS, setups=1,
                                    log=log)
        res = untraced["result"]
        found += metric_problems(f"{name} untraced", res["metrics"], e2e)
        if res["correct"] or res["failed"] != 1 or "does not match" not in log.getvalue():
            found.append(f"{name}: corrupted pin not reported as exactly one failure")
        print(f"{name}: {'FAIL' if found else 'ok'}")
        problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
