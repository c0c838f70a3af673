#!/usr/bin/env python3
"""treespan benchmark: one workload in one process on one thread.

    python3 perfbench/run.py --workload gen-star --seed 1 --seconds 25 --trace 0

Imports treespan from ``src/`` of the checkout this file sits in and builds
the workload's inputs from ``--seed``, timing that set-up ``SETUPS`` times.
It then runs ``round(seconds * OPS_PER_SECOND)`` ops (at least ``MIN_OPS``)
in a closed loop with one caller: the count a run at the reference speed of
``speed.py`` completes in ``--seconds``.  Every op's output is checked
against the paper's bounds, and a canary set of ops at seed 0 is hashed and
compared with the digest pinned in ``pins.json``.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.
See README.md.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import speed
from tracing import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
OUT = os.path.join(HERE, "out")

SETUPS = 5
MIN_OPS = 100


def import_program() -> None:
    """Put the checkout's src/ first on the path and refuse any other copy."""
    sys.path.insert(0, SRC)
    import treespan
    if not os.path.abspath(treespan.__file__).startswith(SRC + os.sep):
        raise ImportError(f"treespan imported from {treespan.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "treespan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def canary_digest(wl) -> tuple:
    """(sha256, ops, failed ops) of the workload's canary ops at seed 0."""
    tr = NullTracer()
    state, ops = wl.canary()
    h = hashlib.sha256(getattr(state, "setup_digest", b""))
    failed = 0
    for op in ops:
        out = wl.run(state, op, tr)
        failed += wl.check(state, op, out) is not None
        h.update(wl.encode(op, out))
    return h.hexdigest(), len(ops), failed


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def quantile_stats(times_ns: list) -> dict:
    ms = [t / 1e6 for t in times_ns]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[8]
    return {"p50": p50, "p90": p90, "samples": len(ms),
            "beyond_p90": sum(1 for t in ms if t > p90)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pins: dict, min_ops: int = MIN_OPS, setups: int = SETUPS,
                 log=sys.stderr) -> dict:
    """Run one workload and return the result object (plus provenance)."""
    # These import treespan, so they wait for import_program().
    from workloads import WORKLOADS
    import layers

    wl = WORKLOADS[name]
    tr = Tracer() if trace else NullTracer()

    gauge = speed.Gauge()
    sampled = speed.Sampled(gauge)
    setup_raw, setup_s = [], []
    for k in range(setups):
        for _ in range(3):
            gauge.sample()
        t0 = time.perf_counter()
        state = wl.setup(seed, tr if trace and k == setups - 1 else sampled)
        t1 = time.perf_counter()
        for _ in range(3):
            gauge.sample()
        raw, scaled = gauge.span(t0, t1)
        setup_raw.append(raw)
        setup_s.append(scaled)

    # A fixed op count per run keeps every run's op mix the same; it is the
    # count a run at the reference speed completes in `seconds`.
    n_ops = max(min_ops, round(seconds * wl.OPS_PER_SECOND))
    # Preallocated so that peak_rss_mb does not grow during the loop.
    starts = array.array("d", bytes(8 * n_ops))
    times = array.array("q", bytes(8 * n_ops))
    failed = 0
    t_loop = time.perf_counter()
    for i in range(n_ops):
        gauge.sample_due()
        op = state.op_at(i)
        tr.begin_op()
        starts[i] = time.perf_counter()
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(state, op, tr)
        except Exception:
            failed += 1
            print(f"op {i} raised:\n{traceback.format_exc()}", file=log)
            continue
        finally:
            times[i] = time.perf_counter_ns() - t0
            tr.end_op()
        problem = wl.check(state, op, out)
        if problem is not None:
            failed += 1
            print(f"op {i} failed its check: {problem}", file=log)
        if trace:
            wl.record(tr, state, op, out)
    loop_s = time.perf_counter() - t_loop
    # Read before the canary and the statistics below, which are not the
    # workload's memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gauge.sample()
    scaled = [t * gauge.factor(s, s + t / 1e9) for s, t in zip(starts, times)]

    digest, canary_ops, canary_failed = canary_digest(wl)
    pinned = pins.get(name)
    attempted = n_ops + canary_ops + 1
    failed += canary_failed + (digest != pinned)
    if digest != pinned:
        print(f"{name}: canary digest {digest} does not match pinned {pinned}",
              file=log)

    q = quantile_stats(scaled)
    raw = quantile_stats(times)
    if trace:
        overhead = tr.op_overhead_pct()
        layers.run_probes(tr, state, seed)
        metrics = layers.layer_metrics(tr, overhead)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / (sum(scaled) / 1e9), "unit": "1/s"},
            "op_p50_ms": {"value": q["p50"], "unit": "ms"},
            "op_p90_ms": {"value": q["p90"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "ops": len(times), "loop_s": loop_s, "setup_runs_s": setup_s,
        "unscaled": {"setup_s": statistics.median(setup_raw),
                     "ops_per_s": len(times) / (sum(times) / 1e9),
                     "op_p50_ms": raw["p50"], "op_p90_ms": raw["p90"]},
        "speed": {"run_factor": sum(scaled) / sum(times),
                  "kernel_samples": len(gauge.ns),
                  "kernel_ms_median": statistics.median(gauge.ns) / 1e6,
                  "kernel_ms_min": min(gauge.ns) / 1e6,
                  "kernel_ms_max": max(gauge.ns) / 1e6},
        "percentile_samples": {"p50": q["samples"], "p90": q["samples"],
                               "beyond_p90": q["beyond_p90"]},
        "canary": {"seed": 0, "ops": canary_ops, "sha256": digest,
                   "pinned": pinned},
        "fail_ratio": failed / attempted,
    }
    if trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
        tr.write(path, {"provenance": provenance, "metrics": metrics})
        provenance["trace_file"] = os.path.relpath(path, ROOT)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"provenance": provenance, "result": result}


def write_pins() -> None:
    from workloads import WORKLOADS
    pins = {name: canary_digest(wl)[0] for name, wl in WORKLOADS.items()}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(pins, indent=2))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="recompute the canary digests into pins.json")
    args = ap.parse_args(argv)
    import_program()
    if args.write_pins:
        write_pins()
        return 0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), load_pins())
    print(json.dumps({"provenance": out["provenance"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
