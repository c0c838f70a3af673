#!/usr/bin/env python3
"""A/B one benchmark workload: a git revision against this checkout.

    python scripts/bench_pairs.py --parent HEAD~1 --workload transform-pairs \\
        --pairs 10 --seed 1 2

Exports ``--parent`` with ``git archive`` and ``tar`` into a temporary
directory and runs ``perfbench/run.py`` of each side, each importing its
own ``src/``, for ``BENCHMARK.json``'s ``run_seconds``.  It runs
``--pairs`` pairs, alternating which side goes first (the parent on odd
pairs).  Pair k uses the k-th ``--seed``, cycling.  For every end-to-end
metric of ``BENCHMARK.json`` it prints each side's median and quartiles,
the pairs the change won and a verdict:

- ``gain``: the change won at least nine tenths of the pairs (ties count
  for neither side) and the medians differ, its way, by more than the
  distance between the parent's quartiles;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: neither, and the parent's quartiles lie further apart
  than the bound, so the runs cannot tell;
- ``flat``: neither, within the bound.

Exits 1 if a run is not ``correct`` or fails an op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> None:
    """The files of ``rev`` in ``dest``, read from this checkout's git."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one ``perfbench/run.py`` run in ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=root, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3]; one value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    """Compare pairs of runs (``parent[k]`` ran beside ``change[k]``) of a
    metric where ``better`` is "higher" or "lower"; ``bound`` is the share
    of the parent's median by which the change may be worse."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gap = sign * (cm - pm)            # > 0: the change is better
    iqr = p3 - p1
    if wins >= 0.9 * len(parent) and gap > iqr:
        kind = "gain"
    elif -gap > bound * abs(pm):
        kind = "worse"
    elif iqr > bound * abs(pm):
        kind = "unresolved"
    else:
        kind = "flat"
    return {"wins": wins, "pairs": len(parent), "gap": gap, "iqr": iqr,
            "ratio": cm / pm if pm else float("nan"), "verdict": kind}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    bad = 0
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export(args.parent, tmp)
        roots = {"parent": tmp, "change": ROOT}
        for k in range(args.pairs):
            seed = args.seed[k % len(args.seed)]
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_side(roots[side], args.workload, seed, seconds)
                runs[side].append(result)
                bad += not result["correct"] or result["failed"] > 0
            print(f"pair {k + 1}/{args.pairs} seed {seed}: " + "  ".join(
                f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.6g} ops/s"
                for side in order), file=sys.stderr, flush=True)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}, {seconds} s, "
          f"parent {args.parent} vs {ROOT}")
    print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
          f" {'ratio':>6} {'wins':>6}  verdict")
    for m in metrics:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        v = verdict(p, c, m["better"], m["bound"])
        cells = []
        for values in (p, c):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:<12} {cells[0]:>30} {cells[1]:>30} {v['ratio']:>6.3f}"
              f" {v['wins']:>3}/{v['pairs']:<2}  {v['verdict']}")
    if bad:
        print(f"{bad} runs were not correct or failed ops", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
