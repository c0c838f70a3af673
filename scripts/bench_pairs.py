#!/usr/bin/env python3
"""A/B benchmark workloads: a git revision against this checkout.

    python scripts/bench_pairs.py --parent HEAD~1 --workload transform-pairs \\
        gen-star sweep --pairs 10 --seed 1 2

Exports ``--parent`` with ``git archive`` and ``tar`` into a temporary
directory and runs ``perfbench/run.py`` of each side, each importing its
own ``src/``, for ``BENCHMARK.json``'s ``run_seconds``.  For each
``--workload`` in turn it runs ``--pairs`` pairs.  With S ``--seed``
values, pair k is round k // S of the seed at position k % S, so the seeds
cycle.  The parent goes first when the round plus the seed's position is
even: each seed alternates the order, and when ``--pairs`` is a multiple
of 2 S every seed runs each side first equally often.  For every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles over the finished pairs, the pairs the change won and a verdict:

- ``gain``: the change won at least nine tenths of the pairs (ties count
  for neither side) and the medians differ, its way, by more than the
  distance between the parent's quartiles;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``better``: neither, the parent's quartiles lie further apart than the
  bound, and every change run beats every parent run;
- ``unresolved``: neither, and the parent's quartiles lie further apart
  than the bound, so the runs cannot tell;
- ``flat``: neither, within the bound.

A run that exits non-zero prints the tail of its stderr and ends its
workload's pairs; the pairs finished before it are still compared.  Exits
1 if a run failed, is not ``correct`` or fails an op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STDERR_LINES = 20  # of a failed run, printed


def export(rev: str, dest: str) -> None:
    """The files of ``rev`` in ``dest``, read from this checkout's git."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def run_side(root: str, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """The result object of one ``perfbench/run.py`` run in ``root``, or
    None, after printing the tail of its stderr, if it exits non-zero."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=root, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_LINES:])
        print(f"{workload} seed {seed} in {root} exited {out.returncode}:\n{tail}",
              file=sys.stderr, flush=True)
        return None
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
        beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
        kind = "better" if beats_all else "unresolved"
    else:
        kind = "flat"
    return {"wins": wins, "pairs": len(parent), "gap": gap, "iqr": iqr,
            "ratio": cm / pm if pm else float("nan"), "verdict": kind}


def run_pairs(roots: Dict[str, str], workload: str, pairs: int,
              seeds: Sequence[int], seconds: float) -> tuple:
    """``(runs, bad)``: each side's result objects of the finished pairs,
    in pair order, and the count of bad runs.  A run that fails ends the
    pairs."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    bad = 0
    for k in range(pairs):
        round_, position = divmod(k, len(seeds))
        seed = seeds[position]
        order = (("parent", "change") if (round_ + position) % 2 == 0
                 else ("change", "parent"))
        pair = {}
        for side in order:
            result = run_side(roots[side], workload, seed, seconds)
            if result is None:
                return runs, bad + 1
            pair[side] = result
            bad += not result["correct"] or result["failed"] > 0
        for side in order:
            runs[side].append(pair[side])
        print(f"{workload} pair {k + 1}/{pairs} seed {seed}: " + "  ".join(
            f"{side} {pair[side]['metrics']['ops_per_s']['value']:.6g} ops/s"
            for side in order), file=sys.stderr, flush=True)
    return runs, bad


def print_table(runs: Dict[str, List[dict]], metrics: Sequence[dict]) -> None:
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


def compare(roots: Dict[str, str], workloads: Sequence[str], pairs: int,
            seeds: Sequence[int], bench: dict) -> int:
    """Run and print every workload's pairs; 1 if any run was bad."""
    seconds = bench["run_seconds"]
    bad = 0
    for workload in workloads:
        runs, workload_bad = run_pairs(roots, workload, pairs, seeds, seconds)
        bad += workload_bad
        done = len(runs["parent"])
        print(f"{workload}: {done} of {pairs} pairs, seeds {list(seeds)}, {seconds} s, "
              f"parent {roots['parent']} vs {roots['change']}")
        if done:
            print_table(runs, bench["end_to_end"])
    if bad:
        print(f"{bad} runs failed, were not correct or failed ops", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export(args.parent, tmp)
        return compare({"parent": tmp, "change": ROOT}, args.workload, args.pairs,
                       args.seed, bench)


if __name__ == "__main__":
    sys.exit(main())
