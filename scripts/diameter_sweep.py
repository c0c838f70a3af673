#!/usr/bin/env python3
"""Sweep drawing classes and report compatibility-graph statistics.

Usage:
    python scripts/diameter_sweep.py [--max-n 7] [--seeds 5]

Prints one line per (class, n, seed): node count, twin-class count, edge
count and diameter of the compatibility graph, then the class count and
diameter of the star-family restriction (the columns marked *).  A twin
class is a set of trees with one conflict mask; the graph is analysed on
its classes.
"""

import argparse
import os
import sys
import time

# run from a checkout without installing: import treespan from its src/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from treespan.compat import analyze, build_compat_graph
from treespan.generators import CLASSES, GenSpec, generate
from treespan.trees import ENUM_LIMIT_ALL


def report(label: str, spec: GenSpec) -> None:
    t0 = time.perf_counter()
    d = generate(spec)
    g = build_compat_graph(d)
    rg = build_compat_graph(d, restricted=True)
    diam, rdiam = analyze(g).diameter, analyze(rg).diameter
    print(f"{label:<22}{spec.n:>3}{spec.seed:>5}{len(g.masks):>8}"
          f"{len(g.class_rows):>8}{g.edge_count():>10}{diam!s:>6}"
          f"{len(rg.class_rows):>9}{rdiam!s:>7}"
          f"{time.perf_counter() - t0:>7.2f}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()
    if args.max_n > ENUM_LIMIT_ALL:
        ap.error(f"--max-n {args.max_n}: full graphs are enumerated only "
                 f"up to n = {ENUM_LIMIT_ALL}")

    print(f"{'class':<22}{'n':>3}{'seed':>5}{'nodes':>8}{'classes':>8}"
          f"{'edges':>10}{'diam':>6}{'classes*':>9}{'diam*':>7}{'sec':>7}")
    for cls in CLASSES:
        if cls == "cylindrical":  # swept below, one row per shape (a, b)
            continue
        for n in range(4, args.max_n + 1):
            for seed in range(args.seeds):
                report(cls, GenSpec(cls=cls, n=n, seed=seed))

    for a_in, b_out in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        for seed in range(args.seeds):
            report(f"cylindrical({a_in},{b_out})",
                   GenSpec(cls="cylindrical", n=a_in + b_out, seed=seed,
                           a=a_in, b=b_out))


if __name__ == "__main__":
    main()
