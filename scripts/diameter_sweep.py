#!/usr/bin/env python3
"""Sweep drawing classes and report compatibility-graph statistics.

Usage:
    python scripts/diameter_sweep.py [--max-n 7] [--seeds 5]

Prints one line per (class, n, seed): node count, edge count, connectivity
and diameter of the brute-force compatibility graph, for both the full
graph and the star-family restriction.
"""

import argparse
import os
import sys
import time

# run from a checkout without installing: import treespan from its src/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from treespan.compat import analyze, build_compat_graph
from treespan.generators import GenSpec, generate


def report(label: str, spec: GenSpec) -> None:
    t0 = time.perf_counter()
    d = generate(spec)
    g = build_compat_graph(d)
    diam = analyze(g).diameter
    rdiam = analyze(build_compat_graph(d, restricted=True)).diameter
    print(f"{label:<22}{spec.n:>3}{spec.seed:>5}{len(g.masks):>8}"
          f"{g.edge_count():>10}{diam!s:>6}{rdiam!s:>7}"
          f"{time.perf_counter() - t0:>7.2f}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=7)
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    classes = ["convex", "random_points", "monotone_perturbed", "two_page",
               "strongly_cmonotone"]
    print(f"{'class':<22}{'n':>3}{'seed':>5}{'nodes':>8}{'edges':>10}"
          f"{'diam':>6}{'diam*':>7}{'sec':>7}")
    for cls in classes:
        top = min(args.max_n, 8 if cls == "strongly_cmonotone" else args.max_n)
        for n in range(4, top + 1):
            for seed in range(args.seeds):
                report(cls, GenSpec(cls=cls, n=n, seed=seed))

    for a_in, b_out in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        for seed in range(args.seeds):
            report(f"cylindrical({a_in},{b_out})",
                   GenSpec(cls="cylindrical", n=a_in + b_out, seed=seed,
                           a=a_in, b=b_out))


if __name__ == "__main__":
    main()
