#!/usr/bin/env python3
"""Render one example drawing per class, plus a transformation sequence.

Usage:
    python scripts/render_examples.py [--out-dir figures]
"""

import argparse
import os
import pathlib
import sys

# run from a checkout without installing: import treespan from its src/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from treespan.drawing import classify_monotone
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.render import render_svg
from treespan.transforms import monotone_to_spine
from treespan.trees import enumerate_plane_trees


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="figures")
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    specs = [
        GenSpec(cls="convex", n=6, seed=1),
        GenSpec(cls="two_page", n=6, seed=1),
        GenSpec(cls="monotone_perturbed", n=6, seed=1),
        GenSpec(cls="cylindrical", n=6, seed=1, a=3, b=3),
        GenSpec(cls="strongly_cmonotone", n=6, seed=1),
    ]
    for spec in specs:
        d = generate(spec)
        name = f"{spec.cls}_n{spec.n}.svg"
        (out / name).write_text(render_svg(d))
        print("wrote", out / name)

    d = generate(GenSpec(cls="monotone_perturbed", n=6, seed=3))
    spine = classify_monotone(d)
    start = max(enumerate_plane_trees(d),
                key=lambda t: sum(1 for e in t if e not in spine.spine_edges))
    seq = monotone_to_spine(d, spine, start)
    for i, tree in enumerate(seq.trees):
        name = f"monotone_step_{i}.svg"
        (out / name).write_text(render_svg(d, [tree]))
        print("wrote", out / name)

    fixture, tree = fixture_bipartite_isolated()
    (out / "bipartite_isolated.svg").write_text(render_svg(fixture, [tree]))
    print("wrote", out / "bipartite_isolated.svg")


if __name__ == "__main__":
    main()
