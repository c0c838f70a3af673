"""Probes and per-layer metrics of the traced run.

Probes run after the timed ops, in spans flagged ``probe``.  They replay
the geometry predicates on the workload's own drawings, validate a cold
copy of each accepted drawing, make one direct ``enumerate_plane_trees``
call per input that ``build_compat_graph`` enumerated inside an op,
re-certify the sequences the ops returned, and give one small call to any
layer function the workload never reaches, on the workload's smallest
suitable drawing, so every traced run reports every metric.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from treespan.compat import analyze, build_compat_graph
from treespan.drawing import Drawing, classify_cylindrical, classify_monotone, validate_simple
from treespan.generators import GenSpec, generate
from treespan.geometry import curve_eval, polar_crossings, polyline_crossings, segment_proper_crossing
from treespan.rng import SplitMix64
from treespan.transforms import (
    certify_sequence,
    cmonotone_to_spine,
    monotone_to_spine,
    star_to_star,
    transform_cylindrical,
    transform_special,
)
from treespan.trees import enumerate_plane_trees, is_compatible

from workloads import note_graph, note_seq

REPLAY_DRAWINGS = 24      # drawings per backend the geometry probes replay
REPLAY_CAP = 40000        # calls per geometry predicate
VALIDATE_DRAWINGS = 40


def _each(fn, calls) -> None:
    for args in calls:
        fn(*args)


def _replay(tr, name: str, fn, calls: list) -> None:
    room = REPLAY_CAP - tr.counts[name + ".calls"]
    calls = calls[:max(room, 0)]
    if calls:
        tr.count(name + ".calls", len(calls))
        tr.call(name, _each, fn, calls, units=len(calls))


def probe_geometry(tr, drawings) -> None:
    cartesian = [d for _, d, _ in drawings if d.backend == "cartesian"]
    polar = [d for _, d, _ in drawings if d.backend == "polar"]
    for d in cartesian[:REPLAY_DRAWINGS]:
        curves = [d.curves[e] for e in d.edges]
        _replay(tr, "geometry.polyline_crossings", polyline_crossings,
                list(itertools.combinations(curves, 2)))
        segs = [list(zip(c, c[1:])) for c in curves]
        _replay(tr, "geometry.segment_proper_crossing", segment_proper_crossing,
                [(s, t) for a, b in itertools.combinations(segs, 2)
                 for s in a for t in b])
    for d in polar[:REPLAY_DRAWINGS]:
        curves = [d.curves[e] for e in d.edges]
        _replay(tr, "geometry.polar_crossings", polar_crossings,
                list(itertools.combinations(curves, 2)))
        thetas = [p[0] for p in d.vertex_points]
        _replay(tr, "geometry.curve_eval", curve_eval,
                [(c, th) for c in curves for th in thetas])


def probe_validate(tr, drawings) -> None:
    """Cold validation of accepted drawings; its share of their generate
    time is the work generate did not lose to resampling."""
    for _, d, gen_ns in drawings[:VALIDATE_DRAWINGS]:
        cold = Drawing(n=d.n, backend=d.backend, vertex_points=d.vertex_points,
                       curves=dict(d.curves), graph=d.graph, circles=d.circles)
        tr.call("drawing.validate_simple", validate_simple, cold)
        m = len(d.curves)
        tr.count("drawing.edge_pairs", m * (m - 1) // 2)
        if gen_ns:
            tr.count("useful.validate_ns", tr.last_ns)
            tr.count("useful.generate_ns", gen_ns)


def probe_enumeration(tr, nested) -> None:
    for d, kind in nested:
        trees = tr.call("trees.enumerate_plane_trees", enumerate_plane_trees,
                        d, kind=kind)
        tr.count("trees.enumerated", len(trees))


def _smallest(drawings, cls=None, min_n=5):
    """The workload's smallest drawing of class `cls` (any class if None)."""
    fits = [(d.n, i, d) for i, (c, d, _) in enumerate(drawings)
            if cls in (None, c) and d.n >= min_n]
    return min(fits)[2] if fits else None


def _cover_transforms(tr, state, rng) -> None:
    have = {s[2] for s in tr.spans}
    drawings = state.drawings

    def transform(name, fn, d, *args):
        seq = tr.call("transforms." + name, fn, d, *args)
        note_seq(tr, state, d, seq)

    if "transforms.star_to_star" not in have:
        d = _smallest(drawings)
        for g, r in itertools.permutations(range(d.n), 2):
            transform("star_to_star", star_to_star, d, g, r)
    if "transforms.transform_special" not in have:
        d = _smallest(drawings)
        trees = enumerate_plane_trees(d, kind="special")
        for _ in range(40):
            transform("transform_special", transform_special, d,
                      rng.choice(trees), rng.choice(trees))
    if "transforms.transform_cylindrical" not in have:
        d = (_smallest(drawings, "cylindrical", 4)
             or generate(GenSpec(cls="cylindrical", n=4, seed=rng.next_u64(), a=2, b=2)))
        roles = classify_cylindrical(d, Fraction(1), Fraction(4))
        trees = enumerate_plane_trees(d)
        for i, t1 in enumerate(trees):
            for t2 in trees[i:]:
                transform("transform_cylindrical", transform_cylindrical,
                          d, roles, t1, t2)
    if "transforms.monotone_to_spine" not in have:
        d = _smallest(drawings, "monotone_perturbed")
        spine = classify_monotone(d)
        for t in enumerate_plane_trees(d)[:40]:
            transform("monotone_to_spine", monotone_to_spine, d, spine, t)
    if "transforms.cmonotone_to_spine" not in have:
        d = _smallest(drawings, "strongly_cmonotone")
        for t in enumerate_plane_trees(d)[:2]:
            transform("cmonotone_to_spine", cmonotone_to_spine, d, t)


def _cover_compat(tr, state) -> None:
    have = {s[2] for s in tr.spans}
    if "compat.build_compat_graph" in have:
        return
    d = _smallest(state.drawings)
    for restricted in (False, True):
        g = tr.call("compat.build_compat_graph", build_compat_graph, d,
                    restricted=restricted)
        tr.call("compat.analyze", analyze, g)
        note_graph(tr, state, d, g)


def probe_sequences(tr, seqs) -> None:
    for d, seq in seqs:
        tr.call("transforms.certify_sequence", certify_sequence, d, seq.trees,
                units=len(seq.trees))
        steps = [(d, a, b) for a, b in zip(seq.trees, seq.trees[1:])]
        if steps:
            tr.call("trees.is_compatible", _each, is_compatible, steps,
                    units=len(steps))


def run_probes(tr, state, seed: int) -> None:
    tr.probe = True
    try:
        rng = SplitMix64(seed ^ 0x5EED)
        probe_geometry(tr, state.drawings)
        probe_validate(tr, state.drawings)
        _cover_compat(tr, state)
        probe_enumeration(tr, state.nested.values())
        _cover_transforms(tr, state, rng)
        probe_sequences(tr, state.seqs)
    finally:
        tr.probe = False


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(tr, overhead_pct: float) -> dict:
    totals = tr.totals()
    c = tr.counts

    def per(name: str, scale: float) -> float:
        _, ns, units = totals[name]
        return ns / units / scale

    def method(m: str) -> tuple:
        return ("transforms.%s.us_per_call" % m, "us",
                per("transforms." + m, 1e3))

    rows = [
        ("geometry.segment_proper_crossing.us_per_call", "us",
         per("geometry.segment_proper_crossing", 1e3)),
        ("geometry.polyline_crossings.us_per_pair", "us",
         per("geometry.polyline_crossings", 1e3)),
        ("geometry.polar_crossings.us_per_pair", "us",
         per("geometry.polar_crossings", 1e3)),
        ("geometry.curve_eval.us_per_call", "us", per("geometry.curve_eval", 1e3)),
        ("drawing.validate_simple.ms_per_drawing", "ms",
         per("drawing.validate_simple", 1e6)),
        ("drawing.edge_pairs", "count", c["drawing.edge_pairs"]),
        ("generators.generate.ms_per_drawing", "ms",
         per("generators.generate", 1e6)),
        ("generators.useful_share", "ratio",
         c["useful.validate_ns"] / c["useful.generate_ns"]),
        ("trees.enumerate_plane_trees.s", "s",
         per("trees.enumerate_plane_trees", 1e9)),
        ("trees.enumerated", "count", c["trees.enumerated"]),
        ("trees.is_compatible.us_per_call", "us", per("trees.is_compatible", 1e3)),
        ("transforms.certify_sequence.us_per_tree", "us",
         per("transforms.certify_sequence", 1e3)),
        ("compat.build_compat_graph.s", "s", per("compat.build_compat_graph", 1e9)),
        ("compat.pairs", "count", c["compat.pairs"]),
        ("compat.pairs_per_s", "1/s",
         c["compat.pairs"] / (totals["compat.build_compat_graph"][1] / 1e9)),
        ("compat.edges", "count", c["compat.edges"]),
        ("compat.analyze.s", "s", per("compat.analyze", 1e9)),
        ("compat.analyze.nodes", "count", c["compat.analyze.nodes"]),
        method("transform_cylindrical"),
        method("transform_special"),
        method("monotone_to_spine"),
        method("cmonotone_to_spine"),
        method("star_to_star"),
        ("transforms.trees_out", "count", c["transforms.trees_out"]),
        ("transforms.tree_reuse_ratio", "ratio",
         len(tr.distinct_trees) / c["transforms.trees_out"]),
        ("trace.overhead_pct", "%", overhead_pct),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in rows}
