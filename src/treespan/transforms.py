"""Constructive transformations between compatible plane spanning trees.

Five methods, one per drawing/tree class the transformations cover:
cylindrical (through the uncrossed cycle paths), monotone (maximal twiggly
rounds), strongly c-monotone (corridor paths, or the cut to a monotone
drawing), and the star family (flip schedules along the crossing relation).
Every method certifies its own output before returning it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .drawing import (
    CylRoles,
    Drawing,
    Edge,
    SpineStructure,
    classify_c_monotone,
    classify_monotone,
    cut_to_monotone,
    edge,
    edge_span,
    span_contains,
    succ_maximal,
    twiggly_set,
    validate_simple,
    vertex_angles,
    vertices_above,
)
from .errors import (
    BadTreeError,
    FullCircleCorridorError,
    IncompatibleStepError,
    InternalInvariantViolated,
    NoSideEdgeError,
    NotCylindricalError,
    NotDoubleStarError,
    NotMonotoneError,
    NotSpecialTreeError,
    NotStronglyCMonotoneError,
    NotTwinStarError,
    RelationCyclicError,
)
from .geometry import curve_eval
from .trees import (
    Tree,
    TreeCert,
    _UnionFind,
    canon_tree,
    check_mask,
    check_tree,
    conflict_mask,
    double_star_paths,
    is_compatible,
    mask_tree,
    star_centers,
    tree_mask,
    twin_star_paths,
)

CENTER = "center"
INFINITY = "infinity"


@dataclass(frozen=True)
class TransformSequence:
    trees: Tuple[Tree, ...]
    method: str
    certs: Tuple[TreeCert, ...]
    certified: bool

    def __len__(self) -> int:
        return len(self.trees)

    @property
    def flips(self) -> int:
        return len(self.trees) - 1


def certify_sequence(d: Drawing, trees: Sequence[Iterable[Edge]],
                     method: str = "manual") -> TransformSequence:
    """Verify every tree is plane spanning and every consecutive pair is
    compatible; raises BadTreeError / IncompatibleStepError otherwise."""
    if not trees:
        raise ValueError("empty sequence")
    masks = [tree_mask(d, t) for t in trees]
    certs = tuple(check_mask(d, mask) for mask in masks)
    for i, cert in enumerate(certs):
        if not cert.is_plane_spanning_tree:
            raise BadTreeError(i, cert)
    for i in range(len(masks) - 1):
        if masks[i] & conflict_mask(d, masks[i + 1]):
            raise IncompatibleStepError(i)
    return TransformSequence(trees=tuple(mask_tree(d, m) for m in masks),
                             method=method, certs=certs, certified=True)


def _dedupe(trees: List[Tree]) -> List[Tree]:
    out = [trees[0]]
    for t in trees[1:]:
        if t != out[-1]:
            out.append(t)
    return out


def _require_plane_spanning(d: Drawing, t: Tree) -> None:
    cert = check_tree(d, t)
    if not cert.is_plane_spanning_tree:
        raise BadTreeError(0, cert)


def _retree(n: int, groups: Sequence[Iterable[Edge]]) -> Tree:
    """Spanning tree built greedily from the groups in keep-priority order
    (earlier groups are preferentially kept, ids ascending within one)."""
    uf = _UnionFind(n)
    out: List[Edge] = []
    for group in groups:
        for e in sorted(group):  # a repeated edge fails its second union
            if uf.union(e[0], e[1]):
                out.append(e)
    if len(out) != n - 1:
        raise InternalInvariantViolated("edge pool does not connect the graph")
    return canon_tree(out)


# ---------------------------------------------------------------------------
# cylindrical
# ---------------------------------------------------------------------------

def transform_cylindrical(d: Drawing, roles: Optional[CylRoles],
                          t1: Iterable[Edge], t2: Iterable[Edge]) -> TransformSequence:
    """At most five trees: t1, the cycle-path tree with a side edge of t1,
    (optionally a bridge over an uncrossable side-edge pair), the analogous
    tree for t2, and t2."""
    if roles is None:
        raise NotCylindricalError("drawing is not cylindrical")
    t1, t2 = canon_tree(t1), canon_tree(t2)
    _require_plane_spanning(d, t1)
    _require_plane_spanning(d, t2)
    if t1 == t2:
        return certify_sequence(d, [t1], method="cylindrical")
    if is_compatible(d, t1, t2):
        return certify_sequence(d, [t1, t2], method="cylindrical")

    paths = roles.inner_path + roles.outer_path

    def cycle_tree(side: Optional[Edge]) -> Tree:
        return canon_tree(paths + ((side,) if side else ()))

    if not roles.inner_vertices or not roles.outer_vertices:
        seq = _dedupe([t1, cycle_tree(None), t2])
        return certify_sequence(d, seq, method="cylindrical")

    def side_of(t: Tree) -> Edge:
        sides = [e for e in t if roles.roles[e] == "side"]
        if not sides:
            raise NoSideEdgeError("spanning tree without a side edge")
        return min(sides)

    e1, e2 = side_of(t1), side_of(t2)
    inner = set(roles.inner_vertices)
    seq = [t1, cycle_tree(e1)]
    if e1 != e2 and d.cross(e1, e2):
        s1 = e1[0] if e1[0] in inner else e1[1]
        r1 = e1[1] if s1 == e1[0] else e1[0]
        s2 = e2[0] if e2[0] in inner else e2[1]
        r2 = e2[1] if s2 == e2[0] else e2[0]
        bridge = min(edge(s1, r2), edge(s2, r1))
        if d.cross(bridge, e1) or d.cross(bridge, e2):
            raise InternalInvariantViolated(
                "replacement side edge crosses the originals")
        seq.append(cycle_tree(bridge))
    seq += [cycle_tree(e2), t2]
    return certify_sequence(d, _dedupe(seq), method="cylindrical")


# ---------------------------------------------------------------------------
# monotone
# ---------------------------------------------------------------------------

def monotone_to_spine(d: Drawing, spine: Optional[SpineStructure],
                      t: Iterable[Edge]) -> TransformSequence:
    """Repeatedly resolve a maximal twiggly edge through the path over the
    vertices above it, ending at the spine path.  The twiggly count strictly
    decreases each round; violations raise InternalInvariantViolated."""
    if spine is None or spine.kind != "monotone":
        raise NotMonotoneError("drawing is not monotone")
    t = canon_tree(t)
    _require_plane_spanning(d, t)
    xs = {v: d.vertex_point(v).x for v in range(d.n)}
    spine_set = set(spine.spine_edges)
    seq = [t]
    rounds = 0
    twig = twiggly_set(d, spine, t)
    while twig:
        rounds += 1
        if rounds > d.n - 1:
            raise InternalInvariantViolated("too many monotone rounds")
        e = succ_maximal(d, twig)
        vi, vj = sorted(e, key=lambda v: xs[v])
        above = sorted(vertices_above(d, e), key=lambda v: xs[v])
        if not above:
            raise InternalInvariantViolated("maximal twiggly edge with no "
                                            "vertex above it")
        stops = [vi] + above + [vj]
        path_edges = [edge(stops[k], stops[k + 1]) for k in range(len(stops) - 1)]
        hit = conflict_mask(d, tree_mask(d, path_edges)) & tree_mask(d, t)
        if hit:  # e is in t, so this also covers crossing the resolved edge
            raise InternalInvariantViolated(
                f"detour path crosses tree: {mask_tree(d, hit)}")
        rest = set(t) - {e}
        new_t = _retree(d.n, [
            path_edges,
            rest & spine_set,
            rest - spine_set - twig,
            rest & twig,
        ])
        new_twig = twiggly_set(d, spine, new_t)
        if len(new_twig) >= len(twig):
            raise InternalInvariantViolated("twiggly count did not decrease")
        seq.append(new_t)
        t, twig = new_t, new_twig
    target = canon_tree(spine.spine_edges)
    if t != target:
        seq.append(target)
    return certify_sequence(d, _dedupe(seq), method="monotone")


# ---------------------------------------------------------------------------
# corridors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corridor:
    interval: Tuple  # (theta1, theta2) with theta1 in [0,1), theta2 > theta1
    lower: object    # Edge or CENTER
    upper: object    # Edge or INFINITY
    start_vertex: Optional[int]
    end_vertex: Optional[int]

    @property
    def is_inner(self) -> bool:
        return self.lower == CENTER

    @property
    def is_outer(self) -> bool:
        return self.upper == INFINITY


def _lift_into(theta, lo, hi):
    """Representative of theta (mod 1) inside [lo, hi], or None."""
    base = theta % 1
    cand = base + math.ceil(lo - base)
    return cand if cand <= hi else None


def corridors(d: Drawing, twigglies: Iterable[Edge]) -> List[Corridor]:
    """Corridors of the arrangement of the given pairwise non-crossing
    edges plus the dummy boundaries at the circle center and at infinity.
    Along any ray crossing k of the edges, exactly k+1 corridors are hit."""
    twigglies = sorted(set(twigglies))
    if not twigglies:
        return [Corridor(interval=(0, 1), lower=CENTER, upper=INFINITY,
                         start_vertex=None, end_vertex=None)]
    angles = vertex_angles(d)
    at_angle = {angles[v]: v for v in range(d.n)}
    spans = {e: edge_span(d, e) for e in twigglies}
    events = sorted({angles[v] for e in twigglies for v in e})
    m = len(events)
    gaps = []
    for j in range(m):
        a = events[j]
        b = events[j + 1] if j + 1 < m else events[0] + 1
        gaps.append((a, b))

    per_gap: List[List[Tuple[object, object]]] = []
    for a, b in gaps:
        mid = (a + b) / 2
        stabbed = [e for e in twigglies if span_contains(spans[e], mid)]
        stabbed.sort(key=lambda e: curve_eval(d.curves[e], mid))
        chain = [CENTER] + stabbed + [INFINITY]
        per_gap.append([(chain[k], chain[k + 1]) for k in range(len(chain) - 1)])

    out: List[Corridor] = []
    emitted = set()
    for j in range(m):
        for pair in per_gap[j]:
            if pair in per_gap[j - 1 if j else m - 1] and m > 1:
                continue  # continues an earlier gap; emitted there
            run = 0
            while run < m and pair in per_gap[(j + run) % m]:
                run += 1
            if run == m and m > 1:
                raise InternalInvariantViolated("corridor wraps the circle")
            start = events[j]
            end_idx = (j + run) % m
            end = events[end_idx] + (1 if j + run >= m else 0)
            key = (start, pair)
            if key in emitted:
                continue
            emitted.add(key)
            out.append(Corridor(interval=(start, end), lower=pair[0],
                                upper=pair[1],
                                start_vertex=at_angle[start],
                                end_vertex=at_angle[end % 1]))
    return sorted(out, key=lambda c: (c.interval[0], str(c.lower), str(c.upper)))


def _bound_radius(d: Drawing, bound, theta):
    if bound == CENTER:
        return 0
    if bound == INFINITY:
        return None
    return curve_eval(d.curves[bound], theta)


def corridor_path(d: Drawing, t: Iterable[Edge], c: Corridor,
                  twigglies: Optional[FrozenSet[Edge]] = None) -> List[Edge]:
    """Greedy consecutive-vertex path from the corridor's start to its end
    vertex, certified to stay radially inside the corridor and to avoid the
    tree; inner/outer corridors additionally avoid all twiggly edges."""
    if c.start_vertex is None or c.end_vertex is None:
        raise FullCircleCorridorError("corridor has no endpoints")
    t_mask = tree_mask(d, t)
    angles = vertex_angles(d)
    lo, hi = c.interval
    inside: List[Tuple[object, int]] = []
    for v in range(d.n):
        lifted = _lift_into(angles[v], lo, hi)
        if lifted is None or lifted in (lo, hi):
            continue
        r = d.vertex_point(v)[1]
        low = _bound_radius(d, c.lower, lifted)
        high = _bound_radius(d, c.upper, lifted)
        if low < r and (high is None or r < high):
            inside.append((lifted, v))
    stops = [c.start_vertex] + [v for _, v in sorted(inside)] + [c.end_vertex]
    path = [edge(stops[k], stops[k + 1]) for k in range(len(stops) - 1)]

    # certification: radial containment at the midpoint of every hop,
    # no crossing with the tree, no twiggly edges in inner/outer corridors
    stop_angles = [lo] + [a for a, _ in sorted(inside)] + [hi]
    for k, g in enumerate(path):
        mid = (stop_angles[k] + stop_angles[k + 1]) / 2
        for h in path:
            if h == c.lower or h == c.upper:
                continue  # a forced bounding edge lies on the closed boundary
            r = curve_eval(d.curves[h], mid)
            if r is None:
                continue
            low = _bound_radius(d, c.lower, mid)
            high = _bound_radius(d, c.upper, mid)
            if not (low < r and (high is None or r < high)):
                raise InternalInvariantViolated("path leaves its corridor")
        if curve_eval(d.curves[g], mid) is None:
            raise InternalInvariantViolated("path hop skips its own arc")
    hit = conflict_mask(d, tree_mask(d, path)) & t_mask
    if hit:
        raise InternalInvariantViolated(
            f"corridor path crosses tree: {mask_tree(d, hit)}")
    if twigglies is not None and (c.is_inner or c.is_outer):
        bad = set(path) & set(twigglies)
        if bad:
            raise InternalInvariantViolated(
                f"inner/outer corridor path uses twiggly edges: {bad}")
    return path


# ---------------------------------------------------------------------------
# strongly c-monotone
# ---------------------------------------------------------------------------

def _ray_samples(d: Drawing):
    angles = sorted(vertex_angles(d))
    out = []
    for i in range(len(angles)):
        a = angles[i]
        b = angles[i + 1] if i + 1 < len(angles) else angles[0] + 1
        out.append((a + b) / 2)
    return out


def twiggly_depth(d: Drawing, twigglies: Iterable[Edge], theta) -> int:
    return sum(1 for e in twigglies if span_contains(edge_span(d, e), theta))


def cmonotone_to_spine(d: Drawing, t: Iterable[Edge]) -> TransformSequence:
    """Strongly c-monotone transformation to a spine path.

    With a non-spine cycle edge present the drawing is unrolled to a
    monotone one (identical crossing matrix) and resolved there; otherwise
    each round adds every corridor path, drops all twiggly edges, and the
    twiggly depth of every ray decreases where it was positive."""
    c_mono, strongly, spine = classify_c_monotone(d)
    if not (c_mono and strongly):
        raise NotStronglyCMonotoneError("drawing is not strongly c-monotone")
    t = canon_tree(t)
    _require_plane_spanning(d, t)

    if not spine.all_cycle_edges_spine:
        flat, _ = cut_to_monotone(d)
        inner = monotone_to_spine(flat, classify_monotone(flat), t)
        return certify_sequence(d, inner.trees, method="cmonotone")

    samples = _ray_samples(d)
    drawing_twiggly = twiggly_set(d, spine, d.edges)
    spine_set = set(spine.spine_edges)
    seq = [t]
    rounds = 0
    twig = twiggly_set(d, spine, t)
    while twig:
        rounds += 1
        if rounds > d.n - 1:
            raise InternalInvariantViolated("too many c-monotone rounds")
        depth_old = {s: twiggly_depth(d, twig, s) for s in samples}
        path_edges: List[Edge] = []
        for c in corridors(d, twig):
            if c.start_vertex is None:
                continue
            path_edges.extend(corridor_path(d, t, c, twigglies=drawing_twiggly))
        path_edges = sorted(set(path_edges))
        paths = tree_mask(d, path_edges)
        if paths & conflict_mask(d, paths):
            raise InternalInvariantViolated("corridor paths cross each other")
        rest = set(t) - twig
        new_t = _retree(d.n, [path_edges, rest & spine_set, rest - spine_set])
        new_twig = twiggly_set(d, spine, new_t)
        for s in samples:
            limit = max(depth_old[s] - 1, 0)
            if twiggly_depth(d, new_twig, s) > limit:
                raise InternalInvariantViolated("twiggly depth did not drop")
        seq.append(new_t)
        t, twig = new_t, new_twig
    target = canon_tree(sorted(spine.spine_edges)[:-1]
                        if len(spine.spine_edges) == d.n
                        else spine.spine_edges)
    if t != target:
        seq.append(target)
    return certify_sequence(d, _dedupe(seq), method="cmonotone")


# ---------------------------------------------------------------------------
# star family
# ---------------------------------------------------------------------------

def _gr_order(d: Drawing, g: int, r: int) -> List[int]:
    """Vertices of V - {g, r} in an order compatible with the crossing
    relation: u before w whenever edge(u, r) crosses edge(w, g)."""
    others = [v for v in range(d.n) if v not in (g, r)]
    succ: Dict[int, List[int]] = {v: [] for v in others}
    indeg = {v: 0 for v in others}
    for u in others:
        for w in others:
            if u != w and d.cross(edge(u, r), edge(w, g)):
                succ[u].append(w)
                indeg[w] += 1
    order = []
    ready = sorted(v for v in others if indeg[v] == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    if len(order) != len(others):
        validate_simple(d)  # a cycle should be impossible in a simple drawing
        raise RelationCyclicError("crossing relation has a cycle")
    return order


def star_to_star(d: Drawing, g: int, r: int) -> TransformSequence:
    """Exactly n-2 flips from the star at g to the star at r; every
    intermediate is a plane double star with fixed path g, r."""
    if g == r:
        raise ValueError("need two distinct centers")
    star = canon_tree(edge(g, v) for v in range(d.n) if v != g)
    return certify_sequence(d, _collapse_double(d, star, g, r), method="special")


def _collapse_double(d: Drawing, t: Tree, g: int, r: int) -> List[Tree]:
    """Flip every g-leaf of the double star (or of the star at g) onto r,
    in relation order."""
    order = _gr_order(d, g, r)
    current = set(t)
    g_leaves = {v for v in range(d.n)
                if v not in (g, r) and edge(g, v) in current}
    out = [canon_tree(current)]
    for v in reversed(order):
        if v not in g_leaves:
            continue
        current.remove(edge(g, v))
        current.add(edge(r, v))
        out.append(canon_tree(current))
    return out


def double_star_to_star(d: Drawing, t: Iterable[Edge],
                        target_center: int) -> TransformSequence:
    """Collapse one hub of the double star onto the other, then walk the
    star to the target center.  Plain stars are accepted as the degenerate
    case with one empty side."""
    t = canon_tree(t)
    _require_plane_spanning(d, t)
    centers = star_centers(t)
    if centers:
        c = target_center if target_center in centers else centers[0]
        if c == target_center:
            return certify_sequence(d, [t], method="special")
        return star_to_star(d, c, target_center)
    reps = double_star_paths(t)
    if not reps:
        raise NotDoubleStarError("tree admits no double-star path")
    with_target = [p for p in reps if p[1] == target_center]
    g, r = with_target[0] if with_target else reps[0]
    trees = _collapse_double(d, t, g, r)
    if r != target_center:
        tail = star_to_star(d, r, target_center)
        trees += list(tail.trees[1:])
    return certify_sequence(d, _dedupe(trees), method="special")


def twin_star_to_star(d: Drawing, t: Iterable[Edge],
                      target_center: int) -> TransformSequence:
    """Close the hub pair with the edge gr (never crossing the tree, since
    every tree edge touches g or r), drop rs, then proceed as a double
    star."""
    t = canon_tree(t)
    _require_plane_spanning(d, t)
    reps = twin_star_paths(t)
    if not reps:
        raise NotTwinStarError("tree admits no twin-star path")
    g, s, r = reps[0]
    gr = edge(g, r)
    if not is_compatible(d, [gr], t):
        raise InternalInvariantViolated("closing edge crosses the twin star")
    second = canon_tree((set(t) | {gr}) - {edge(r, s)})
    tail = double_star_to_star(d, second, target_center)
    return certify_sequence(d, _dedupe([t] + list(tail.trees)),
                            method="special")


def _reduce_to_star(d: Drawing, t: Tree) -> Tuple[List[Tree], int]:
    centers = star_centers(t)
    if centers:
        return [t], centers[0]
    reps = double_star_paths(t)
    if reps:
        g, r = reps[0]
        return _collapse_double(d, t, g, r), r
    twins = twin_star_paths(t)
    if twins:
        g, s, r = twins[0]
        seq = twin_star_to_star(d, t, r)
        return list(seq.trees), r
    raise NotSpecialTreeError("tree is not a star, double star or twin star")


def transform_special(d: Drawing, t1: Iterable[Edge],
                      t2: Iterable[Edge]) -> TransformSequence:
    """Reduce both endpoints to stars, bridge the stars, and glue; at most
    2(2(n-2)+1) + (n-2) flips overall."""
    t1, t2 = canon_tree(t1), canon_tree(t2)
    _require_plane_spanning(d, t1)
    _require_plane_spanning(d, t2)
    if t1 == t2:
        return certify_sequence(d, [t1], method="special")
    seq_a, c1 = _reduce_to_star(d, t1)
    seq_b, c2 = _reduce_to_star(d, t2)
    trees = list(seq_a)
    if c1 != c2:
        trees += list(star_to_star(d, c1, c2).trees)
    trees += list(reversed(seq_b))
    return certify_sequence(d, _dedupe(trees), method="special")
