"""Edge-bitmask trees and crossings against tuple-based oracles.

The oracles below are the tuple implementations of planarity and
compatibility that the bitmask core replaced: they read the crossing
matrix through the public ``Drawing.crossings`` view and compare edge
tuples pairwise.  The digest test pins the crossing pairs and the plane
tree order of generated drawings, so a change to the internal
representation cannot silently reorder or alter either.
"""

import ast
import dataclasses
import hashlib
import itertools
import pathlib
import random

import pytest

import treespan
from treespan.drawing import Drawing
from treespan.errors import UnknownEdgeError
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.trees import (
    TreeCert,
    canon_tree,
    check_tree,
    conflict_mask,
    enumerate_plane_trees,
    is_compatible,
    mask_tree,
    tree_mask,
)

from conftest import cyl_k4, polar_k4, polar_k5, two_page_k4


def tuple_is_plane(d: Drawing, tree) -> bool:
    cross = d.crossings
    return not any(f in cross[e] for e, f in itertools.combinations(tree, 2))


def tuple_is_compatible(d: Drawing, t1, t2) -> bool:
    cross = d.crossings
    t2 = list(t2)
    return not any(f in cross[e] for e in t1 for f in t2)


def random_spanning_tree(d: Drawing, rng: random.Random):
    """Kruskal over a shuffled edge list: any spanning tree, plane or not."""
    parent = list(range(d.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = list(d.edges)
    rng.shuffle(edges)
    out = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append((u, v))
    return canon_tree(out)


GENERATED = [
    GenSpec(cls="convex", n=6, seed=1),
    GenSpec(cls="random_points", n=6, seed=2),
    GenSpec(cls="monotone_perturbed", n=6, seed=3),
    GenSpec(cls="two_page", n=6, seed=4),
    GenSpec(cls="cylindrical", n=6, seed=5, a=3, b=3),
    GenSpec(cls="cylindrical", n=5, seed=6, a=2, b=3),
    GenSpec(cls="strongly_cmonotone", n=6, seed=7),
]


def _drawings():
    out = [(f"{s.cls}-{s.n}-{s.seed}", lambda s=s: generate(s)) for s in GENERATED]
    out += [("bipartite-fixture", lambda: fixture_bipartite_isolated()[0]),
            ("polar-k4", polar_k4), ("polar-k5", polar_k5),
            ("two-page-k4", two_page_k4), ("cyl-k4", cyl_k4)]
    return out


@pytest.mark.parametrize("make", [m for _, m in _drawings()],
                         ids=[name for name, _ in _drawings()])
def test_mask_path_matches_tuple_oracles(make):
    d = make()
    rng = random.Random(d.n * 1000 + len(d.crossing_pairs()))
    plane = enumerate_plane_trees(d)
    assert plane
    for t in plane:
        assert tuple_is_plane(d, t)
        assert check_tree(d, t).plane
    pool = plane + [random_spanning_tree(d, rng) for _ in range(60)]
    cross = d.crossings
    for t in pool:
        assert check_tree(d, t).plane == tuple_is_plane(d, t)
        mask = tree_mask(d, t)
        assert mask_tree(d, mask) == t
        assert mask_tree(d, conflict_mask(d, mask)) == tuple(
            sorted(set().union(*(cross[e] for e in t))))
    for _ in range(400):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        assert is_compatible(d, t1, t2) == tuple_is_compatible(d, t1, t2)
        assert is_compatible(d, t2, t1) == is_compatible(d, t1, t2)


def test_tree_mask_errors_and_int_cache_keys(sq):
    t = [(2, 1), (0, 1), (3, 2)]
    assert mask_tree(sq, tree_mask(sq, t)) == canon_tree(t)
    with pytest.raises(ValueError):
        tree_mask(sq, [(1, 1)])
    with pytest.raises(ValueError):
        tree_mask(sq, [(0, 1), (1, 0)])
    with pytest.raises(UnknownEdgeError):
        tree_mask(sq, [(0, 7)])
    check_tree(sq, t)
    assert list(sq._cert_cache) == [tree_mask(sq, t)]


# (class, n, seed[, a, b]) -> sha256 of repr(crossing_pairs()) and of
# repr(enumerate_plane_trees(d)), recorded before the bitmask refactor.
DIGESTS = {
    ("convex", 5, 0): (
        "1e0487213618e0deee6d240b3a1f8d8ba1422c988454949cd3e80f3f8e358d1c",
        "bf17f453c925f908dc3c18562dfab4f3b489d424f8d79866bb834306ed8b13e1"),
    ("random_points", 6, 1): (
        "d6a6aa1ee6d4ed3f94385fffeaf9dc5aac559760dd725d013e38a2adf55d4df6",
        "f3df4c9e4db4ea642c1fec53228cfd266bcd755cf323d3fff14bafb7d734e79f"),
    ("monotone_perturbed", 6, 2): (
        "1128a2164fc18d5dc0c59ef2657fff2f43c87910eb42553802c1cf7a48711fd7",
        "488fa037f98f90677aa0c0fe490b781b5caf19e26a38efdbd45bc8a14ac5382c"),
    ("two_page", 6, 3): (
        "097609513bc3d9e09438c5eedb5935d8a9c1ad00977e9e4c394c8451bd325042",
        "ce5dc881708ab432cdedeea44b49f8434dbaeb1db65957d072be13ca47318c57"),
    ("cylindrical", 6, 4, 3, 3): (
        "4348f35587a71e0ce5c466a8586cd3160833d36bc8921a00153746ad6f571633",
        "888a3ac3af647ac4e0b6ea9525b16688acdd7abb69ba0c0409301e083d77b830"),
    ("strongly_cmonotone", 6, 5): (
        "a6aa185fb41ae460a097b726043edf77ccf2ef42896d45a9f0e274c23f48575b",
        "baf96ec3c262e0c81ffbf37ffc4ee60442a323f65833ea633aa6bc7d7a2d15a1"),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_crossings_and_tree_order_pinned(cell):
    cls, n, seed, *ab = cell
    d = generate(GenSpec(cls=cls, n=n, seed=seed, a=ab[0] if ab else None,
                         b=ab[1] if ab else None))
    assert (_sha(d.crossing_pairs()), _sha(enumerate_plane_trees(d))) == DIGESTS[cell]


# ---------------------------------------------------------------------------
# one crossing form
# ---------------------------------------------------------------------------

# Receivers of ``.kind`` reads that are not certificates: a spine
# structure's class and the parsed command line.
_NOT_CERTIFICATES = {"spine", "flat_spine", "args"}


def _reads(path: pathlib.Path, attr: str) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)]


def test_package_reads_one_crossing_form():
    """The package reads crossings only as ``cross_mask`` rows; the
    ``crossings`` view is for the tuple oracles above.  A certificate
    certifies and names no kind (``classify_kind`` does), so the
    transformations, compatibility graphs and CLI read no ``.kind`` of
    one.  The transformations evaluate a curve only to build the spine
    route's strip table, and read no angle or span of one."""
    modules = sorted(pathlib.Path(treespan.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = [f"{p.name}:{node.lineno} .crossings"
             for p in modules for node in _reads(p, "crossings")]
    found += [f"{p.name}:{node.lineno} .kind"
              for p in modules if p.name in ("transforms.py", "compat.py", "cli.py")
              for node in _reads(p, "kind")
              if not (isinstance(node.value, ast.Name)
                      and node.value.id in _NOT_CERTIFICATES)]
    assert found == []
    assert {f.name for f in dataclasses.fields(TreeCert)} == {
        "spanning", "acyclic_connected", "plane", "mask", "conflict"}
    assert not hasattr(TreeCert, "kind")

    # the spine route reads curves only through its strip table
    transforms = pathlib.Path(treespan.__file__).parent / "transforms.py"
    tree = ast.parse(transforms.read_text())
    evaluating = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  for node in ast.walk(f) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "curve_eval"}
    assert evaluating == {"_strip"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"lift_angle", "edge_span", "span_contains", "vertex_angles"}
