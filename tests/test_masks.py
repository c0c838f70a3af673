"""Edge-bitmask trees and crossings against tuple-based oracles.

The oracles below are the tuple implementations of planarity and
compatibility that the bitmask core replaced: they read the crossing
matrix through the ``crossings`` view of ``conftest`` and compare edge
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
from hypothesis import given, settings
from hypothesis import strategies as st

import treespan
from treespan.compat import build_compat_graph
from treespan.drawing import Drawing, Relation, complete_edges
from treespan.errors import UnknownEdgeError
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.trees import (
    TreeCert,
    canon_tree,
    conflict_mask,
    enumerate_plane_trees,
    is_compatible,
    mask_trees,
    tree_mask,
)
from treespan.transforms import TransformSequence

from conftest import crossings, cyl_k4, polar_k4, polar_k5, two_page_k4
from reference_trees import check_tree, mask_tree_loop


def tuple_is_plane(d: Drawing, tree) -> bool:
    cross = crossings(d)
    return not any(f in cross[e] for e, f in itertools.combinations(tree, 2))


def tuple_is_compatible(d: Drawing, t1, t2) -> bool:
    cross = crossings(d)
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
    cross = crossings(d)
    for t in pool:
        assert check_tree(d, t).plane == tuple_is_plane(d, t)
        mask = tree_mask(d, t)
        assert mask_trees(d.edges, [mask]) == [t]
        assert mask_trees(d.edges, [conflict_mask(d, mask)]) == [tuple(
            sorted(set().union(*(cross[e] for e in t))))]
    for _ in range(400):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        assert is_compatible(d, t1, t2) == tuple_is_compatible(d, t1, t2)
        assert is_compatible(d, t2, t1) == is_compatible(d, t1, t2)


def test_tree_mask_errors_and_int_cache_keys(sq):
    t = [(2, 1), (0, 1), (3, 2)]
    assert mask_trees(sq.edges, [tree_mask(sq, t)]) == [canon_tree(t)]
    with pytest.raises(ValueError):
        tree_mask(sq, [(1, 1)])
    with pytest.raises(ValueError):
        tree_mask(sq, [(0, 1), (1, 0)])
    with pytest.raises(UnknownEdgeError):
        tree_mask(sq, [(0, 7)])
    check_tree(sq, t)
    assert list(sq._cert_cache) == [tree_mask(sq, t)]


# edge-list lengths at and around the 8-bit chunk borders of ``mask_trees``
CHUNK_BORDERS = (0, 7, 8, 9, 16, 17, 45)


@st.composite
def edge_lists(draw):
    m = draw(st.one_of(st.sampled_from(CHUNK_BORDERS), st.integers(0, 45)))
    pair = st.tuples(st.integers(0, 11), st.integers(0, 11))
    return tuple(draw(st.lists(pair, min_size=m, max_size=m, unique=True)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mask_trees_matches_the_bits_loop(data):
    edges = data.draw(edge_lists())
    full = (1 << len(edges)) - 1
    masks = [0, full] + data.draw(st.lists(st.integers(0, full), max_size=20))
    assert mask_trees(edges, masks) == [mask_tree_loop(edges, m) for m in masks]


def test_chunk_tables_follow_the_edge_values():
    """Two edge lists of one length get their own tables: cylindrical
    (2, 3) shares K5's edges, but other lists of 10 edges do not."""
    k5 = tuple(complete_edges(5))
    shifted = tuple((u + 1, v + 1) for u, v in k5)
    full = (1 << 10) - 1
    assert mask_trees(k5, [full, 1]) == [k5, k5[:1]]
    assert mask_trees(shifted, [full, 1]) == [shifted, shifted[:1]]


@pytest.mark.parametrize("m", CHUNK_BORDERS)
def test_mask_trees_rejects_bits_outside_the_edge_list(m):
    edges = tuple(complete_edges(10))[:m]
    d = Relation(10, edges, [0] * m)
    full = (1 << m) - 1
    for bad in (1 << m, full | 1 << m, 1 << m + 8, 1 << m + 9, -1, -2, -1 << m):
        for convert in (lambda mask: mask_tree_loop(edges, mask),
                        lambda mask: mask_trees(edges, [full, mask]),
                        lambda mask: mask_trees(d.edges, [mask])):
            with pytest.raises(IndexError):
                convert(bad)
    assert mask_trees(d.edges, [full]) == [edges]


@pytest.mark.parametrize("make", [m for _, m in _drawings()],
                         ids=[name for name, _ in _drawings()])
def test_tuple_views_match_the_bits_loop(make):
    d = make()
    g = build_compat_graph(d)
    want = [mask_tree_loop(d.edges, mask) for mask in g.masks]
    assert g.nodes == want == enumerate_plane_trees(d)
    masks = tuple(g.masks) + tuple(conflict_mask(d, mask) for mask in g.masks)
    seq = TransformSequence(d.edges, masks, "manual")
    assert seq.trees == tuple(mask_tree_loop(d.edges, mask) for mask in masks)


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
_NOT_CERTIFICATES = {"spine", "args"}


def _reads(path: pathlib.Path, attr: str) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)]


def test_package_reads_one_crossing_form():
    """The package reads crossings only as ``cross_mask`` rows and
    ``crossing_pairs()``; the ``crossings`` view of the tuple oracles above
    is a test helper, not a ``Drawing`` property.  A certificate
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
    assert not hasattr(Drawing, "crossings")
    assert not hasattr(Drawing, "edge_id")  # ids are positions in d.edges
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


def test_combinatorial_layers_import_no_drawing_and_no_geometry():
    """``trees`` and ``compat`` read a ``Relation``: they import neither
    ``Drawing`` nor anything of ``geometry``.  Nothing in the package
    branches on a drawing against a relation."""
    package = pathlib.Path(treespan.__file__).parent
    for name in ("trees.py", "compat.py"):
        tree = ast.parse((package / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
                modules = names | {getattr(node, "module", None) or ""}
                assert "Drawing" not in names, name
                assert not any("geometry" in m for m in modules), name
            # annotations too, which ``from __future__ import annotations``
            # leaves unevaluated
            assert getattr(node, "id", None) != "Drawing", name
    branching = [f"{p.name}:{node.lineno}" for p in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                 and {"Drawing", "Relation"} & {n.id for n in ast.walk(node.args[1])
                                                if isinstance(n, ast.Name)}]
    assert branching == []


def _nodes_by_function(path: pathlib.Path) -> list:
    """(enclosing function, node) for every node of the module."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            found.append((owner, child))
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _calls_by_function(path: pathlib.Path) -> list:
    """(enclosing function, called name, call node) for every call in the
    module whose callee is a plain or dotted name."""
    return [(owner, name, node) for owner, node in _nodes_by_function(path)
            if isinstance(node, ast.Call)
            and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None))]


def test_one_handoff_and_integer_class_checks():
    """Only ``generators.generate`` hands ``_crossing_rows`` the pairs a
    builder left unchecked; every other call, ``cross_mask``'s among them,
    passes the drawing alone and checks every pair.  The monotone and
    c-monotone class checks compare integers: they call none of the
    ``Fraction`` angle, span and monotonicity helpers.  Only
    ``_integer_image`` scales a ``Fraction`` to an int: no other function
    in ``drawing`` reads ``.denominator`` or calls ``math.lcm``."""
    package = pathlib.Path(treespan.__file__).parent
    calls = {p.stem: _calls_by_function(p) for p in sorted(package.glob("*.py"))}
    handing = [f"{module}.{owner}" for module, found in calls.items()
               for owner, name, node in found
               if name == "_crossing_rows" and (len(node.args) > 1 or node.keywords)]
    assert handing == ["generators.generate"]
    assert [owner for owner, name, _ in calls["drawing"] if name == "_crossing_rows"] == [
        "cross_mask"]
    called = {name for owner, name, _ in calls["drawing"]
              if owner in ("_classify_monotone", "_classify_c_monotone")}
    assert called and not called & {"edge_span", "vertex_angles", "is_x_monotone"}
    # x.denominator, math.lcm or a bare lcm
    scaling = {owner for owner, node in _nodes_by_function(package / "drawing.py")
               if getattr(node, "attr", getattr(node, "id", None)) in ("denominator", "lcm")}
    assert scaling == {"_integer_image"}


def test_only_generators_and_fileio_build_drawings():
    """A Drawing comes from a generator or a file: the spine route reads a
    strongly c-monotone drawing as it is, and builds no flat copy.  So the
    drawing module needs no angle lifting or polar normalization."""
    modules = sorted(pathlib.Path(treespan.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    building = {p.name for p in modules for node in ast.walk(ast.parse(p.read_text()))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Drawing"}
    assert building == {"generators.py", "fileio.py"}
    drawing = pathlib.Path(treespan.__file__).parent / "drawing.py"
    imported = {alias.name for node in ast.walk(ast.parse(drawing.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"lift_angle", "normalize_polar"}
