"""File format round-trips, CLI surface and exit-code contract."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treespan.transforms
from treespan.cli import main
from treespan.drawing import Drawing
from treespan.errors import (
    InternalInvariantViolated,
    NoSideEdgeError,
    NotSpecialTreeError,
    RelationCyclicError,
)
from treespan.fileio import (
    FileFormatError,
    compat_to_dot,
    drawing_from_dict,
    drawing_to_dict,
    dumps,
    parse_tree_arg,
    save_drawing,
    sequence_from_dict,
    sequence_to_dict,
)
from treespan.compat import build_compat_graph
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.trees import enumerate_plane_trees, is_compatible

from conftest import (P, cyl_k4, polar_k2, polar_k3, polar_k4, polar_k5, straight_line_drawing,
                      two_page_k4)


# ---------------------------------------------------------------------------
# drawing files
# ---------------------------------------------------------------------------

def drawings_for_roundtrip():
    yield generate(GenSpec(cls="convex", n=5, seed=1))
    yield generate(GenSpec(cls="cylindrical", n=4, seed=1, a=2, b=2))
    yield polar_k4()
    yield fixture_bipartite_isolated()[0]


def test_roundtrip_lossless():
    for d in drawings_for_roundtrip():
        doc = drawing_to_dict(d)
        back = drawing_from_dict(json.loads(dumps(doc)))
        assert back.vertex_points == d.vertex_points
        assert back.curves == d.curves
        assert back.graph == d.graph and back.circles == d.circles
        assert dumps(drawing_to_dict(back)) == dumps(doc)


def test_unknown_field_rejected():
    doc = drawing_to_dict(polar_k3())
    doc["extra"] = 1
    with pytest.raises(FileFormatError):
        drawing_from_dict(doc)


def test_bad_rational_rejected():
    doc = drawing_to_dict(polar_k3())
    doc["vertices"][0][0] = [1, 2]  # numbers must be strings
    with pytest.raises(FileFormatError):
        drawing_from_dict(doc)


def test_parse_tree_arg():
    assert parse_tree_arg("1-2,0-1") == ((0, 1), (1, 2))
    with pytest.raises(FileFormatError):
        parse_tree_arg("1:2")


def test_sequence_roundtrip():
    doc = sequence_to_dict([((0, 1), (1, 2))], "manual", drawing="x.json")
    assert doc["certified"] is True
    trees, method, ref = sequence_from_dict(json.loads(dumps(doc)))
    assert trees == [((0, 1), (1, 2))]
    assert method == "manual" and ref == "x.json"


@pytest.mark.parametrize("field, value", [
    ("method", 5), ("method", None), ("certified", "no"), ("certified", 1)])
def test_sequence_fields_are_typed(field, value, sq_file, tmp_path, capsys):
    """``certified`` is a JSON boolean and ``method`` a string; anything
    else is a malformed file, which ``treespan certify`` rejects."""
    doc = sequence_to_dict([((0, 1), (1, 2), (2, 3))], "manual", drawing=sq_file)
    doc[field] = value
    with pytest.raises(FileFormatError, match=field):
        sequence_from_dict(doc)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(doc))
    assert main(["certify", str(seq)]) == 1
    assert _one_json_error(capsys)["type"] == "FileFormatError"


@pytest.mark.parametrize("which", ["square", "bipartite-isolated"])
def test_dot_export(which, sq):
    """The streamed DOT text against pairwise ``is_compatible``: the
    square's twin classes hold four trees each, which are cliques, and on
    the bipartite fixture every tree is isolated, with an empty row."""
    d = sq if which == "square" else fixture_bipartite_isolated()[0]
    g = build_compat_graph(d)
    trees = enumerate_plane_trees(d)
    labels = [",".join(f"{u}-{v}" for u, v in t) for t in trees]
    pairs = [(i, j) for i, j in combinations(range(len(trees)), 2)
             if is_compatible(d, trees[i], trees[j])]
    want = (["graph compat {"]
            + [f'  n{i} [label="{label}"];' for i, label in enumerate(labels)]
            + [f"  n{i} -- n{j};" for i, j in pairs] + ["}"])
    assert "".join(compat_to_dot(g)) == "\n".join(want) + "\n"
    assert len(pairs) == g.edge_count()
    if which == "square":
        assert want[1] == '  n0 [label="0-1,0-2,0-3"];' and want[13] == "  n0 -- n1;"
        assert len(pairs) == 50 and g.sizes == [4, 4, 4]
    else:
        assert trees and not pairs


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    save_drawing(polar_k3(), str(path))
    return str(path)


@pytest.fixture
def sq_file(tmp_path, sq):
    path = tmp_path / "sq.json"
    save_drawing(sq, str(path))
    return str(path)


def test_cli_validate(sq_file, capsys):
    assert main(["validate", sq_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_simple"] and out["is_monotone"]


def test_cli_compat_k3(k3_file, capsys):
    assert main(["compat", k3_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"nodes": 3, "edges": 3, "connected": True, "diameter": 1}


def test_cli_trees(sq_file, capsys):
    assert main(["trees", sq_file, "--kind", "star"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 4


def test_cli_generate_deterministic(tmp_path, capsys):
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for f in (f1, f2):
        assert main(["generate", "--class", "convex", "--n", "5",
                     "--seed", "7", "-o", f]) == 0
    assert Path(f1).read_text() == Path(f2).read_text()


@pytest.mark.parametrize("argv, message", [
    (["--class", "convex", "--seed", "0", "-a", "2", "-b", "9"],
     "a and b are for cylindrical only"),
    (["--class", "two_page", "--seed", "0", "-a", "2", "-b", "3"],
     "a and b are for cylindrical only"),
    (["--class", "convex", "--seed", "0", "-b", "3"], "a and b are for cylindrical only"),
    (["--class", "convex", "--seed", "-1"], "seed must be in [0, 2**64)"),
    (["--class", "convex", "--seed", str(2**64)], "seed must be in [0, 2**64)"),
    (["--class", "cylindrical", "--seed", "-1", "-a", "2", "-b", "3"],
     "seed must be in [0, 2**64)"),
], ids=["convex-a-b", "two-page-a-b", "convex-b", "seed-minus-one", "seed-2-64",
        "cylindrical-seed-minus-one"])
def test_cli_generate_rejects_arguments_it_would_ignore_or_alias(argv, message,
                                                                 tmp_path, capsys):
    """``-a``/``-b`` off the cylindrical class used to be ignored, and a
    seed outside [0, 2**64) used to alias one inside it (-1 wrote the file
    of 2**64 - 1): both are invalid input, and nothing is written."""
    out = tmp_path / "o.json"
    assert main(["generate", "--n", "5", *argv, "-o", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert [json.loads(line) for line in printed.err.splitlines()] == [
        {"error": "invalid-input", "type": "ValueError", "message": message}]
    assert not out.exists()


def test_cli_generate_accepts_both_ends_of_the_seed_range(tmp_path, capsys):
    files = [str(tmp_path / f"{seed}.json") for seed in (0, 2**64 - 1)]
    for seed, f in zip((0, 2**64 - 1), files):
        assert main(["generate", "--class", "convex", "--n", "5",
                     "--seed", str(seed), "-o", f]) == 0
    assert Path(files[0]).read_text() != Path(files[1]).read_text()


def test_cli_transform_special(sq_file, tmp_path, capsys):
    seq_path = str(tmp_path / "seq.json")
    code = main(["transform", sq_file, "--from", "0-1,0-2,0-3",
                 "--to", "0-1,1-2,1-3", "--method", "special",
                 "-o", seq_path])
    assert code == 0
    doc = json.loads(Path(seq_path).read_text())
    assert doc["certified"] is True
    assert len(doc["trees"]) == 3  # n-2 = 2 flips between adjacent stars


def test_cli_transform_auto_monotone(sq_file, tmp_path):
    seq_path = str(tmp_path / "seq.json")
    assert main(["transform", sq_file, "--from", "0-1,1-2,2-3",
                 "--to", "0-3,1-3,1-2", "-o", seq_path]) == 0
    assert json.loads(Path(seq_path).read_text())["certified"] is True


def test_cli_certify_roundtrip(sq_file, tmp_path, capsys):
    seq_path = str(tmp_path / "seq.json")
    main(["transform", sq_file, "--from", "0-1,0-2,0-3",
          "--to", "0-1,1-2,1-3", "-o", seq_path])
    assert main(["certify", seq_path]) == 0


def test_cli_certify_tampered(sq_file, tmp_path, capsys):
    seq_path = str(tmp_path / "seq.json")
    main(["transform", sq_file, "--from", "0-1,0-2,0-3",
          "--to", "0-1,1-2,1-3", "-o", seq_path])
    doc = json.loads(Path(seq_path).read_text())
    doc["trees"][1] = [[0, 2], [1, 3], [2, 3]]  # insert crossing diagonals
    with open(seq_path, "w") as fh:
        fh.write(dumps(doc))
    code = main(["certify", seq_path])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["type"] in ("BadTreeError", "IncompatibleStepError")


def test_cli_special_route_non_plane_tree_is_invalid_input(tmp_path, capsys):
    """--method special rejects a crossing tree as invalid input, as the
    other routes do, not as an inapplicable method."""
    drawing = str(tmp_path / "d5.json")
    assert main(["generate", "--class", "random_points", "--n", "5",
                 "--seed", "1", "-o", drawing]) == 0
    capsys.readouterr()
    crossing = "0-4,2-3,0-1,1-2"  # 0-4 crosses 2-3 in this drawing
    assert main(["transform", drawing, "--from", "0-1,0-2,0-3,0-4",
                 "--to", crossing, "--method", "special"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-input" and err["type"] == "BadTreeError"


def test_cli_transform_cmonotone_k2(tmp_path):
    """A strongly c-monotone K_2 has one spine edge, so its one tree
    transforms to itself."""
    drawing, seq_path = str(tmp_path / "k2.json"), str(tmp_path / "seq.json")
    save_drawing(polar_k2(), drawing)
    assert main(["transform", drawing, "--from", "0-1", "--to", "0-1",
                 "--method", "cmonotone", "-o", seq_path]) == 0
    doc = json.loads(Path(seq_path).read_text())
    assert doc["certified"] is True and doc["trees"] == [[[0, 1]]]


def test_cli_method_inapplicable(k3_file, capsys):
    code = main(["transform", k3_file, "--from", "0-1,1-2",
                 "--to", "0-2,1-2", "--method", "monotone"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "method-inapplicable"


@pytest.mark.parametrize("method, make", [
    ("cylindrical", lambda: generate(GenSpec(cls="cylindrical", n=5, seed=0, a=2, b=3))),
    ("monotone", lambda: generate(GenSpec(cls="monotone_perturbed", n=5, seed=1))),
    ("cmonotone", polar_k5),  # corridor paths: every cycle edge is a spine edge
    ("cmonotone", polar_k4),  # cut at the gap of a non-spine cycle edge
    ("special", lambda: generate(GenSpec(cls="convex", n=5, seed=1))),
], ids=["cylindrical", "monotone", "cmonotone-corridor", "cmonotone-cut", "special"])
def test_cli_every_method_answers_t_to_t_with_t(method, make, tmp_path, capsys):
    """``--from T --to T`` gives the one-tree sequence (T,) under every
    method, for every tree the method takes."""
    d = make()
    drawing = str(tmp_path / "d.json")
    save_drawing(d, drawing)
    trees = enumerate_plane_trees(d, "special" if method == "special" else "all")
    for t in trees:
        arg = ",".join(f"{u}-{v}" for u, v in t)
        assert main(["transform", drawing, "--method", method,
                     "--from", arg, "--to", arg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] and doc["trees"] == [[list(e) for e in t]], arg
    assert len(trees) > 1


@pytest.mark.parametrize("error", [RelationCyclicError, NoSideEdgeError,
                                   NotSpecialTreeError])
def test_cli_every_inapplicable_error_exits_2(error, tmp_path, capsys,
                                              monkeypatch):
    """Each error the errors module groups as method inapplicable exits 2,
    here raised from the star schedule's flip pairs."""
    drawing = str(tmp_path / "d5.json")
    assert main(["generate", "--class", "random_points", "--n", "5",
                 "--seed", "1", "-o", drawing]) == 0
    capsys.readouterr()

    def inapplicable(d, g, r):
        raise error("no order")

    monkeypatch.setattr(treespan.transforms, "_flip_pairs", inapplicable)
    assert main(["transform", drawing, "--from", "0-1,0-2,0-3,0-4",
                 "--to", "0-1,1-2,1-3,1-4", "--method", "special"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "method-inapplicable"
    assert err["type"] == error.__name__


def _bipartite_polar_k12():
    """K_{1,2}: polar K_3 without the edge (1, 2); all vertices share one
    circle, so vertex 1 and 2 are consecutive without an edge between."""
    d = polar_k3()
    return Drawing(n=3, backend="polar", vertex_points=d.vertex_points,
                   curves={e: c for e, c in d.curves.items() if e != (1, 2)},
                   graph=("bipartite", 1, 2))


def _bipartite_cylindrical_k22():
    """The side edges of a cylindrical K_4, a K_{2,2} whose parts sit on
    the two circles; its circle-cycle edges are missing."""
    d = generate(GenSpec(cls="cylindrical", n=4, a=2, b=2, seed=3))
    sides = {e: c for e, c in d.curves.items() if e[0] < 2 <= e[1]}
    return Drawing(n=4, backend="cartesian", vertex_points=d.vertex_points,
                   curves=sides, graph=("bipartite", 2, 2), circles=d.circles)


@pytest.mark.parametrize("make, c_mono", [(_bipartite_polar_k12, True),
                                          (_bipartite_cylindrical_k22, False)],
                         ids=["polar-k12", "cylindrical-k22"])
def test_cli_validate_bipartite_on_circles(make, c_mono, tmp_path, capsys):
    """The cylindrical and c-monotone structures are defined for K_n: a
    bipartite drawing on circles is neither cylindrical nor strongly
    c-monotone, and validating it prints one report."""
    path = str(tmp_path / "bip.json")
    save_drawing(make(), path)
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_simple"] and out["is_cylindrical"] is None
    assert out["is_c_monotone"] is c_mono
    assert out["is_strongly_c_monotone"] is False


def _straight_line_k22():
    """Straight-line K_{2,2} with parts {0, 1} and {2, 3}: distinct x
    coordinates and x-monotone edges, but the x-order's consecutive pair
    0, 1 has no edge, so the drawing is not monotone."""
    pts = (P(0, 0), P(3, 1), P(1, 5), P(2, -4))
    curves = {(u, v): (pts[u], pts[v]) for u in (0, 1) for v in (2, 3)}
    return Drawing(n=4, backend="cartesian", vertex_points=pts, curves=curves,
                   graph=("bipartite", 2, 2))


@pytest.mark.parametrize("make", [lambda: fixture_bipartite_isolated()[0],
                                  _straight_line_k22],
                         ids=["bipartite-fixture", "straight-line-k22"])
def test_cli_transform_non_complete_is_inapplicable(make, tmp_path, capsys):
    """Every route is defined for K_n: on a bipartite drawing each ordered
    pair of plane trees under each method exits 2 with one JSON error,
    while a tree with an edge the drawing lacks stays invalid input."""
    d = make()
    path = str(tmp_path / "bip.json")
    save_drawing(d, path)
    assert main(["validate", path]) == 0
    assert json.loads(capsys.readouterr().out)["is_monotone"] is False
    args = [",".join(f"{u}-{v}" for u, v in t) for t in enumerate_plane_trees(d)]
    assert len(args) >= 3
    for method in ("auto", "cylindrical", "monotone", "cmonotone", "special"):
        for src, dst in product(args, repeat=2):
            assert main(["transform", path, "--from", src, "--to", dst,
                         "--method", method]) == 2
            assert _one_json_error(capsys)["error"] == "method-inapplicable"
        assert main(["transform", path, "--from", args[0], "--to", "0-1,0-2,0-3",
                     "--method", method]) == 1
        assert _one_json_error(capsys)["type"] == "UnknownEdgeError"


def _one_json_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def _pt(x, y):
    return [[str(F(c).numerator), str(F(c).denominator)] for c in (x, y)]


_BASES = {
    "cartesian": lambda: straight_line_drawing([P(0, 0), P(4, 1), P(5, 5)]),
    "polar": polar_k3,  # edge 0 is (0, 1): angle 0 to 1/3 at radius 2
    "square": lambda: straight_line_drawing([P(0, 0), P(4, 0), P(0, 4), P(4, 4)]),
}


@pytest.mark.parametrize("base, path, value, message", [
    ("cartesian", ("edges", 0, "curve"), [_pt(0, 0)],
     "curve of (0, 1) has fewer than 2 waypoints"),
    ("polar", ("edges", 0, "curve"), [_pt(0, 2)],
     "curve of (0, 1) has fewer than 2 waypoints"),
    ("cartesian", ("edges", 0, "curve", 1), _pt(3, 1),
     "curve of (0, 1) does not join its endpoints"),
    ("polar", ("edges", 0, "curve", 1), _pt(F(1, 4), 2),
     "curve of (0, 1) does not join its endpoints"),
    ("polar", ("edges", 0, "curve"), [_pt(0, 2), _pt(F(1, 6), 0), _pt(F(1, 3), 2)],
     "curve of (0, 1) has non-positive radius"),
    ("polar", ("edges", 0, "curve"),
     [_pt(0, 2), _pt(F(1, 4), 3), _pt(F(1, 5), 3), _pt(F(1, 3), 2)],
     "curve of (0, 1) is not angle-monotone"),
    ("cartesian", ("vertices", 2), _pt(4, 1), "vertex points are not distinct"),
    ("polar", ("vertices", 2), _pt(1, 2), "vertex points are not distinct"),
    # edge (2, 3) dips to touch edge (0, 1) at (2, 0) without crossing it
    ("square", ("edges", 5, "curve"), [_pt(0, 4), _pt(2, 0), _pt(4, 4)],
     "degenerate contact: edges (0, 1) and (2, 3)"),
], ids=["cartesian-one-waypoint", "polar-one-waypoint", "cartesian-loose-end",
        "polar-loose-end", "polar-zero-radius", "polar-angle-backwards",
        "cartesian-equal-points", "polar-points-equal-mod-turn", "touching-edges"])
def test_cli_validate_rejection_reasons(base, path, value, message, tmp_path,
                                        capsys):
    doc = drawing_to_dict(_BASES[base]())
    *parents, key = path
    target = doc
    for k in parents:
        target = target[k]
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert _one_json_error(capsys) == {"error": "invalid-input",
                                       "type": "NotSimpleError", "message": message}


def test_cli_validate_cylindrical_report(tmp_path, capsys):
    path = str(tmp_path / "cyl.json")
    save_drawing(cyl_k4(), path)
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_cylindrical"] == {"r_in2": "1", "r_out2": "4",
                                     "inner_vertices": [0, 1],
                                     "outer_vertices": [2, 3]}


def test_cli_internal_invariant_exits_3(tmp_path, capsys, monkeypatch):
    drawing = str(tmp_path / "d5.json")
    assert main(["generate", "--class", "random_points", "--n", "5",
                 "--seed", "1", "-o", drawing]) == 0
    capsys.readouterr()

    def broken(d, g, r):
        raise InternalInvariantViolated("relation order lost a vertex")

    monkeypatch.setattr(treespan.transforms, "_flip_pairs", broken)
    assert main(["transform", drawing, "--from", "0-1,0-2,0-3,0-4",
                 "--to", "0-1,1-2,1-3,1-4", "--method", "special"]) == 3
    assert _one_json_error(capsys) == {
        "error": "internal-invariant-violated",
        "type": "InternalInvariantViolated",
        "message": "relation order lost a vertex"}


@pytest.mark.parametrize("method, error", [("special", "NotSpecialTreeError"),
                                           ("auto", "MethodInapplicable")])
def test_cli_no_method_for_a_non_special_tree(method, error, tmp_path, capsys):
    """A convex hexagon with vertices sharing x-coordinates is neither
    monotone, strongly c-monotone nor cylindrical; its boundary paths are
    plane but not special, so no method applies."""
    path = str(tmp_path / "hex.json")
    save_drawing(straight_line_drawing([P(0, 0), P(2, -1), P(4, 0), P(4, 3),
                                        P(2, 4), P(0, 3)]), path)
    assert main(["transform", path, "--from", "0-1,1-2,2-3,3-4,4-5",
                 "--to", "1-2,2-3,3-4,4-5,0-5", "--method", method]) == 2
    err = _one_json_error(capsys)
    assert err["error"] == "method-inapplicable" and err["type"] == error


def test_cli_trees_list(sq_file, sq, capsys):
    assert main(["trees", sq_file, "--kind", "star", "--list"]) == 0
    out = json.loads(capsys.readouterr().out)
    stars = enumerate_plane_trees(sq, kind="star")
    assert out == {"count": len(stars),
                   "trees": [[f"{u}-{v}" for u, v in t] for t in stars]}


def test_cli_compat_dot(k3_file, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["compat", k3_file, "--dot", str(dot)]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 3
    assert dot.read_text() == "".join(compat_to_dot(build_compat_graph(polar_k3())))


@pytest.mark.parametrize("path", ["", "missing/out"], ids=["empty", "missing-dir"])
@pytest.mark.parametrize("argv", [
    ["compat", "K3", "--dot"],
    ["transform", "K3", "--from", "0-1,1-2", "--to", "0-2,1-2", "-o"],
    ["render", "K3", "-o"],
    ["generate", "--class", "convex", "--n", "4", "--seed", "1", "-o"],
], ids=["compat-dot", "transform", "render", "generate"])
def test_cli_unwritable_output_path(argv, path, k3_file, tmp_path, capsys):
    """An output file that cannot be written, an empty path among them,
    fails the command before its summary is printed: exit 1, nothing on
    stdout, one JSON object on stderr."""
    out = str(tmp_path / path) if path else path
    argv = [k3_file if a == "K3" else a for a in argv] + [out]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "invalid-input" and err["type"] == "FileNotFoundError"


def test_cli_transform_to_stdout(sq_file, capsys):
    assert main(["transform", sq_file, "--from", "0-1,0-2,0-3",
                 "--to", "0-1,1-2,1-3", "--method", "special"]) == 0
    doc = json.loads(capsys.readouterr().out)
    trees, method, drawing = sequence_from_dict(doc)
    assert (method, doc["certified"], drawing) == ("special", True, sq_file)
    assert trees[0] == ((0, 1), (0, 2), (0, 3)) and len(trees) == 3


def test_cli_certify_without_drawing_reference(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(dumps(sequence_to_dict([((0, 1), (1, 2))], "manual")))
    assert main(["certify", str(seq)]) == 1
    assert _one_json_error(capsys) == {
        "error": "invalid-input", "type": "FileFormatError",
        "message": "no drawing file given or referenced"}


def test_cli_invalid_file(tmp_path, capsys):
    """A drawing missing its fields, and a file nested too deeply for the
    JSON parser read as a drawing or as a sequence, are invalid input."""
    bad = tmp_path / "bad.json"
    nested = "[" * 100000 + "]" * 100000
    for text, commands in (("{\"n\": 3}", ["validate"]), (nested, ["validate", "certify"])):
        bad.write_text(text)
        for cmd in commands:
            assert main([cmd, str(bad)]) == 1
            err = _one_json_error(capsys)
            assert err["error"] == "invalid-input" and err["type"] == "FileFormatError"


@pytest.mark.parametrize("path, value", [
    (("edges", 0, "curve"), None),
    (("graph",), {"bipartite": [None, 2]}),
    (("edges", 0, "u"), False),  # edge (0, 1): false would alias vertex 0
    (("edges", 2, "u"), True),   # edge (1, 2): true would alias vertex 1
], ids=["curve-null", "bipartite-null", "u-false", "u-true"])
def test_cli_malformed_drawing_is_one_json_error(path, value, tmp_path, capsys):
    doc = drawing_to_dict(polar_k3())
    *parents, key = path
    target = doc
    for k in parents:
        target = target[k]
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)  # exactly one JSON object
    assert err["error"] == "invalid-input" and err["type"] == "FileFormatError"


@pytest.mark.parametrize("sizes", [[0, 3], [1, 1], [-1, 4]],
                         ids=["empty-part", "short-sum", "negative-part"])
def test_cli_bad_bipartite_sizes_are_invalid_input(sizes, tmp_path, capsys):
    """Part sizes that are not positive or do not sum to n are rejected,
    even when the edge list matches the sizes as written."""
    doc = drawing_to_dict(polar_k3())
    doc["graph"] = {"bipartite": sizes}
    a, b = sizes
    doc["edges"] = [e for e in doc["edges"] if e["u"] < a <= e["v"] < a + b]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for cmd in ("validate", "compat"):
        assert main([cmd, str(bad)]) == 1
        err = json.loads(capsys.readouterr().err)  # exactly one JSON object
        assert err["error"] == "invalid-input" and err["type"] == "NotSimpleError"


@pytest.mark.parametrize("path, value", [
    ((0,), [None, [0, 1]]),
    ((0, 0), ["0", "1"]),   # numeric strings would be coerced by int()
    ((0, 0), [False, 1]),   # false would alias vertex 0
    ((0, 0), [True, 1]),    # true would alias vertex 1
    ((0, 0), [0, 1, 2]),
    ((0,), "0-1,0-2,0-3"),
    ((), 7),
], ids=["edge-null", "edge-strings", "edge-false", "edge-true", "edge-triple",
        "tree-string", "trees-int"])
def test_cli_malformed_sequence_is_one_json_error(path, value, sq_file,
                                                  tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    assert main(["transform", sq_file, "--from", "0-1,0-2,0-3",
                 "--to", "0-1,1-2,1-3", "-o", str(seq_path)]) == 0
    capsys.readouterr()
    doc = json.loads(seq_path.read_text())
    assert doc["trees"][0][0] == [0, 1]
    *parents, key = ("trees",) + path
    target = doc
    for k in parents:
        target = target[k]
    target[key] = value
    seq_path.write_text(json.dumps(doc))
    assert main(["certify", str(seq_path)]) == 1
    err = json.loads(capsys.readouterr().err)  # exactly one JSON object
    assert err["error"] == "invalid-input" and err["type"] == "FileFormatError"


@pytest.mark.parametrize("r_in2, r_out2, message", [
    (["4", "1"], ["1", "1"], "inner squared radius must be smaller"),
    (["0", "1"], ["4", "1"], "radii must be positive"),
], ids=["inner-not-smaller", "inner-not-positive"])
@pytest.mark.parametrize("cmd", ["validate", "trees", "compat", "render", "transform"])
def test_cli_bad_circles_hint_exits_1(cmd, r_in2, r_out2, message, tmp_path,
                                      capsys):
    """A bad circles hint is invalid input to every command that reads a
    drawing file, not only to those that classify the drawing."""
    doc = drawing_to_dict(cyl_k4())
    doc["circles"] = {"r_in2": r_in2, "r_out2": r_out2}
    drawing, svg = tmp_path / "d.json", tmp_path / "d.svg"
    drawing.write_text(dumps(doc))
    extra = {"render": ["-o", str(svg)],
             "transform": ["--from", "0-1,0-2,0-3", "--to", "0-1,0-2,0-3"]}
    assert main([cmd, str(drawing), *extra.get(cmd, [])]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert [json.loads(line) for line in printed.err.splitlines()] == [
        {"error": "invalid-input", "type": "InvalidRadiiError", "message": message}]
    assert not svg.exists()


def _far_k2(x0, x1):
    """A straight K_2 from (x0, 0) to (x1, 0)."""
    points = [[[x, "1"], ["0", "1"]] for x in (x0, x1)]
    return {"n": 2, "graph": "complete", "backend": "cartesian",
            "vertices": points, "edges": [{"u": 0, "v": 1, "curve": points}]}


@pytest.mark.parametrize("doc, message", [
    ({"n": 2, "graph": "complete", "backend": "polar",
      "vertices": [[["0", "1"], ["1", "1"]], [["1", "2"], ["1", "1"]]],
      "edges": [{"u": 0, "v": 1, "curve": []}]},
     "cannot render an edge with an empty curve"),
    (_far_k2("0", "1" + "0" * 400), "drawing too large to render"),
    (_far_k2("-1" + "0" * 308, "1" + "0" * 308), "drawing too large to render"),
], ids=["polar-empty-curve", "past-float-range", "extent-past-float-range"])
def test_cli_render_unrenderable_drawing_exits_1(doc, message, tmp_path, capsys):
    """A drawing render cannot draw is invalid input: one JSON error, no
    SVG.  The first is no simple drawing; the others are, and ``validate``
    accepts them, but a coordinate or the drawing's extent is past the
    float range."""
    drawing, svg = tmp_path / "d.json", tmp_path / "d.svg"
    drawing.write_text(json.dumps(doc))
    assert main(["render", str(drawing), "-o", str(svg)]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert [json.loads(line) for line in printed.err.splitlines()] == [
        {"error": "invalid-input", "type": "ValueError", "message": message}]
    assert not svg.exists()


_DELETE = object()


@pytest.mark.parametrize("doc, path, value, message", [
    ("drawing", ("vertices", 0, 0), ["1", "0"], "bad rational"),
    ("drawing", ("vertices", 0, 0), ["a", "1"], "bad rational"),
    ("drawing", ("edges",), {}, "edges must be a list"),
    ("drawing", ("edges", 0, "x"), 1, "bad edge entry"),
    ("drawing", ("edges", 1), {"u": 1, "v": 0, "curve": []}, "duplicate edge (0, 1)"),
    ("drawing", ("circles",), {"r_in2": ["1", "1"]}, "bad circles field"),
    ("tree", (), "0-x", "bad edge '0-x'"),
    ("sequence", ("extra",), 1, "unknown fields: ['extra']"),
    ("sequence", ("method",), _DELETE, "missing field 'method'"),
    ("sequence", ("trees",), [], "empty sequence"),
    ("sequence", ("trees", 0), [[0, 1], [0, 1], [0, 2]], "duplicate edges"),
], ids=["rational-zero", "rational-word", "edges-object", "edge-extra-key",
        "edge-duplicate", "circles-no-r_out2", "tree-arg-word",
        "sequence-unknown-field", "sequence-no-method", "certify-empty",
        "certify-repeated-edge"])
def test_cli_input_errors_exit_1(doc, path, value, message, sq_file, tmp_path,
                                  capsys):
    """Malformed drawing files, tree arguments and sequence files: each
    exits 1 with one JSON object on stderr, named by its own message."""
    docs = {"drawing": drawing_to_dict(polar_k3()),
            "sequence": sequence_to_dict([((0, 1), (0, 2), (0, 3))], "manual",
                                         drawing=sq_file)}
    tree_arg = value if doc == "tree" else "0-1,0-2,0-3"
    if doc in docs:
        *parents, key = path
        target = docs[doc]
        for k in parents:
            target = target[k]
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
    dfile, sfile = tmp_path / "d.json", tmp_path / "s.json"
    dfile.write_text(json.dumps(docs["drawing"]))
    sfile.write_text(json.dumps(docs["sequence"]))
    argv = {"drawing": ["validate", str(dfile)],
            "tree": ["transform", sq_file, "--from", tree_arg, "--to", "0-1,1-2,1-3"],
            "sequence": ["certify", str(sfile)]}[doc]
    assert main(argv) == 1
    err = _one_json_error(capsys)
    assert err["error"] == "invalid-input" and message in err["message"], err


@pytest.mark.parametrize("case, message", [
    ("backend", "bad backend 'spherical'"),
    ("vertex", "expected coordinate pair"),
    ("n-one", "n must be an integer >= 2"),
    ("n-true", "n must be an integer >= 2"),
    ("vertex-dropped", "vertices must list one point per vertex"),
    ("sequence-list", "sequence file must be a JSON object"),
    ("drawing-list", "drawing file must be a JSON object"),
    ("from-dashes", "bad tree argument []"),
    ("tree-dashes", "bad tree argument []"),
], ids=["backend-spherical", "vertex-not-a-pair", "n-one", "n-true", "vertex-dropped",
        "certify-list", "drawing-list", "transform-from-dashes", "render-tree-dashes"])
def test_cli_file_format_rejections(case, message, k3_file, tmp_path, capsys):
    """A drawing file with an unknown backend, a vertex that is not a pair,
    an n that is not an integer >= 2 (1, or true, which is no integer) or
    one vertex too few, a sequence file or a drawing file that is a JSON
    list (the drawing under every command that reads one), and the tree
    value "--", which argparse hands over as an empty list: each exits 1
    with one JSON object on stderr, typed ``FileFormatError``."""
    doc = drawing_to_dict(polar_k3())
    if case == "backend":
        doc["backend"] = "spherical"
    elif case == "vertex":
        doc["vertices"][0] = doc["vertices"][0] * 2
    elif case.startswith("n-"):
        doc["n"] = {"n-one": 1, "n-true": True}[case]
    elif case == "vertex-dropped":
        del doc["vertices"][-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([] if case.endswith("-list") else doc))
    svg = str(tmp_path / "o.svg")
    argvs = {"sequence-list": [["certify", str(bad), "--drawing", k3_file]],
             "drawing-list": [[cmd, str(bad), *rest] for cmd, *rest in (
                 ["validate"], ["trees"], ["compat"],
                 ["transform", "--from", "0-1,1-2", "--to", "0-2,1-2"],
                 ["render", "-o", svg])],
             "from-dashes": [["transform", k3_file, "--from=--", "--to", "0-1,1-2"]],
             "tree-dashes": [["render", k3_file, "--tree=--", "-o", svg]],
             }.get(case, [["validate", str(bad)]])
    for argv in argvs:
        assert main(argv) == 1
        err = _one_json_error(capsys)
        assert err["error"] == "invalid-input" and err["type"] == "FileFormatError"
        assert err["message"].startswith(message), (argv, err)
    assert not (tmp_path / "o.svg").exists()


def test_cli_render(tmp_path, capsys, k3_file):
    out = str(tmp_path / "out.svg")
    assert main(["render", k3_file, "--tree", "0-1,1-2", "-o", out]) == 0
    svg1 = Path(out).read_text()
    assert svg1.startswith("<?xml") and "<svg" in svg1
    assert main(["render", k3_file, "--tree", "0-1,1-2", "-o", out]) == 0
    assert Path(out).read_text() == svg1  # byte-identical rerun


def test_cli_render_unknown_edge_is_one_json_error(tmp_path, capsys, k3_file):
    out = tmp_path / "out.svg"
    assert main(["render", k3_file, "--tree", "0-7", "-o", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "invalid-input" and err["type"] == "UnknownEdgeError"
    assert not out.exists()


def test_cli_bad_second_tree_names_its_position(tmp_path, capsys):
    _bad_second_tree(tmp_path, capsys, ["cylindrical", "-a", "2", "-b", "3"])


@pytest.mark.parametrize("cls", ["monotone_perturbed", "strongly_cmonotone"])
def test_cli_spine_route_bad_second_tree_names_its_position(tmp_path, capsys, cls):
    _bad_second_tree(tmp_path, capsys, [cls])


def _bad_second_tree(tmp_path, capsys, gen_args):
    drawing = str(tmp_path / "d5.json")
    assert main(["generate", "--class", gen_args[0], "--n", "5", "--seed", "0",
                 *gen_args[1:], "-o", drawing]) == 0
    capsys.readouterr()
    assert main(["transform", drawing, "--from", "0-1,0-2,0-3,0-4",
                 "--to", "0-1,0-2,0-3"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "BadTreeError"
    assert err["message"] == "tree at position 1 is not a plane spanning tree (not spanning)"


def test_render_two_page_deterministic():
    from treespan.render import render_svg

    d = two_page_k4()
    a = render_svg(d, [[(0, 1), (1, 2), (2, 3)]])
    b = render_svg(d, [[(0, 1), (1, 2), (2, 3)]])
    assert a == b
    assert a.count("<polyline") == 6
    assert a.count('stroke-width="2.5"') == 3


def test_cli_transform_auto_cylindrical(tmp_path):
    drawing = str(tmp_path / "cyl.json")
    seq_path = str(tmp_path / "seq.json")
    assert main(["generate", "--class", "cylindrical", "--n", "4", "--seed",
                 "2", "-a", "2", "-b", "2", "-o", drawing]) == 0
    assert main(["transform", drawing, "--from", "0-1,0-2,0-3",
                 "--to", "1-2,1-3,0-1", "-o", seq_path]) == 0
    doc = json.loads(Path(seq_path).read_text())
    assert doc["certified"] and len(doc["trees"]) <= 5


@pytest.mark.parametrize("argv", [
    [],
    ["compat"],
    ["frobnicate"],
    ["generate", "--class", "convex", "--n", "x", "--seed", "1", "-o", "o.json"],
    ["generate", "--class", "hexagon", "--n", "4", "--seed", "1", "-o", "o.json"],
    ["trees", "d.json", "--kind", "bogus"],
    ["validate", "d.json", "--frobnicate"],
], ids=["no-subcommand", "missing-file", "unknown-subcommand", "n-not-int",
        "unknown-class", "unknown-kind", "unknown-option"])
def test_cli_usage_error_is_one_json_error(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "invalid-input" and doc["type"] == "UsageError"


@pytest.mark.parametrize("argv", [["--help"], ["compat", "--help"]])
def test_cli_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: treespan") and err == ""


# ---------------------------------------------------------------------------
# CLI contract under malformed input
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text("0123-/x", max_size=3)
    | st.sampled_from([["1", "2"], ["0", "0"], ["-1", "1"], [0, 1], [[0, 1]]]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["n", "u", "v", "curve", "x"]),
                                     inner, max_size=2)),
    max_leaves=6)

_TREE_ARG = st.sampled_from(["0-1,0-2,0-3", "0-1,1-2,1-3", "0-1,1-2,2-3",
                             "0-1,1-2", "0-2,1-3", "0-7", "1-1,0-1,0-2"]) | st.text(
    "0123456789-, x", max_size=10)


def _mutate(doc, data):
    """Replace or delete one value somewhere inside a JSON document."""
    if not isinstance(doc, (dict, list)) or not doc or data.draw(
            st.integers(0, 3)) == 0:
        return json.loads(json.dumps(data.draw(_JSON)))  # fresh containers
    key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                                    else range(len(doc))))
    if data.draw(st.integers(0, 5)) == 0:
        del doc[key]
    else:
        doc[key] = _mutate(doc[key], data)
    return doc


def _valid_docs():
    drawings = [drawing_to_dict(d) for d in (
        generate(GenSpec(cls="convex", n=4, seed=1)), polar_k3(),
        two_page_k4(), cyl_k4())]
    seq = sequence_to_dict([((0, 1), (0, 2), (0, 3)), ((0, 1), (0, 2), (1, 3))],
                           "manual", drawing="d.json")
    return drawings, seq


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_cli_contract_on_malformed_input(data):
    drawings, seq = _valid_docs()
    drawing = data.draw(st.sampled_from(drawings))
    for _ in range(data.draw(st.integers(0, 2))):
        drawing = _mutate(drawing, data)
    seq = _mutate(seq, data) if data.draw(st.booleans()) else seq
    src, dst = data.draw(_TREE_ARG), data.draw(_TREE_ARG)
    with tempfile.TemporaryDirectory() as tmp:
        dfile, sfile = os.path.join(tmp, "d.json"), os.path.join(tmp, "s.json")
        text = json.dumps(drawing)
        if data.draw(st.integers(0, 9)) == 0:  # not JSON at all
            text = data.draw(st.sampled_from([text[:len(text) // 2], "{", ""]))
        with open(dfile, "w") as fh:
            fh.write(text)
        with open(sfile, "w") as fh:
            fh.write(json.dumps(seq))
        argv = data.draw(st.sampled_from([
            ["validate", dfile],
            ["trees", dfile, "--kind=special"],
            ["compat", dfile],
            ["transform", dfile, "--from=" + src, "--to=" + dst],
            ["transform", dfile, "--from=" + src, "--to=" + dst,
             "--method=special"],
            ["certify", sfile, "--drawing=" + dfile],
            ["render", dfile, "--tree=" + src, "-o", os.path.join(tmp, "o.svg")],
            ["compat"],
            ["frobnicate", dfile],
            ["generate", "--class=convex", "--n", "x", "--seed=1", "-o", dfile],
            ["transform", dfile, "--from=" + src],
        ]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
