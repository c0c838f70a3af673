"""Who a failed certificate blames.

``certify_sequence`` certifies a caller's trees: a bad tree or step is
invalid input (exit 1).  A route certifies its own output: a tree or step
of that output that fails is the route's fault, ``InternalInvariantViolated``
(exit 3), whatever the input.  The mutants below break a route in a way its
own certificate catches; each must be reported as internal, never as the
caller's bad input.
"""

import json

import pytest

from treespan import transforms
from treespan.cli import main
from treespan.drawing import classify_monotone, validate_simple
from treespan.errors import (
    BadTreeError,
    IncompatibleStepError,
    InternalInvariantViolated,
    MethodInapplicable,
)
from treespan.fileio import dumps, save_drawing, sequence_to_dict
from treespan.generators import GenSpec, generate
from treespan.transforms import (
    METHODS,
    certify_sequence,
    monotone_to_spine,
    star_to_star,
    transform,
    transform_cylindrical,
    transform_special,
)
from treespan.trees import check_mask, enumerate_plane_trees, tree_mask

from conftest import polar_k5

STAR0 = "0-1,0-2,0-3,0-4,0-5,0-6"
STAR1 = "0-1,1-2,1-3,1-4,1-5,1-6"


def _reverse_flip_pairs(monkeypatch):
    """The star family's flip schedule, read last first: some double star
    on the way crosses itself."""
    flip_pairs = transforms._flip_pairs
    monkeypatch.setattr(transforms, "_flip_pairs",
                        lambda d, g, r: flip_pairs(d, g, r)[::-1])


def _spine_path_at_once(monkeypatch, d):
    """A monotone step that jumps straight to the spine path, skipping the
    rounds that keep each step compatible."""
    path = tree_mask(d, classify_monotone(d).spine_edges[:d.n - 1])
    monkeypatch.setattr(transforms, "_monotone_step", lambda *args: path)
    return path


def _crossing_the_spine_path(d, path):
    """The first plane tree that crosses the spine path: its route needs
    at least one round."""
    crossing = check_mask(d, path).conflict
    return next(t for t in enumerate_plane_trees(d) if tree_mask(d, t) & crossing)


def _cli_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    return code, json.loads(lines[0])


def test_star_to_star_blames_itself_for_a_crossing_double_star(monkeypatch):
    d = generate(GenSpec(cls="random_points", n=7, seed=0))
    _reverse_flip_pairs(monkeypatch)
    with pytest.raises(InternalInvariantViolated) as e:
        star_to_star(d, 0, 1)
    assert str(e.value) == ("special route: tree at position 1 is not a plane "
                            "spanning tree (not plane)")


def test_cli_special_route_failing_its_certificate_exits_3(tmp_path, monkeypatch, capsys):
    drawing = str(tmp_path / "d.json")
    save_drawing(generate(GenSpec(cls="random_points", n=7, seed=0)), drawing)
    _reverse_flip_pairs(monkeypatch)
    code, err = _cli_error(capsys, ["transform", drawing, "--from", STAR0,
                                    "--to", STAR1, "--method", "special"])
    assert code == 3
    assert err["error"] == "internal-invariant-violated"
    assert err["type"] == "InternalInvariantViolated"


def test_monotone_to_spine_blames_itself_for_an_incompatible_step(monkeypatch):
    d = generate(GenSpec(cls="monotone_perturbed", n=6, seed=1))
    path = _spine_path_at_once(monkeypatch, d)
    t = _crossing_the_spine_path(d, path)
    with pytest.raises(InternalInvariantViolated) as e:
        monotone_to_spine(d, classify_monotone(d), t)
    assert str(e.value) == "monotone route: trees at positions 0 and 1 are not compatible"


def test_cli_monotone_route_failing_its_certificate_exits_3(tmp_path, monkeypatch, capsys):
    d = generate(GenSpec(cls="monotone_perturbed", n=6, seed=1))
    drawing = str(tmp_path / "d.json")
    save_drawing(d, drawing)
    path = _spine_path_at_once(monkeypatch, d)
    t = _crossing_the_spine_path(d, path)
    spine_path = ",".join(f"{u}-{v}" for u, v in classify_monotone(d).spine_edges[:d.n - 1])
    code, err = _cli_error(capsys, ["transform", drawing, "--method", "monotone",
                                    "--from", ",".join(f"{u}-{v}" for u, v in t),
                                    "--to", spine_path])
    assert code == 3 and err["type"] == "InternalInvariantViolated"


# spanning and acyclic in polar_k5, but (1, 4) crosses (2, 3)
CROSSED = [(0, 1), (1, 4), (0, 3), (2, 3)]


def test_certify_sequence_reports_a_bad_tree_before_a_later_bad_step(tmp_path, capsys):
    d = polar_k5()
    trees = enumerate_plane_trees(d)
    a, b = next((a, b) for a in trees for b in trees
                if tree_mask(d, a) & check_mask(d, tree_mask(d, b)).conflict)
    with pytest.raises(BadTreeError) as e:
        certify_sequence(d, [a, CROSSED, a, b])
    assert str(e.value) == "tree at position 1 is not a plane spanning tree (not plane)"
    with pytest.raises(IncompatibleStepError) as e:
        certify_sequence(d, [a, a, b])
    assert str(e.value) == "trees at positions 1 and 2 are not compatible"

    drawing, seqfile = str(tmp_path / "d.json"), str(tmp_path / "seq.json")
    save_drawing(d, drawing)
    with open(seqfile, "w") as fh:
        fh.write(dumps(sequence_to_dict([a, CROSSED, a, b], "manual", drawing=drawing)))
    code, err = _cli_error(capsys, ["certify", seqfile])
    assert code == 1 and err["type"] == "BadTreeError"


def test_transform_takes_the_first_route_that_applies():
    """``auto`` takes the routes in ``METHODS``' order; a named method
    takes only its own."""
    assert METHODS == ("auto", "cylindrical", "monotone", "cmonotone", "special")
    cyl = generate(GenSpec(cls="cylindrical", n=5, seed=0, a=2, b=3))
    roles = validate_simple(cyl).is_cylindrical
    star = [(0, v) for v in range(1, 5)]
    double = [(0, 1), (0, 2), (0, 3), (3, 4)]
    assert transform(cyl, star, double) == transform_cylindrical(cyl, roles, star, double)
    assert transform(cyl, star, double, "special") == transform_special(cyl, star, double)
    t1, t2 = enumerate_plane_trees(cyl)[:2]
    with pytest.raises(MethodInapplicable):
        transform(cyl, t1, t2, "monotone")
    with pytest.raises(MethodInapplicable):
        transform(cyl, t1, t2, "manual")
