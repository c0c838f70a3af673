"""Relation files: a crossing relation without curves, for ``trees`` and
``compat``.

A relation file holds ``n``, the edges and the crossing pairs.  Read by
``trees`` or ``compat`` it answers byte for byte as the drawing file it
was saved from; every other command reads drawings only and rejects it.
``Relation.from_pairs`` checks what the plain constructor does not.
"""

import json

import pytest

from treespan.cli import main
from treespan.drawing import Relation
from treespan.errors import NotSimpleError, UnknownEdgeError
from treespan.fileio import (
    dumps,
    load_relation,
    relation_from_dict,
    relation_to_dict,
    save_drawing,
    save_relation,
)
from treespan.generators import CLASSES, GenSpec, fixture_bipartite_isolated, generate

SPECS = [GenSpec(cls=cls, n=6, seed=1, **({"a": 3, "b": 3} if cls == "cylindrical" else {}))
         for cls in CLASSES]


def _drawings():
    return [generate(spec) for spec in SPECS] + [fixture_bipartite_isolated()[0]]


def _cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("d", _drawings(), ids=[s.cls for s in SPECS] + ["bipartite"])
def test_relation_file_answers_as_its_drawing_file(d, tmp_path, capsys):
    drawing, relation = str(tmp_path / "d.json"), str(tmp_path / "r.json")
    save_drawing(d, drawing)
    save_relation(d, relation)
    for kind in ("all", "special"):
        answers = {_cli(capsys, ["trees", path, "--kind", kind, "--list"])
                   for path in (drawing, relation)}
        assert len(answers) == 1 and answers.pop()[0] == 0
    dots = []
    for path in (drawing, relation):
        dot = str(tmp_path / f"{len(dots)}.dot")
        code, out, err = _cli(capsys, ["compat", path, "--dot", dot])
        assert code == 0 and err == ""
        with open(dot) as fh:
            dots.append((out, fh.read()))
    assert dots[0] == dots[1]


@pytest.mark.parametrize("d", _drawings(), ids=[s.cls for s in SPECS] + ["bipartite"])
def test_from_pairs_rebuilds_the_crossing_rows(d, tmp_path):
    r = Relation.from_pairs(d.n, d.edges, d.crossing_pairs())
    assert type(r) is Relation
    assert (r.n, r.edges, r.cross_mask) == (d.n, d.edges, d.cross_mask)
    path = tmp_path / "r.json"
    save_relation(d, str(path))
    text = path.read_text()
    assert dumps(relation_to_dict(load_relation(str(path)))) == text  # byte-identical
    assert relation_from_dict(json.loads(text)).cross_mask == d.cross_mask


def test_from_pairs_sorts_its_edges_and_takes_any_subset():
    r = Relation.from_pairs(5, [(3, 0), (4, 1), (2, 1)], [((4, 1), (0, 3))])
    assert r.edges == ((0, 3), (1, 2), (1, 4))
    assert r.crossing_pairs() == [((0, 3), (1, 4))]


K4 = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

REJECTED = [  # (document, error type, message)
    ({"n": 4, "edges": K4[:5] + [[2, 2]], "crossing_pairs": []},
     "ValueError", "loop edge"),
    ({"n": 4, "edges": K4 + [[3, 4]], "crossing_pairs": []},
     "ValueError", "edge (3, 4) has a vertex outside 0..3"),
    ({"n": 4, "edges": K4 + [[1, 0]], "crossing_pairs": []},
     "ValueError", "duplicate edge (0, 1)"),
    ({"n": 4, "edges": K4[:5], "crossing_pairs": [[[0, 2], [1, 3]], [[0, 1], [2, 3]]]},
     "UnknownEdgeError", "crossing pair names edge (2, 3), which is not listed"),
    ({"n": 4, "edges": K4, "crossing_pairs": [[[0, 2], [2, 0]]]},
     "NotSimpleError", "edge crosses itself: edges (0, 2) and (0, 2)"),
    ({"n": 4, "edges": K4, "crossing_pairs": [[[0, 2], [2, 3]]]},
     "NotSimpleError", "edges sharing a vertex cross: edges (0, 2) and (2, 3)"),
    ({"n": 4, "edges": K4, "crossing_pairs": [[[0, 2], [1, 3]], [[1, 3], [0, 2]]]},
     "ValueError", "repeated crossing pair (1, 3), (0, 2)"),
    ({"n": 1, "edges": [], "crossing_pairs": []},
     "FileFormatError", "n must be an integer >= 2"),
    ({"n": True, "edges": [], "crossing_pairs": []},
     "FileFormatError", "n must be an integer >= 2"),
    ({"n": 4, "edges": [[0, "1"]], "crossing_pairs": []},
     "FileFormatError", "bad edge [0, '1']; expected [u, v] ints"),
    ({"n": 4, "edges": {}, "crossing_pairs": []},
     "FileFormatError", "edges and crossing_pairs must be lists"),
    ({"n": 4, "edges": K4, "crossing_pairs": [[[0, 2]]]},
     "FileFormatError", "bad crossing pair [[0, 2]]; expected [[u, v], [x, y]]"),
    ({"n": 4, "edges": K4, "crossing_pairs": [[[0, 2], [1]]]},
     "FileFormatError", "bad edge [1]; expected [u, v] ints"),
    ({"n": 4, "crossing_pairs": []},
     "FileFormatError", "missing field 'edges'"),
    ({"n": 4, "edges": K4, "crossing_pairs": [], "backend": "polar"},
     "FileFormatError", "unknown fields: ['backend']"),
]


@pytest.mark.parametrize("doc, kind, message", REJECTED)
@pytest.mark.parametrize("cmd", ["trees", "compat"])
def test_each_rejection_exits_1(doc, kind, message, cmd, tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    code, out, err = _cli(capsys, [cmd, str(path)])
    lines = err.splitlines()
    assert code == 1 and out == "" and len(lines) == 1
    assert json.loads(lines[0]) == {"error": "invalid-input", "type": kind, "message": message}


def test_from_pairs_errors_carry_their_pair():
    with pytest.raises(NotSimpleError) as e:
        Relation.from_pairs(4, K4, [((0, 2), (2, 3))])
    assert e.value.pair == ((0, 2), (2, 3))
    with pytest.raises(UnknownEdgeError):
        Relation.from_pairs(4, K4[:5], [((0, 1), (2, 3))])


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["transform", "--from", "0-1,0-2,0-3", "--to", "0-1,1-2,1-3"],
    ["render", "-o", "out.svg"],
])
def test_drawing_commands_reject_a_relation_file(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_relation(Relation.from_pairs(4, K4, [((0, 2), (1, 3))]), "r.json")
    code, out, err = _cli(capsys, [argv[0], "r.json", *argv[1:]])
    lines = err.splitlines()
    assert code == 1 and out == "" and len(lines) == 1
    assert json.loads(lines[0])["message"] == "unknown fields: ['crossing_pairs']"
    assert not (tmp_path / "out.svg").exists()
