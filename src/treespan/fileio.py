"""JSON file formats and DOT export.

Every number in a drawing file is a two-element array of decimal integer
strings [numerator, denominator], so exact rationals survive serialization
in any language.  A relation file holds a crossing relation alone: n, the
edges and the crossing pairs, as [u, v] integer pairs.  Unknown fields are
rejected and serialization is canonical (sorted keys, sorted edges), making
round-trips byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

from .compat import CompatGraph
from .drawing import Drawing, Relation, bits, check_radii
from .errors import TreespanError
from .geometry import Point, PolarPoint
from .trees import Tree, canon_tree


class FileFormatError(TreespanError):
    pass


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def _num_to_json(x: Fraction) -> list:
    f = Fraction(x)
    return [str(f.numerator), str(f.denominator)]

def _num_from_json(obj) -> Fraction:
    if (not isinstance(obj, list) or len(obj) != 2
            or not all(isinstance(s, str) for s in obj)):
        raise FileFormatError(f"expected [numerator, denominator], got {obj!r}")
    try:
        return Fraction(int(obj[0]), int(obj[1]))
    except (ValueError, ZeroDivisionError) as ex:
        raise FileFormatError(f"bad rational {obj!r}: {ex}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _n_from_json(n) -> int:
    if not _is_int(n) or n < 2:
        raise FileFormatError("n must be an integer >= 2")
    return n


def _edge_from_json(e) -> Tuple[int, int]:
    if not (isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
        raise FileFormatError(f"bad edge {e!r}; expected [u, v] ints")
    return e[0], e[1]


def _pair_to_json(p) -> list:
    return [_num_to_json(p[0]), _num_to_json(p[1])]


def _pair_from_json(obj) -> Tuple[Fraction, Fraction]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise FileFormatError(f"expected coordinate pair, got {obj!r}")
    return _num_from_json(obj[0]), _num_from_json(obj[1])


# ---------------------------------------------------------------------------
# drawings
# ---------------------------------------------------------------------------

def drawing_to_dict(d: Drawing) -> dict:
    out = {
        "n": d.n,
        "graph": "complete" if d.graph[0] == "complete"
                 else {"bipartite": [d.graph[1], d.graph[2]]},
        "backend": d.backend,
        "vertices": [_pair_to_json(p) for p in d.vertex_points],
        "edges": [{"u": e[0], "v": e[1],
                   "curve": [_pair_to_json(w) for w in d.curves[e]]}
                  for e in d.edges],
    }
    if d.circles is not None:
        out["circles"] = {"r_in2": _num_to_json(d.circles[0]),
                          "r_out2": _num_to_json(d.circles[1])}
    return out


def _check_top_level(obj, kind: str, required: Tuple[str, ...],
                     optional: Tuple[str, ...]) -> None:
    """The rule for a file's top level, of any kind: a JSON object
    with no unknown field and every required one, checked in that order."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{kind} file must be a JSON object")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise FileFormatError(f"unknown fields: {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise FileFormatError(f"missing field {key!r}")


def drawing_from_dict(obj: dict) -> Drawing:
    _check_top_level(obj, "drawing", ("n", "graph", "backend", "vertices", "edges"),
                     ("circles",))
    n = _n_from_json(obj["n"])
    graph_obj = obj["graph"]
    if graph_obj == "complete":
        graph = ("complete",)
    elif (isinstance(graph_obj, dict) and set(graph_obj) == {"bipartite"}
          and isinstance(graph_obj["bipartite"], list)
          and len(graph_obj["bipartite"]) == 2
          and all(_is_int(k) for k in graph_obj["bipartite"])):
        a, b = graph_obj["bipartite"]
        graph = ("bipartite", a, b)
    else:
        raise FileFormatError(f"bad graph field {graph_obj!r}")
    backend = obj["backend"]
    if backend not in ("cartesian", "polar"):
        raise FileFormatError(f"bad backend {backend!r}")
    verts = obj["vertices"]
    if not isinstance(verts, list) or len(verts) != n:
        raise FileFormatError("vertices must list one point per vertex")
    make = Point if backend == "cartesian" else PolarPoint
    points = tuple(make(*_pair_from_json(p)) for p in verts)
    curves = {}
    if not isinstance(obj["edges"], list):
        raise FileFormatError("edges must be a list")
    for entry in obj["edges"]:
        if not isinstance(entry, dict) or set(entry) != {"u", "v", "curve"}:
            raise FileFormatError(f"bad edge entry {entry!r}")
        u, v = entry["u"], entry["v"]
        if not (_is_int(u) and _is_int(v)
                and 0 <= u < n and 0 <= v < n and u != v):
            raise FileFormatError(f"bad edge endpoints {u}, {v}")
        e = (min(u, v), max(u, v))
        if e in curves:
            raise FileFormatError(f"duplicate edge {e}")
        if not isinstance(entry["curve"], list):
            raise FileFormatError(f"curve of edge {e} must be a list")
        curves[e] = tuple(make(*_pair_from_json(w)) for w in entry["curve"])
    circles = None
    if "circles" in obj:
        c = obj["circles"]
        if not isinstance(c, dict) or set(c) != {"r_in2", "r_out2"}:
            raise FileFormatError("bad circles field")
        circles = (_num_from_json(c["r_in2"]), _num_from_json(c["r_out2"]))
        check_radii(*circles)  # a hint every command rejects, whatever the backend
    return Drawing(n=n, backend=backend, vertex_points=points, curves=curves,
                   graph=graph, circles=circles)


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def save_drawing(d: Drawing, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(drawing_to_dict(d)))


def load_json(path: str):
    """The JSON document in a file, of any kind.  Nesting too deep
    for the parser is a malformed file like any other."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise FileFormatError("JSON nested too deeply") from None


def load_drawing(path: str) -> Drawing:
    return drawing_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def relation_to_dict(d: Relation) -> dict:
    return {"n": d.n, "edges": [list(e) for e in d.edges],
            "crossing_pairs": [[list(e), list(f)] for e, f in d.crossing_pairs()]}


def relation_from_dict(obj: dict) -> Relation:
    """The checked relation of ``Relation.from_pairs``."""
    _check_top_level(obj, "relation", ("n", "edges", "crossing_pairs"), ())
    n = _n_from_json(obj["n"])
    edges, pairs = obj["edges"], obj["crossing_pairs"]
    if not (isinstance(edges, list) and isinstance(pairs, list)):
        raise FileFormatError("edges and crossing_pairs must be lists")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FileFormatError(f"bad crossing pair {pair!r}; expected [[u, v], [x, y]]")
    return Relation.from_pairs(n, [_edge_from_json(e) for e in edges],
                               [tuple(map(_edge_from_json, pair)) for pair in pairs])


def save_relation(d: Relation, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(relation_to_dict(d)))


def load_relation(path: str) -> Relation:
    """A relation file's relation (an object with ``crossing_pairs``), or
    else the drawing of a drawing file."""
    obj = load_json(path)
    if isinstance(obj, dict) and "crossing_pairs" in obj:
        return relation_from_dict(obj)
    return drawing_from_dict(obj)


# ---------------------------------------------------------------------------
# tree sequences
# ---------------------------------------------------------------------------

def parse_tree_arg(text: str) -> Tree:
    """Comma-separated vertex pairs, e.g. '0-1,1-2,2-3'."""
    if not isinstance(text, str):  # argparse passes [] for the value "--"
        raise FileFormatError(f"bad tree argument {text!r}")
    edges = []
    for chunk in text.split(","):
        parts = chunk.strip().split("-")
        if len(parts) != 2:
            raise FileFormatError(f"bad edge {chunk!r}; expected 'u-v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FileFormatError(f"bad edge {chunk!r}") from None
    return canon_tree(edges)


def sequence_to_dict(trees: Iterable[Tree], method: str,
                     drawing: Optional[object] = None) -> dict:
    """A certified sequence's file: only certified sequences are written."""
    out = {
        "method": method,
        "certified": True,
        "trees": [[[u, v] for u, v in t] for t in trees],
    }
    if drawing is not None:
        out["drawing"] = drawing
    return out


def sequence_from_dict(obj: dict) -> Tuple[List[Tree], str, object]:
    _check_top_level(obj, "sequence", ("method", "trees", "certified"), ("drawing",))
    method, certified = obj["method"], obj["certified"]
    if not isinstance(method, str):
        raise FileFormatError(f"'method' must be a string, got {method!r}")
    if not isinstance(certified, bool):
        raise FileFormatError(f"'certified' must be true or false, got {certified!r}")
    if not isinstance(obj["trees"], list):
        raise FileFormatError("'trees' must be a list of trees")
    trees = []
    for entry in obj["trees"]:
        if not isinstance(entry, list):
            raise FileFormatError(f"expected a list of edges, got {entry!r}")
        trees.append(canon_tree([_edge_from_json(e) for e in entry]))
    return trees, method, obj.get("drawing")


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def compat_to_dot(g: CompatGraph) -> Iterator[str]:
    """g's DOT text, piece by piece: the header, one line per node, one
    chunk per row holding its edges to later nodes, and the closing brace.
    Write it with ``writelines`` or join it; no piece holds the whole
    graph."""
    yield "graph compat {\n"
    for i, t in enumerate(g.nodes):
        label = ",".join(f"{u}-{v}" for u, v in t)
        yield f'  n{i} [label="{label}"];\n'
    for i, row in enumerate(g.adjacency):
        yield "".join(f"  n{i} -- n{j};\n" for j in bits(row >> i + 1 << i + 1))
    yield "}\n"
