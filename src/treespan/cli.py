"""Command-line surface.

Subcommands: validate, generate, trees, compat, transform, certify, render.
Exit codes: 0 success, 1 invalid input (a malformed command line too), 2
method inapplicable, 3 internal invariant violation.  Errors are emitted as
one JSON object on stderr; an empty output path is invalid input.  The
drawing of every subcommand with a ``file`` argument (validate, trees,
compat, transform, render) is loaded once, before ``_dispatch`` branches;
certify loads the drawing its sequence file names.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import fileio, render
from .compat import analyze, build_compat_graph
from .drawing import classify_c_monotone, classify_monotone, validate_simple
from .errors import (
    InternalInvariantViolated,
    MethodInapplicable,
    NotSpecialTreeError,
    TreespanError,
)
from .generators import _CLASSES, GenSpec, generate
from .trees import KINDS, _input_certs, enumerate_plane_trees, tree_mask
from .transforms import (
    _spine_route,
    certify_sequence,
    transform_cylindrical,
    transform_special,
)

class UsageError(TreespanError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports malformed argv as a UsageError (exit 1, one JSON object on
    stderr) instead of printing usage and exiting 2, which the contract
    reserves for an inapplicable method.  ``--help`` still exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _report_json(d) -> dict:
    rep = validate_simple(d)
    out = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    roles = rep.is_cylindrical
    if roles is not None:
        out["is_cylindrical"] = {"r_in2": str(roles.r_in2), "r_out2": str(roles.r_out2),
                                 "inner_vertices": list(roles.inner_vertices),
                                 "outer_vertices": list(roles.outer_vertices)}
    out["crossing_pairs"] = len(d.crossing_pairs())
    return out


def _run_transform(d, method: str, t1, t2):
    report = validate_simple(d)
    _input_certs(d, [t1, t2])  # a bad tree is invalid input under every method
    if method in ("auto", "cylindrical") and report.is_cylindrical is not None:
        return transform_cylindrical(d, report.is_cylindrical, t1, t2)
    if method in ("auto", "monotone") and report.is_monotone:
        return _spine_route(d, classify_monotone(d), [t1, t2])
    if method in ("auto", "cmonotone") and report.is_strongly_c_monotone:
        return _spine_route(d, classify_c_monotone(d)[2], [t1, t2])
    if method in ("auto", "special") and d.graph[0] == "complete":
        try:
            return transform_special(d, t1, t2)
        except NotSpecialTreeError:
            if method == "special":
                raise
    raise MethodInapplicable(f"no applicable method (asked for {method!r})")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="treespan",
                description="Plane spanning trees in simple drawings: "
                            "validation, brute-force compatibility graphs, "
                            "certified transformations.")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="validate a drawing file")
    v.add_argument("file")

    g = sub.add_parser("generate", help="generate a drawing")
    g.add_argument("--class", dest="cls", required=True, choices=list(_CLASSES))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-a", type=int, default=None)
    g.add_argument("-b", type=int, default=None)
    g.add_argument("-o", "--output", required=True)

    t = sub.add_parser("trees", help="enumerate plane spanning trees")
    t.add_argument("file")
    t.add_argument("--kind", default="all", choices=KINDS)
    t.add_argument("--list", action="store_true")
    t.add_argument("--limit", type=int, default=None)

    c = sub.add_parser("compat", help="build and analyze the compatibility graph")
    c.add_argument("file")
    c.add_argument("--special", action="store_true")
    c.add_argument("--dot", default=None)
    c.add_argument("--limit", type=int, default=None)

    tr = sub.add_parser("transform", help="certified transformation between trees")
    tr.add_argument("file")
    tr.add_argument("--from", dest="src", required=True)
    tr.add_argument("--to", dest="dst", required=True)
    tr.add_argument("--method", default="auto",
                    choices=["auto", "cylindrical", "monotone", "cmonotone",
                             "special"])
    tr.add_argument("-o", "--output", default=None)

    ce = sub.add_parser("certify", help="re-verify a sequence file")
    ce.add_argument("seqfile")
    ce.add_argument("--drawing", default=None,
                    help="drawing file (overrides the one named in the sequence)")

    r = sub.add_parser("render", help="render a drawing to SVG")
    r.add_argument("file")
    r.add_argument("--tree", action="append", default=[])
    r.add_argument("-o", "--output", required=True)
    return p


def _dispatch(args) -> int:
    d = fileio.load_drawing(args.file) if "file" in vars(args) else None
    if args.cmd == "validate":
        print(json.dumps(_report_json(d), sort_keys=True))
        return 0

    if args.cmd == "generate":
        spec = GenSpec(cls=args.cls, n=args.n, seed=args.seed,
                       a=args.a, b=args.b)
        d = generate(spec)
        fileio.save_drawing(d, args.output)
        print(json.dumps({"written": args.output,
                          "crossings": len(d.crossing_pairs())}))
        return 0

    if args.cmd == "trees":
        trees = enumerate_plane_trees(d, kind=args.kind, limit=args.limit)
        out = {"count": len(trees)}
        if args.list:
            out["trees"] = [[f"{u}-{v}" for u, v in t] for t in trees]
        print(json.dumps(out, sort_keys=True))
        return 0

    if args.cmd == "compat":
        g = build_compat_graph(d, restricted=args.special, limit=args.limit)
        a = analyze(g)
        diameter = a.diameter if a.diameter != math.inf else "infinite"
        if args.dot is not None:
            with open(args.dot, "w") as fh:
                fh.writelines(fileio.compat_to_dot(g))
        print(json.dumps({"nodes": len(g.masks), "edges": g.edge_count(),
                          "connected": a.connected, "diameter": diameter},
                         sort_keys=True))
        return 0

    if args.cmd == "transform":
        t1 = fileio.parse_tree_arg(args.src)
        t2 = fileio.parse_tree_arg(args.dst)
        seq = _run_transform(d, args.method, t1, t2)
        doc = fileio.sequence_to_dict(seq.trees, seq.method, seq.certified,
                                      drawing=args.file)
        text = fileio.dumps(doc)
        if args.output is not None:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(json.dumps({"written": args.output, "trees": len(seq),
                              "method": seq.method}))
        else:
            print(text, end="")
        return 0

    if args.cmd == "certify":
        trees, method, _, drawing_ref = fileio.sequence_from_dict(
            fileio.load_json(args.seqfile))
        path = args.drawing or drawing_ref
        if not isinstance(path, str):
            raise fileio.FileFormatError("no drawing file given or referenced")
        d = fileio.load_drawing(path)
        seq = certify_sequence(d, trees, method=method)
        print(json.dumps({"certified": True, "trees": len(seq)}))
        return 0

    if args.cmd == "render":
        highlight = [fileio.parse_tree_arg(t) for t in args.tree]
        for t in highlight:
            tree_mask(d, t)  # UnknownEdgeError for an edge the drawing lacks
        svg = render.render_svg(d, highlight)
        with open(args.output, "w") as fh:
            fh.write(svg)
        print(json.dumps({"written": args.output}))
        return 0

    raise AssertionError("unreachable")


def main(argv=None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except InternalInvariantViolated as ex:
        _emit_error("internal-invariant-violated", ex)
        return 3
    except MethodInapplicable as ex:
        _emit_error("method-inapplicable", ex)
        return 2
    except (TreespanError, OSError, ValueError) as ex:
        _emit_error("invalid-input", ex)
        return 1


def _emit_error(kind: str, ex: Exception) -> None:
    print(json.dumps({"error": kind, "type": type(ex).__name__,
                      "message": str(ex)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
