"""The scripts and the benchmark's self-test run from a checkout, without
the package installed, and the package needs nothing outside the standard
library."""

import ast
import os
import pathlib
import subprocess
import sys

from treespan.trees import ENUM_LIMIT_ALL

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_diameter_sweep_runs_from_a_checkout(tmp_path):
    """On five or fewer vertices every plane tree is in the star family,
    so the restricted columns (marked *) repeat the full graph's, the
    cylindrical (2,2) and (2,3) rows among them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(SCRIPTS / "diameter_sweep.py"),
                          "--max-n", "5", "--seeds", "1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    header, *rows = (line.split() for line in out.stdout.splitlines())
    assert rows[0][:3] == ["convex", "4", "0"]
    cols = [dict(zip(header, row)) for row in rows]
    small = [col for col in cols if int(col["n"]) <= 5]
    assert {"cylindrical(2,2)", "cylindrical(2,3)"} <= {col["class"] for col in small}
    assert len(small) == 12
    for col in cols:
        assert int(col["classes"]) <= int(col["nodes"])
    for col in small:
        assert (col["classes*"], col["diam*"]) == (col["classes"], col["diam"]), col


def test_diameter_sweep_rejects_max_n_past_the_enumeration_limit(tmp_path):
    # before any work: no header row, and no traceback at the first n = 9 cell
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(SCRIPTS / "diameter_sweep.py"),
                          "--max-n", str(ENUM_LIMIT_ALL + 1), "--seeds", "1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "--max-n" in out.stderr and "Traceback" not in out.stderr


def test_render_examples_runs_from_a_checkout(tmp_path):
    # renders a cylindrical drawing, so the circle predicates run end to end
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(SCRIPTS / "render_examples.py"),
                          "--out-dir", str(tmp_path / "figures")],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert len(list((tmp_path / "figures").glob("*.svg"))) == 10


def test_perfbench_selftest_passes():
    # the benchmark reads the result types (g.nodes, g.index, seq.trees,
    # seq.certified), so a change to them that breaks it fails here
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr


def test_package_imports_only_the_standard_library():
    # every absolute import of the package names a standard-library module
    found = set()
    for path in sorted((ROOT / "src" / "treespan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    assert "json" in found and "fractions" in found
    assert found <= sys.stdlib_module_names, sorted(found - sys.stdlib_module_names)


def test_shells_import_only_public_names():
    """The CLI and the scripts are shells over the public API: neither
    imports an underscore-prefixed name or module of the package."""
    shells = [ROOT / "src" / "treespan" / "cli.py", *sorted(SCRIPTS.glob("*.py"))]
    assert len(shells) > 3
    found = []
    for path in shells:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "treespan"):
                names = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names if a.name.split(".")[0] == "treespan"
                         for part in a.name.split(".")]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("_")]
    assert found == []
