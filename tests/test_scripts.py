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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(SCRIPTS / "diameter_sweep.py"),
                          "--max-n", "4", "--seeds", "1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    header, row = (line.split() for line in out.stdout.splitlines()[:2])
    assert row[:3] == ["convex", "4", "0"]
    col = dict(zip(header, row))
    assert "classes" in col and "classes*" in col
    assert int(col["classes"]) <= int(col["nodes"])


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
