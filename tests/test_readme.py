"""README.md's examples run as written: the Python ones print what their
comments say, and each ``treespan`` command exits 0 and writes its files."""

import pathlib
import re
import shlex

from treespan.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def _run(source, capsys):
    """The example's stdout lines, run in a fresh namespace."""
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    return capsys.readouterr().out.splitlines()


def test_readme_python_examples_run(capsys):
    sketch, relation = _python_blocks()
    diameter, sequence = _run(sketch, capsys)
    assert int(diameter) <= 4
    count, certified = sequence.split()
    assert int(count) <= 5 and certified == "True"
    assert _run(relation, capsys) == ["12"]


def _commands():
    """The argument lists of the ``treespan`` lines of the README's ``sh``
    blocks, each line joined to its backslash continuations."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("treespan ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        written = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("-o", "--dot")]
        assert all((tmp_path / path).is_file() for path in written), argv
