"""README.md's Python examples run as written and print what their
comments say."""

import pathlib
import re

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
