"""Every top-level name a perchsim module defines is read somewhere.

No linter ships with the project, so this reads the syntax trees: a
definition counts as read where its name is loaded anywhere in the package,
as a name or an attribute, or imported by name; or where it is named in an
attribute path of `perfbench/tracer.py`'s LAYERS, which wraps it from
outside.  Dunders such as `__all__` are exempt.

The last test guards the test tooling itself: under pyproject.toml's warning
filters, a failing `hypothesis` test is reported as failed and the session
goes on.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import perchsim

SRC = Path(perchsim.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def defined(tree):
    """The top-level names a module defines, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def read(tree):
    """The names a module loads, as names or attributes, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def traced(source):
    """Every part of the attribute paths in the tracer's LAYERS table."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) \
                and [ast.unparse(t) for t in node.targets] == ["LAYERS"]:
            return {part for row in node.value.elts
                    for part in row.elts[1].value.split(".")}
    raise AssertionError("the tracer defines no LAYERS table")


def unused_definitions(sources, tracer_source):
    """(file, name) of each definition in `sources` (file -> text) that no
    source reads and the tracer does not name, sorted."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used = traced(tracer_source).union(*map(read, trees.values()))
    return sorted((path, name) for path, tree in trees.items()
                  for name in defined(tree) - used)


def test_guard_finds_unused_definitions():
    sources = {
        "a.py": ("__all__ = ['f']\nx, y = 1, 2\nz: int = 3\n"
                 "def f():\n    return x\n"
                 "def _helper():\n    pass\n"
                 "class Wrapped:\n    def run(self):\n        pass\n"),
        "b.py": "from .a import f\nimport a\nprint(a.z)\n",
    }
    tracer = ("LAYERS = (\n    ('perchsim.a', 'Wrapped.run', 'a.run', "
              "None),\n)\n")
    assert unused_definitions(sources, tracer) \
        == [("a.py", "_helper"), ("a.py", "y")]


def test_every_definition_is_read():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    unused = unused_definitions(sources, TRACER.read_text())
    assert not unused, f"defined and never read: {unused}"


def test_failing_property_test_is_reported(tmp_path):
    # Hypothesis renders a failure's report with libcst, whose import warns
    # (a DeprecationWarning from mypy_extensions).  Under "error" alone that
    # warning ends the session with INTERNALERROR, losing every later test.
    path = tmp_path / "test_two.py"
    path.write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
        """))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "1 failed, 1 passed" in out.stdout, text
    assert "INTERNALERROR" not in text
