"""Every name a perchsim module imports is used in that module.

No linter ships with the project, so this reads each module's syntax tree:
an imported name counts as used where it appears as a name in the code, or
as a string in the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

import perchsim

MODULES = sorted(Path(perchsim.__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names `source` imports and never uses, sorted."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted(imported - used)


def test_guard_finds_unused_imports():
    source = ("import os\nimport os.path\nimport numpy as np\n"
              "from .geometry import B3, ZERO3 as Z\nfrom . import harness\n"
              "__all__ = ['harness']\nx = np.zeros(3) + B3\n")
    assert unused_imports(source) == ["Z", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports {unused} and never uses them"
