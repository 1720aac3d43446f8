"""Every name a perchsim module imports is used in that module, and the
outcome metrics stay in `metrics.py`, apart from the tick loop.

No linter ships with the project, so this reads each module's syntax tree:
an imported name counts as used where it appears as a name in the code, or
as a string in the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

import perchsim
from perchsim import harness, metrics

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


METRIC_NAMES = ("Metrics", "MetricsFold", "compute_metrics", "compare",
                "settle_index", "_nan_max", "_nan_min")


def test_metrics_live_in_their_own_module():
    # metrics.py imports only the supervisor from perchsim, so the loop
    # module can import the log schema from it without a cycle.
    for name in METRIC_NAMES:
        assert getattr(metrics, name).__module__ == "perchsim.metrics"
    tree = ast.parse(Path(metrics.__file__).read_text())
    assert {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level} \
        == {"supervisor"}
    loop = ast.parse(Path(harness.__file__).read_text())
    assert not {node.name for node in loop.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))} \
        & set(METRIC_NAMES)
    # One schema, and the fold's indices are read from it by name.
    assert harness.CSV_COLUMNS is metrics.CSV_COLUMNS
    for index, name in (("_T", "t"), ("_PZ", "pz"), ("_ER", "eR_norm"),
                        ("_EP", "ep_norm"), ("_SAT", "sat_any"),
                        ("_GAP", "gap")):
        assert getattr(metrics, index) == metrics._RECORD.index(name)
    # The record is the printed numbers, then the gap the CSV leaves out.
    assert metrics._RECORD == metrics._NUM_COLUMNS + ("gap",)
