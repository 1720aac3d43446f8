"""Every name a perchsim module imports is used in that module, the
outcome metrics and the log's format stay in `metrics.py`, apart from the
tick loop, the metrics fold reads the run's events only through
`tick_runs`, and `ScenarioError` is the one exception type perchsim defines.

No linter ships with the project, so this reads each module's syntax tree:
an imported name counts as used where it appears as a name in the code, or
as a string in the module's `__all__`.
"""

import ast
import importlib
import inspect
import textwrap
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
    # The fold's indices are read from the schema by name.
    for index, name in (("_T", "t"), ("_PZ", "pz"), ("_ER", "eR_norm"),
                        ("_EP", "ep_norm"), ("_SAT", "sat_any"),
                        ("_GAP", "gap")):
        assert getattr(metrics, index) == metrics._RECORD.index(name)
    # The record is the printed numbers, then the gap the CSV leaves out,
    # and a CSV line is rendered from the whole of each packed row.
    assert metrics._RECORD == metrics._NUM_COLUMNS + ("gap",)
    assert metrics._PRINTED.size == metrics._ROW.size


LOG_FORMAT = ("_ROW", "_PRINTED", "_MODE_POS", "_CSV_LINE", "_HEADER",
              "_csv_lines")


def test_log_format_lives_in_metrics():
    # harness.py is the tick loop: it defines no class, no name of the log's
    # format and no log stage of its own.  It packs each tick's record and
    # hands the blocks to the fold, which counts them, derives their mode
    # runs and writes their CSV; so it imports from metrics.py only the
    # record, the fold and the result.
    loop = ast.parse(Path(harness.__file__).read_text())
    assert not [node.name for node in ast.walk(loop)
                if isinstance(node, ast.ClassDef)]
    defined = {node.name for node in loop.body
               if isinstance(node, ast.FunctionDef)}
    defined.update(target.id for node in loop.body
                   if isinstance(node, ast.Assign) for top in node.targets
                   for target in ast.walk(top) if isinstance(target, ast.Name))
    assert not defined & set(LOG_FORMAT), defined & set(LOG_FORMAT)
    assert "_flush_block" not in defined
    assert {alias.name for node in loop.body
            if isinstance(node, ast.ImportFrom) and node.module == "metrics"
            for alias in node.names} \
        == {"_RECORD", "_ROW", "MetricsFold", "SimResult", "compute_metrics"}
    for name in LOG_FORMAT + ("SimResult",):
        if hasattr(harness, name):
            assert getattr(harness, name) is getattr(metrics, name), name
    assert harness.SimResult.__module__ == "perchsim.metrics"


def event_reads(source):
    """How `source` reads a run's events, one name a read, sorted: "loop"
    for a loop or comprehension over `self.events`, and "tick_runs" or
    "searchsorted" for a call of that name."""
    reads = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, (ast.For, ast.comprehension)) \
                and ast.unparse(node.iter) == "self.events":
            reads.append("loop")
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func).rpartition(".")[2]
            if name in ("tick_runs", "searchsorted"):
                reads.append(name)
    return sorted(reads)


def test_guard_finds_event_reads():
    source = """\
        def feed(self, t):
            first = next(te for te, kind, _ in self.events if kind == "x")
            for event in self.events:
                pass
            a = np.searchsorted(t, first) + t.searchsorted(first)
            return list(tick_runs(self.events, 0.1, "mode", 0, a))
        """
    assert event_reads(source) == ["loop", "loop", "searchsorted",
                                   "searchsorted", "tick_runs"]


def test_fold_reads_its_window_through_tick_runs():
    # A block's mode runs and the window after release are the "mode" and
    # "released" signals of `tick_runs`, the one reader of a signal the
    # events record by its edges: the fold neither scans its events nor
    # searches the `t` column for a time.
    assert event_reads(inspect.getsource(metrics.MetricsFold)) \
        == ["tick_runs", "tick_runs"]


def test_scenario_error_is_the_one_exception_type():
    # A malformed scenario is the CLI's exit 2; every other failure is a
    # builtin exception (a numerical abort is an ArithmeticError or a
    # ValueError raised while the tick runs).
    names = (f"perchsim.{path.stem}".removesuffix(".__init__")
             for path in MODULES)
    defined = {f"{module.__name__}.{name}"
               for module in map(importlib.import_module, names)
               for name, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__
               and issubclass(cls, BaseException)}
    assert defined == {"perchsim.scenario.ScenarioError"}
