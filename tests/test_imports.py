"""Every name a perchsim module imports is used in that module, the
outcome metrics and the log's format stay in `metrics.py`, apart from the
tick loop, the metrics fold reads the run's events only through
`tick_runs`, the vehicle holds its rotors as plain tuples without importing
the allocation module, `ScenarioError` is the one exception type perchsim
defines, only the supervisor, the scenario and criterion 1's reference
read the switching thresholds, only the acceptance checks call
`numpy.linalg`, and a run's set-up checks, rotor matrix and metrics fold
call no numpy function.

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
from perchsim import allocation, harness, metrics, scenario, vehicle
from perchsim.scenario import default_scenario
from test_float_kernel import layout

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


def test_vehicle_holds_its_rotors_as_plain_tuples():
    # `build()` hands the tick the rotors as (pinv_rows, columns): per
    # rotor a (vertical, lateral) pair of six floats each, so vehicle.py
    # needs no type from allocation.py.
    pair = ((float,) * 6,) * 2
    assert layout(default_scenario().build()[0].rotors) == ((pair,) * 4,) * 2
    tree = ast.parse(Path(vehicle.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                and node.module == "allocation"]


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


SWITCHING_THRESHOLDS = ("lambda_f2p", "lambda_p2f", "magnet_range")


def threshold_reads(source):
    """The switching thresholds `source` reads as an attribute, sorted."""
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)
                   and node.attr in SWITCHING_THRESHOLDS})


def test_guard_finds_threshold_reads():
    source = ("gap = wall.gap_of(meas) if lam > cfg.lambda_f2p else inf\n"
              "cfg.magnet_range = 0.05\nScenarioConfig(lambda_p2f=-1.0)\n"
              "lambda_p2f = self.lambda_p2f\n")
    assert threshold_reads(source) == ["lambda_f2p", "lambda_p2f"]


def test_only_the_switching_modules_read_its_thresholds():
    # `transition` is the one statement of the force tests, `build()` checks
    # the thresholds and builds the wall's range from them, and criterion 1
    # restates the table independently; the tick loop reads none of them.
    readers = {path.name for path in MODULES
               if threshold_reads(path.read_text())}
    assert readers == {"supervisor.py", "scenario.py", "acceptance.py"}


def linalg_reads(source):
    """Where `source` reaches numpy's LAPACK wrappers, sorted: each read of
    an attribute named `linalg`, and each import of `numpy.linalg`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if node.module.startswith("numpy.linalg")
                      or (node.module, alias.name) == ("numpy", "linalg")]
    return sorted(found)


def test_guard_finds_linalg_reads():
    source = ("import numpy as np\nimport numpy.linalg\n"
              "from numpy import linalg\nfrom numpy.linalg import pinv\n"
              "P = np.linalg.pinv(A)\nr = numpy.linalg.matrix_rank(A)\n"
              "x = np.cross(a, b) @ A\nlinalg = 1\n")
    assert linalg_reads(source) == ["np.linalg", "numpy.linalg",
                                    "numpy.linalg", "numpy.linalg",
                                    "numpy.linalg.pinv"]


def test_only_the_acceptance_checks_call_lapack():
    # The run path takes no LAPACK call: the rotors' right inverse is plain
    # floats and the plan legs are closed forms.  The acceptance checks'
    # independent oracles (a KKT solve, criterion 4) may use it.
    readers = {path.name: linalg_reads(path.read_text()) for path in MODULES}
    assert {name for name, reads in readers.items() if reads} \
        == {"acceptance.py"}, readers


def numpy_calls(source):
    """The numpy functions `source` calls by a dotted name from `np` or
    `numpy`, sorted; a method called on an array is not one."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Call):
            f = node.func
            while isinstance(f, ast.Attribute):
                f = f.value
            if f is not node.func and isinstance(f, ast.Name) \
                    and f.id in ("np", "numpy"):
                found.append(ast.unparse(node.func))
    return sorted(found)


def test_guard_finds_numpy_calls():
    source = ("ok = np.isfinite(np.asarray(x, float)).all()\n"
              "y = numpy.ravel(x)\nisinstance(x, np.ndarray)\n"
              "z = y.max() + max(x)\n")
    assert numpy_calls(source) == ["np.asarray", "np.isfinite",
                                   "numpy.ravel"]


def test_setup_and_fold_call_no_numpy():
    # build() checks its numbers and builds the rotor matrix A in plain
    # floats, and the fold reads each block's columns as floats, so a
    # noise-free run pages in no numpy elementwise code for either; numpy
    # holds its log block.
    calls = {fn.__qualname__: numpy_calls(inspect.getsource(fn))
             for fn in (scenario.ScenarioConfig.build, scenario._flat,
                        scenario._within, metrics.MetricsFold.feed,
                        metrics.settle_index)}
    assert not any(calls.values()), calls
    tree = ast.parse(Path(allocation.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in imported
                if name.partition(".")[0] == "numpy"], imported
