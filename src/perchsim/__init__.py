"""Perching/unperching tiltrotor simulation and switching-control stack."""

from .scenario import ScenarioConfig, default_scenario, load_scenario, \
    parse_scenario, ScenarioError
from .harness import run_scenario
from .metrics import compute_metrics, compare

__all__ = [
    "ScenarioConfig", "default_scenario", "load_scenario", "parse_scenario",
    "ScenarioError", "run_scenario", "compute_metrics", "compare",
]

__version__ = "0.1.0"
