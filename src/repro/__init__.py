"""repro — Robust Incentive Tree mechanisms for mobile crowdsensing.

A production-quality reproduction of *"Robust Incentive Tree Design for
Mobile Crowdsensing"* (Zhang, Xue, Yu, Yang, Tang — ICDCS 2017).

Quickstart
----------
>>> import numpy as np
>>> from repro import RIT, Job, paper_scenario
>>> scenario = paper_scenario(num_users=500, job=Job.uniform(10, 20), rng=7)
>>> outcome = RIT(h=0.8, round_budget="until-complete").run(
...     scenario.job, scenario.truthful_asks(), scenario.tree, rng=7)
>>> outcome.completed
True

Package map
-----------
``repro.core``        the RIT mechanism (CRA, Extract, payments, bounds)
``repro.tree``        incentive-tree structure and solicitation growth
``repro.socialnet``   social-graph substrate (synthetic Twitter stand-ins)
``repro.attacks``     sybil attacks, misreports, attack evaluation
``repro.baselines``   k-th price auction, naive combinations, tree rewards
``repro.workloads``   §7-A populations, jobs, named scenarios
``repro.simulation``  experiment harness reproducing every paper figure
``repro.analysis``    property audits and theoretical bound tables
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # resolved lazily by __getattr__ below
    from repro.core import (
        RIT,
        AllocationError,
        Ask,
        ConfigurationError,
        Job,
        Mechanism,
        MechanismOutcome,
        ModelError,
        Population,
        ReproError,
        User,
    )
    from repro.tree import ROOT, IncentiveTree, build_spanning_forest, grow_tree
    from repro.workloads import (
        Scenario,
        environmental_monitoring,
        paper_scenario,
        spectrum_sensing,
    )

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "RIT",
    "Job",
    "Ask",
    "User",
    "Population",
    "Mechanism",
    "MechanismOutcome",
    "IncentiveTree",
    "ROOT",
    "build_spanning_forest",
    "grow_tree",
    "Scenario",
    "paper_scenario",
    "spectrum_sensing",
    "environmental_monitoring",
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "AllocationError",
]

# Each top-level name imports its subpackage (and numpy) on first use, so
# importing a leaf module, such as the standard-library-only static
# analyzer, does not load the mechanism it may be checking.
_HOMES = ("repro.core", "repro.tree", "repro.workloads")


def __getattr__(name: str) -> Any:
    if name in __all__:
        for home in _HOMES:
            module = import_module(home)
            if name in module.__all__:
                value = getattr(module, name)
                globals()[name] = value
                return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
