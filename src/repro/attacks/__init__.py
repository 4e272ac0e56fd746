"""Dishonest-behaviour harness: sybil attacks, misreports, coalitions."""

from repro.attacks.collusion import (
    Coalition,
    apply_coalition,
    compare_coalition,
    random_price_cartel,
)
from repro.attacks.evaluator import (
    AttackComparison,
    compare_misreport,
    compare_profiles,
    compare_sybil_attack,
)
from repro.attacks.misreport import deviation_grid, misreport, misreport_value
from repro.attacks.search import DeviationCandidate, DeviationReport, best_deviation
from repro.attacks.sybil import IdentitySpec, SybilAttack, apply_attack

__all__ = [
    "Coalition",
    "apply_coalition",
    "compare_coalition",
    "random_price_cartel",
    "IdentitySpec",
    "SybilAttack",
    "apply_attack",
    "misreport",
    "misreport_value",
    "deviation_grid",
    "AttackComparison",
    "compare_profiles",
    "compare_sybil_attack",
    "compare_misreport",
    "DeviationCandidate",
    "DeviationReport",
    "best_deviation",
]
