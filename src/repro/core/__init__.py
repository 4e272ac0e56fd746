"""Core of the reproduction: the crowdsensing model and the RIT mechanism.

Submodules
----------
``types``      model value types (Job, Ask, User, Population)
``rng``        explicit randomness management
``consensus``  Goldberg–Hartline consensus rounding primitives
``bounds``     Lemma 6.2/6.3 probability bounds and round budgets
``extract``    Algorithm 2 (unit-ask extraction)
``cra``        Algorithm 1 (collusion-resistant auction round, the oracle)
``engine``     incremental sorted auction engine (the one production path)
``columnar``   immutable ask profile (frozen columns, cached pools)
``payments``   Algorithm 3 payment determination phase
``numeric``    tolerant float comparison for monetary quantities
``rit``        Algorithm 3 (the full RIT mechanism)
``outcome``    mechanism outcome containers and utility accounting
``mechanism``  abstract mechanism interface
``exceptions`` error hierarchy
"""

from repro.core.audit import AuditedMechanism, audit_outcome
from repro.core.bounds import (
    cra_truthful_probability,
    max_rounds,
    min_unit_asks,
    per_type_target,
    rit_truthful_probability,
)
from repro.core.columnar import AskProfile
from repro.core.cra import CRAResult, cra
from repro.core.engine import SortedTypePool, StageTimers, cra_presorted
from repro.core.exceptions import (
    AllocationError,
    AttackError,
    ConfigurationError,
    GraphError,
    MechanismError,
    ModelError,
    ReproError,
    TreeError,
)
from repro.core.extract import UnitAsks, extract
from repro.core.mechanism import Mechanism
from repro.core.numeric import (
    PAYMENT_ATOL,
    PAYMENT_RTOL,
    close,
    is_zero,
    payments_close,
)
from repro.core.outcome import MechanismOutcome, RoundRecord
from repro.core.payments import DEFAULT_DECAY, tree_payments, tree_payments_naive
from repro.core.rit import BUDGET_POLICIES, ENGINES, RIT
from repro.core.types import Ask, Job, Population, TaskType, User

__all__ = [
    "AuditedMechanism",
    "audit_outcome",
    "Ask",
    "AskProfile",
    "Job",
    "Population",
    "TaskType",
    "User",
    "UnitAsks",
    "extract",
    "CRAResult",
    "cra",
    "cra_presorted",
    "SortedTypePool",
    "StageTimers",
    "RIT",
    "BUDGET_POLICIES",
    "ENGINES",
    "Mechanism",
    "MechanismOutcome",
    "RoundRecord",
    "tree_payments",
    "tree_payments_naive",
    "DEFAULT_DECAY",
    "PAYMENT_ATOL",
    "PAYMENT_RTOL",
    "close",
    "is_zero",
    "payments_close",
    "cra_truthful_probability",
    "max_rounds",
    "min_unit_asks",
    "per_type_target",
    "rit_truthful_probability",
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "MechanismError",
    "AllocationError",
    "TreeError",
    "GraphError",
    "AttackError",
]
