"""repro.sentinel — the live adversary plane.

Three layers over the online service (:mod:`repro.service`):

* :mod:`repro.sentinel.attacks` — seeded attack injection rewriting a
  clean ingestion stream into sybil bursts, collusion cohorts and churn
  storms, reusing the offline :mod:`repro.attacks` declarations;
* :mod:`repro.sentinel.detectors` / :mod:`repro.sentinel.plane` —
  streaming rolling-baseline detectors folded over per-epoch metric
  frames, emitting deterministic ``sentinel.alert`` trace spans, the
  ``/alerts`` endpoint and the ``sentinel/…`` gauge surface;
* :mod:`repro.sentinel.reputation` — bit-reproducible per-user
  beta-reputation scores, optionally fed back as a frontend admission
  gate.

:mod:`repro.sentinel.harness` ties them into the ``rit sentinel``
empirical gate: clean pinned scenarios must stay alert-free, each seeded
injection must be flagged by its own detectors within K epochs, and
served outcomes must remain bit-identical to the offline replay with the
plane attached.
"""

from repro.sentinel.attacks import ATTACK_KINDS, StreamPrefix, inject_attack
from repro.sentinel.detectors import (
    DepthAnomalyDetector,
    PriceDriftDetector,
    RollingBaseline,
    SentinelConfig,
    WinRateDriftDetector,
    WithdrawalSpikeDetector,
)
from repro.sentinel.harness import (
    ATTACK_DETECTORS,
    ATTACK_SCENARIOS,
    CLEAN_SCENARIOS,
    DEFAULT_DETECTION_BUDGET,
    attack_result_doc,
    render_detection,
    render_sentinel_report,
    run_sentinel_report,
)
from repro.sentinel.plane import SentinelPlane
from repro.sentinel.reputation import ReputationBook

__all__ = [
    "ATTACK_DETECTORS",
    "ATTACK_KINDS",
    "ATTACK_SCENARIOS",
    "CLEAN_SCENARIOS",
    "DEFAULT_DETECTION_BUDGET",
    "DepthAnomalyDetector",
    "PriceDriftDetector",
    "ReputationBook",
    "RollingBaseline",
    "SentinelConfig",
    "SentinelPlane",
    "StreamPrefix",
    "WinRateDriftDetector",
    "WithdrawalSpikeDetector",
    "attack_result_doc",
    "inject_attack",
    "render_detection",
    "render_sentinel_report",
    "run_sentinel_report",
]
