"""``rit sentinel --report``: the empirical robustness gate.

The harness is the live-attack counterpart of the offline goldens: it
drives pinned seeded scenarios through a full
:class:`~repro.service.service.MechanismService` with a
:class:`~repro.sentinel.plane.SentinelPlane` attached and checks three
properties at once:

* **zero false positives** — the clean pinned scenarios (three graph
  regimes, no withdrawals) must raise no alerts at all;
* **bounded detection latency** — each seeded injection (sybil chain,
  collusion cartel, churn storm) must be flagged by one of its own
  :data:`ATTACK_DETECTORS` within :data:`DEFAULT_DETECTION_BUDGET`
  epochs of its onset;
* **differential safety** — with the sentinel attached, every run's
  served outcomes must stay bit-identical to the offline
  :func:`~repro.service.replay.replay_outcomes` anchor (the detectors
  observe, they never steer).

The clean scenarios deliberately use ``withdraw_fraction=0.0``: the
stock stream generator appends all withdrawals as one tail cohort, which
*is* a churn storm by construction — a useful attack fixture, not a
clean baseline.

``rit sentinel`` prints the report and exits 1 on any problem;
``rit serve --attack …`` prints one run's :func:`attack_result_doc` as
its detection line (:func:`render_detection`).

Like :mod:`repro.service.top`, this is a CLI driver and deliberately
sits outside the RIT007 instrumented-module scopes.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.rit import RIT
from repro.sentinel.attacks import inject_attack
from repro.sentinel.detectors import (
    DepthAnomalyDetector,
    PriceDriftDetector,
    SentinelConfig,
    WinRateDriftDetector,
    WithdrawalSpikeDetector,
)
from repro.sentinel.plane import SentinelPlane
from repro.service.loadgen import seeded_stream
from repro.service.service import SERVING_RIT, MechanismService, ServiceConfig

__all__ = [
    "DEFAULT_DETECTION_BUDGET",
    "ATTACK_DETECTORS",
    "CLEAN_SCENARIOS",
    "ATTACK_SCENARIOS",
    "attack_result_doc",
    "render_detection",
    "run_sentinel_report",
    "render_sentinel_report",
]

#: Epoch budget an injected attack must be detected within (the ``K`` of
#: the acceptance gate); shared by the harness and ``rit serve --attack``.
DEFAULT_DETECTION_BUDGET = 3

#: The detectors whose alerts detect each attack kind: the footprints
#: :mod:`repro.sentinel.detectors` lists.  Any other detector's alert
#: after the onset is reported as unrelated, never as the detection.
ATTACK_DETECTORS: Dict[str, Tuple[str, ...]] = {
    "sybil": (DepthAnomalyDetector.name,),
    "collusion": (PriceDriftDetector.name, WinRateDriftDetector.name),
    "churn": (WithdrawalSpikeDetector.name,),
}

#: The three clean pinned scenarios (one per graph regime).  No
#: withdrawals: see the module docstring.
CLEAN_SCENARIOS = (
    {"name": "clean-twitter", "seed": 5, "users": 300, "types": 3,
     "tasks_per_type": 6, "epoch_max_events": 32, "graph": "twitter"},
    {"name": "clean-watts-strogatz", "seed": 9, "users": 360, "types": 4,
     "tasks_per_type": 8, "epoch_max_events": 32, "graph": "watts-strogatz"},
    {"name": "clean-forest-fire", "seed": 17, "users": 320, "types": 3,
     "tasks_per_type": 7, "epoch_max_events": 28, "graph": "forest-fire"},
)

#: The pinned injections: each rewrites the first clean scenario's stream
#: with one seeded attack burst.
ATTACK_SCENARIOS = (
    {"kind": "sybil", "onset_epoch": 5, "attack_seed": 101},
    {"kind": "collusion", "onset_epoch": 5, "attack_seed": 202},
    {"kind": "churn", "onset_epoch": 5, "attack_seed": 303},
)


def _drive(
    base: Dict[str, Any],
    *,
    attack: Optional[Dict[str, Any]] = None,
    config: Optional[SentinelConfig] = None,
) -> Tuple[SentinelPlane, Any, Optional[Dict[str, Any]], List[str]]:
    """One pinned service run with the sentinel attached.

    Returns ``(plane, report, schedule, differential_problems)``; the
    differential is :meth:`MechanismService.replay_check`.
    """
    seed = int(base["seed"])
    epoch_max_events = int(base["epoch_max_events"])
    job, events = seeded_stream(
        seed,
        int(base["users"]),
        int(base["types"]),
        int(base["tasks_per_type"]),
        graph=str(base["graph"]),
        withdraw_fraction=0.0,
    )
    schedule: Optional[Dict[str, Any]] = None
    if attack is not None:
        events, schedule = inject_attack(
            events,
            job,
            kind=str(attack["kind"]),
            onset_epoch=int(attack["onset_epoch"]),
            epoch_max_events=epoch_max_events,
            seed=int(attack["attack_seed"]),
        )
    plane = SentinelPlane(config)
    service = MechanismService(
        RIT(**SERVING_RIT),
        job,
        ServiceConfig(seed=seed, epoch_max_events=epoch_max_events),
        sentinel=plane,
        meta_extra={"attack": schedule} if schedule is not None else None,
    )
    report = service.serve_stream(events)
    return plane, report, schedule, service.replay_check(report)


def attack_result_doc(
    plane: SentinelPlane,
    schedule: Dict[str, Any],
    *,
    k: int = DEFAULT_DETECTION_BUDGET,
) -> Dict[str, Any]:
    """One attack run's detection record.

    The detection is the first alert of one of the kind's
    :data:`ATTACK_DETECTORS` within ``k`` epochs of the onset.  Alerts at
    or after the onset are counted per detector, apart: ``attributed``
    (the kind's own detectors, at any lag) and ``unrelated`` (the rest).
    """
    onset = int(schedule["onset_epoch"])
    kind = str(schedule["kind"])
    own = ATTACK_DETECTORS[kind]
    detected_epoch: Optional[int] = None
    before_onset = 0
    attributed: Dict[str, int] = {}
    unrelated: Dict[str, int] = {}
    for alert in plane.alerts:
        epoch = int(alert["epoch"])
        name = str(alert["detector"])
        if epoch < onset:
            before_onset += 1
            continue
        counts = attributed if name in own else unrelated
        counts[name] = counts.get(name, 0) + 1
        if detected_epoch is None and name in own and epoch - onset <= k:
            detected_epoch = epoch
    return {
        "kind": kind,
        "onset_epoch": onset,
        "detected_epoch": detected_epoch,
        "epochs_to_detect": (
            None if detected_epoch is None else detected_epoch - onset
        ),
        "alerts_total": plane.alerts_total,
        "alerts_before_onset": before_onset,
        "attributed": attributed,
        "unrelated": unrelated,
        "schedule": dict(schedule),
    }


def _counts(counts: Dict[str, int]) -> str:
    return ", ".join(f"{name}={count}" for name, count in sorted(counts.items()))


def render_detection(entry: Dict[str, Any]) -> str:
    """One :func:`attack_result_doc` as the ``rit serve --attack`` line."""
    detected = entry["detected_epoch"]
    verdict = (
        "NOT detected" if detected is None else
        f"detected at epoch {detected} (+{entry['epochs_to_detect']})"
    )
    line = (
        f"{entry['kind']} injected at epoch {entry['onset_epoch']}, "
        f"{verdict}, {entry['alerts_total']} alert(s)"
    )
    if entry["attributed"]:
        line += f" [{_counts(entry['attributed'])}]"
    if entry["unrelated"]:
        line += f", unrelated [{_counts(entry['unrelated'])}]"
    if entry["alerts_before_onset"]:
        line += f", {entry['alerts_before_onset']} before the onset"
    return line


def run_sentinel_report(
    *,
    smoke: bool = False,
    k: int = DEFAULT_DETECTION_BUDGET,
    config: Optional[SentinelConfig] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run the full gate; returns ``(sentinel_section, problems)``.

    ``problems`` is empty when every clean scenario is alert-free, every
    injection is detected by its own detectors within ``k`` epochs, and
    every run passes the online-vs-offline differential.  ``smoke`` trims to one clean
    scenario and one sybil injection for CI.
    """
    cleans = CLEAN_SCENARIOS[:1] if smoke else CLEAN_SCENARIOS
    attacks = ATTACK_SCENARIOS[:1] if smoke else ATTACK_SCENARIOS
    cfg = config if config is not None else SentinelConfig()
    problems: List[str] = []
    clean_docs: List[Dict[str, Any]] = []
    for base in cleans:
        plane, report, _, diff = _drive(base, config=cfg)
        false_positive_epochs = len(
            {int(alert["epoch"]) for alert in plane.alerts}
        )
        clean_docs.append(
            {
                "scenario": str(base["name"]),
                "seed": int(base["seed"]),
                "graph": str(base["graph"]),
                "epochs": len(report.epochs),
                "alerts_total": plane.alerts_total,
                "false_positive_epochs": false_positive_epochs,
                "differential_ok": not diff,
            }
        )
        if plane.alerts_total:
            problems.append(
                f"clean scenario {base['name']} raised "
                f"{plane.alerts_total} alert(s): "
                f"{[a['detector'] for a in plane.alerts]}"
            )
        problems.extend(
            f"clean scenario {base['name']}: {problem}" for problem in diff
        )
    attack_docs: List[Dict[str, Any]] = []
    base = dict(cleans[0])
    for spec in attacks:
        plane, report, schedule, diff = _drive(base, attack=spec, config=cfg)
        assert schedule is not None
        entry = attack_result_doc(plane, schedule, k=k)
        entry["graph"] = str(base["graph"])
        attack_docs.append(entry)
        if entry["detected_epoch"] is None:
            problems.append(
                f"{spec['kind']} injection at epoch {spec['onset_epoch']} "
                f"not detected within {k} epochs by "
                f"{'/'.join(ATTACK_DETECTORS[spec['kind']])} "
                f"(unrelated alerts: {_counts(entry['unrelated']) or 'none'})"
            )
        if entry["alerts_before_onset"]:
            problems.append(
                f"{spec['kind']} run raised {entry['alerts_before_onset']} "
                "alert(s) before the onset (false positives)"
            )
        problems.extend(
            f"{spec['kind']} run: {problem}" for problem in diff
        )
    section = {
        "config": asdict(cfg),
        "k": k,
        "clean": clean_docs,
        "attacks": attack_docs,
        "detection_within_k": all(
            doc["detected_epoch"] is not None for doc in attack_docs
        ),
        "zero_false_positives": all(
            doc["alerts_total"] == 0 for doc in clean_docs
        ),
    }
    return section, problems


def render_sentinel_report(section: Dict[str, Any]) -> str:
    """Human-readable table of one sentinel section."""
    lines = [
        f"{'scenario':<24}  {'graph':<14}  {'epochs':>6}  {'alerts':>6}"
    ]
    for doc in section["clean"]:
        lines.append(
            f"{doc['scenario']:<24}  {doc['graph']:<14}  "
            f"{doc['epochs']:>6}  {doc['alerts_total']:>6}"
        )
    lines.append("")
    lines.append(
        f"{'attack':<12}  {'onset':>5}  {'detected':>8}  {'Δepochs':>7}  "
        f"{'attributed':<18}  {'unrelated'}"
    )
    for doc in section["attacks"]:
        detected = doc["detected_epoch"]
        lines.append(
            f"{doc['kind']:<12}  {doc['onset_epoch']:>5}  "
            f"{('-' if detected is None else detected):>8}  "
            f"{('-' if doc['epochs_to_detect'] is None else doc['epochs_to_detect']):>7}  "
            f"{_counts(doc['attributed']) or '-':<18}  "
            f"{_counts(doc['unrelated']) or '-'}"
        )
    lines.append("")
    lines.append(
        f"detection within K={section['k']}: {section['detection_within_k']}"
        f" · zero false positives: {section['zero_false_positives']}"
    )
    return "\n".join(lines)
