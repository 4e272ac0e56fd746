"""``rit sentinel --report``: the empirical robustness gate.

The harness is the live-attack counterpart of the offline goldens: it
drives pinned seeded scenarios through a full
:class:`~repro.service.service.MechanismService` with a
:class:`~repro.sentinel.plane.SentinelPlane` attached and checks three
properties at once:

* **zero false positives** — the clean pinned scenarios (three graph
  regimes, no withdrawals) must raise no alerts at all;
* **bounded detection latency** — each seeded injection (sybil chain,
  collusion cartel, churn storm) must be flagged within
  :data:`DEFAULT_DETECTION_BUDGET` epochs of its onset;
* **differential safety** — with the sentinel attached, every run's
  served outcomes must stay bit-identical to the offline
  :func:`~repro.service.replay.replay_outcomes` anchor (the detectors
  observe, they never steer).

The clean scenarios deliberately use ``withdraw_fraction=0.0``: the
stock stream generator appends all withdrawals as one tail cohort, which
*is* a churn storm by construction — a useful attack fixture, not a
clean baseline.

The result is the schema-validated ``sentinel`` section of
``BENCH_RIT.json`` (:func:`repro.devtools.bench.validate_bench_schema`).
``rit loadgen --attack …`` reports a one-run fragment of the same shape
(:func:`sentinel_section_for_run`) without merging it.

Like :mod:`repro.service.loadgen` and :mod:`repro.service.top`, this is
a bench/CLI harness and deliberately sits outside the RIT007
instrumented-module scopes.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.rit import RIT
from repro.core.rng import spawn_seeds
from repro.sentinel.attacks import inject_attack
from repro.sentinel.detectors import SentinelConfig
from repro.sentinel.plane import SentinelPlane
from repro.service.loadgen import build_scenario, scenario_event_stream
from repro.service.replay import differential_check, replay_outcomes
from repro.service.service import MechanismService, ServiceConfig

__all__ = [
    "DEFAULT_DETECTION_BUDGET",
    "CLEAN_SCENARIOS",
    "ATTACK_SCENARIOS",
    "attack_result_doc",
    "sentinel_section_for_run",
    "run_sentinel_report",
    "render_sentinel_report",
]

#: Epoch budget an injected attack must be detected within (the ``K`` of
#: the acceptance gate); shared by the harness and ``--attack --bench``.
DEFAULT_DETECTION_BUDGET = 3

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

    Returns ``(plane, report, schedule, differential_problems)``.  The
    differential always runs: the consumed stream is replayed offline
    through a plain ``RIT.run`` anchor and compared canonically.
    """
    seed = int(base["seed"])
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(
        int(base["users"]),
        int(base["types"]),
        int(base["tasks_per_type"]),
        scenario_rng,
        graph=str(base["graph"]),
    )
    events = scenario_event_stream(scenario, stream_rng)
    schedule: Optional[Dict[str, Any]] = None
    if attack is not None:
        events, schedule = inject_attack(
            events,
            scenario.job,
            kind=str(attack["kind"]),
            onset_epoch=int(attack["onset_epoch"]),
            epoch_max_events=int(base["epoch_max_events"]),
            seed=int(attack["attack_seed"]),
        )
        schedule["seed"] = int(attack["attack_seed"])
    mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
    service_config = ServiceConfig(
        seed=seed, epoch_max_events=int(base["epoch_max_events"])
    )
    plane = SentinelPlane(config)
    service = MechanismService(
        mechanism,
        scenario.job,
        service_config,
        sentinel=plane,
        meta_extra={"attack": schedule} if schedule is not None else None,
    )
    report = service.serve_stream(events)
    replayed = replay_outcomes(
        report.consumed,
        scenario.job,
        RIT(rng_policy="per-type", round_budget="until-complete"),
        seed=seed,
        policy=service_config.policy(),
    )
    problems = differential_check(
        report.outcomes(), [outcome for _, outcome in replayed]
    )
    return plane, report, schedule, problems


def _detection(
    plane: SentinelPlane, schedule: Dict[str, Any], k: int
) -> Tuple[Optional[int], Optional[int]]:
    """(first detection epoch at/after onset, epochs_to_detect) or Nones."""
    onset = int(schedule["onset_epoch"])
    for alert in plane.alerts:
        epoch = int(alert["epoch"])
        if epoch >= onset:
            return epoch, epoch - onset
    return None, None


def attack_result_doc(
    plane: SentinelPlane,
    schedule: Dict[str, Any],
    *,
    k: int = DEFAULT_DETECTION_BUDGET,
) -> Dict[str, Any]:
    """One attack run as a bench-doc entry (detection latency + counts)."""
    onset = int(schedule["onset_epoch"])
    detected_epoch, epochs_to_detect = _detection(plane, schedule, k)
    before_onset = sum(
        1 for alert in plane.alerts if int(alert["epoch"]) < onset
    )
    return {
        "kind": str(schedule["kind"]),
        "onset_epoch": onset,
        "detected_epoch": detected_epoch,
        "epochs_to_detect": epochs_to_detect,
        "alerts_total": plane.alerts_total,
        "alerts_before_onset": before_onset,
        "detectors": dict(plane.alert_counts),
        "schedule": dict(schedule),
    }


def sentinel_section_for_run(
    plane: SentinelPlane,
    schedule: Dict[str, Any],
    *,
    graph: str = "twitter",
    k: int = DEFAULT_DETECTION_BUDGET,
) -> Dict[str, Any]:
    """The ``sentinel`` section shape for one ``--attack`` loadgen run."""
    entry = attack_result_doc(plane, schedule, k=k)
    entry["graph"] = graph
    detected = (
        entry["epochs_to_detect"] is not None
        and entry["epochs_to_detect"] <= k
    )
    return {
        "config": asdict(plane.config),
        "k": k,
        "clean": [],
        "attacks": [entry],
        "detection_within_k": bool(detected),
        "zero_false_positives": entry["alerts_before_onset"] == 0,
    }


def run_sentinel_report(
    *,
    smoke: bool = False,
    k: int = DEFAULT_DETECTION_BUDGET,
    config: Optional[SentinelConfig] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run the full gate; returns ``(sentinel_section, problems)``.

    ``problems`` is empty when every clean scenario is alert-free, every
    injection is detected within ``k`` epochs, and every run passes the
    online-vs-offline differential.  ``smoke`` trims to one clean
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
        if entry["epochs_to_detect"] is None or entry["epochs_to_detect"] > k:
            problems.append(
                f"{spec['kind']} injection at epoch {spec['onset_epoch']} "
                f"not detected within {k} epochs "
                f"(detected_epoch={entry['detected_epoch']})"
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
            doc["epochs_to_detect"] is not None
            and doc["epochs_to_detect"] <= k
            for doc in attack_docs
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
        f"{'detectors'}"
    )
    for doc in section["attacks"]:
        detectors = ", ".join(
            f"{name}={count}"
            for name, count in sorted(doc["detectors"].items())
        )
        detected = doc["detected_epoch"]
        lines.append(
            f"{doc['kind']:<12}  {doc['onset_epoch']:>5}  "
            f"{('-' if detected is None else detected):>8}  "
            f"{('-' if doc['epochs_to_detect'] is None else doc['epochs_to_detect']):>7}  "
            f"{detectors or '-'}"
        )
    lines.append("")
    lines.append(
        f"detection within K={section['k']}: {section['detection_within_k']}"
        f" · zero false positives: {section['zero_false_positives']}"
    )
    return "\n".join(lines)
