"""The head-to-head arena: one seeded stream, every mechanism, one scorecard.

The harness replays **one** seeded loadgen stream — a clean variant and
an attacked variant rewritten by :func:`repro.sentinel.attacks
.inject_attack` — through every registered mechanism.  The stream and
the epoch cuts are mechanism-independent: each replay rebuilds the
stream from the same seeds and runs it through the shared
:class:`~repro.service.epochs.EpochPipeline` under the same
:class:`~repro.service.epochs.EpochPolicy`, and the harness fingerprints
every rebuild (sha256 over the canonical event dicts) to *prove* no
mechanism saw different bytes — the cross-mechanism counterpart of the
service's differential gate.

Scorecard semantics (per mechanism, per stream):

* ``tasks_allocated`` / ``total_payment`` / ``auction_payment`` — from
  the mechanism's *definitive* outcome: the last completed epoch for
  ``cumulative`` accounting, the sum of per-epoch outcomes for
  ``incremental`` (see :mod:`repro.arena.protocol`);
* ``platform_utility`` — ``value_per_task · tasks_allocated − total
  payment``, the platform's surplus at its declared per-task valuation;
* ``sybil_gain`` — attacked group utility (victim + injected
  identities, at the victim's reported unit value) minus the victim's
  clean utility: the attacker's profit from running the schedule.  RIT
  must win or tie (smallest gain) for the bench gate to pass;
* ``budget.consistent`` — for mechanisms declaring ``budget_cents``
  (GLT), every settled epoch's payments are re-summed in integer cents
  and must equal the declared budget *exactly*;
* ``latency_seconds`` — per-epoch replay wall time folded into the
  fixed-boundary :class:`repro.obs.metrics.Histogram` family (measured
  on the tracer clock; stripped by :func:`canonical_scorecard`, which
  is what the bit-identical rerun check compares).
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arena.protocol import EpochMechanism
from repro.arena.registry import MECHANISM_NAMES, create_mechanism
from repro.core.exceptions import ConfigurationError
from repro.core.outcome import MechanismOutcome
from repro.core.rng import spawn_seeds
from repro.core.types import Job
from repro.obs.metrics import Histogram, new_histogram
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.sentinel.attacks import ATTACK_KINDS, inject_attack
from repro.service.epochs import EpochPipeline, EpochPolicy, epoch_seed
from repro.service.events import ServiceEvent, event_to_dict
from repro.service.loadgen import build_scenario, scenario_event_stream

__all__ = [
    "ARENA_BENCH_PRESET",
    "ARENA_SMOKE_PRESET",
    "ArenaConfig",
    "build_streams",
    "canonical_scorecard",
    "render_arena_report",
    "replay_stream",
    "run_arena",
    "run_arena_report",
    "stream_fingerprint",
]


@dataclass(frozen=True)
class ArenaConfig:
    """One pinned arena match: stream seeds, epoching, attack, roster."""

    seed: int = 7
    users: int = 320
    types: int = 3
    tasks_per_type: int = 6
    epoch_max_events: int = 32
    graph: str = "twitter"
    value_per_task: float = 10.0
    attack: str = "sybil"
    attack_epoch: int = 5
    # Pinned so the schedule picks a low-cost victim whose sybil chain
    # actually profits under the naive tree-reward rivals (GLT +236,
    # pachira +38.8, mit-referral/lv-moscibroda small positive) while
    # RIT and OMG concede nothing — the paper's comparative claim in
    # one scorecard.  Other seeds mostly pick victims whose chain never
    # clears, collapsing every gain to zero.
    attack_seed: int = 130
    mechanisms: Tuple[str, ...] = MECHANISM_NAMES

    def __post_init__(self) -> None:
        if self.attack not in ATTACK_KINDS:
            raise ConfigurationError(
                f"unknown attack {self.attack!r}; expected one of {ATTACK_KINDS}"
            )
        if not self.mechanisms:
            raise ConfigurationError("an arena needs at least one mechanism")
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))


#: The ``rit arena --bench`` match recorded in ``BENCH_RIT.json``: the
#: full registry roster over the pinned seeded stream.
ARENA_BENCH_PRESET = ArenaConfig()

#: The ``make arena-smoke`` match: the four-mechanism acceptance roster
#: (RIT, both first-class rivals, one §4 baseline) on a smaller stream.
ARENA_SMOKE_PRESET = ArenaConfig(
    users=220,
    tasks_per_type=5,
    epoch_max_events=24,
    attack_epoch=3,
    # On the smaller smoke stream this seed's victim bids low and the
    # sybil chain strictly *loses* under RIT (gain < 0) while every
    # rival holds at zero — a cheap but non-vacuous minimality check.
    attack_seed=115,
    mechanisms=("rit", "omg", "glt", "lv-moscibroda"),
)


def stream_fingerprint(events: Sequence[ServiceEvent]) -> str:
    """sha256 over the canonical JSON event dicts (order-sensitive)."""
    payload = json.dumps(
        [event_to_dict(event) for event in events],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_streams(
    config: ArenaConfig,
) -> Tuple[Job, List[ServiceEvent], List[ServiceEvent], Dict[str, Any]]:
    """``(job, clean stream, attacked stream, attack schedule)``.

    Pure function of the config: the scenario and stream RNGs are
    spawned from ``config.seed`` exactly as ``rit loadgen`` does, and
    the attack splice is seeded by ``config.attack_seed``, so every
    caller — every mechanism's replay, every rerun — reconstructs
    byte-identical streams.
    """
    scenario_rng, stream_rng = spawn_seeds(config.seed, 2)
    scenario = build_scenario(
        config.users,
        config.types,
        config.tasks_per_type,
        scenario_rng,
        graph=config.graph,
    )
    clean = scenario_event_stream(scenario, stream_rng)
    attacked, schedule = inject_attack(
        clean,
        scenario.job,
        kind=config.attack,
        onset_epoch=config.attack_epoch,
        epoch_max_events=config.epoch_max_events,
        seed=config.attack_seed,
    )
    schedule["seed"] = config.attack_seed
    return scenario.job, clean, attacked, schedule


def replay_stream(
    job: Job,
    events: Sequence[ServiceEvent],
    mechanism: EpochMechanism,
    *,
    seed: int,
    policy: EpochPolicy,
    latency: Optional[Histogram] = None,
    tracer: NullTracer = NULL_TRACER,
) -> List[Tuple[int, MechanismOutcome]]:
    """Replay one admitted stream through one mechanism, epoch by epoch.

    Mirrors :func:`repro.service.replay.replay_outcomes` — same pipeline,
    same per-epoch pure seeds — generalized over the
    :class:`EpochMechanism` contract.  The mechanism is re-instanced via
    :meth:`~EpochMechanism.fresh` so replays never leak state into each
    other, and per-epoch wall time is folded into ``latency`` (measured
    on the tracer's injected clock).
    """
    runner = mechanism.with_tracer(tracer).fresh()
    results: List[Tuple[int, MechanismOutcome]] = []
    with tracer.span("arena.replay", mechanism=mechanism.mechanism_id):
        tracer.count("arena_replays")
        for snapshot in EpochPipeline(job, policy).snapshots(events):
            t0 = tracer.clock()
            outcome = runner.run_epoch(
                job,
                snapshot.asks,
                snapshot.tree,
                epoch_seed(seed, snapshot.batch.index),
                snapshot.batch.index,
            )
            if latency is not None:
                latency.observe(tracer.clock() - t0)
            tracer.count("arena_epochs_run")
            results.append((snapshot.batch.index, outcome))
    return results


def _definitive(
    mechanism: EpochMechanism,
    epochs: Sequence[Tuple[int, MechanismOutcome]],
) -> MechanismOutcome:
    """Collapse per-epoch outcomes into the mechanism's final word."""
    if not epochs:
        return MechanismOutcome(completed=False)
    if mechanism.accounting == "cumulative":
        settled = [o for _, o in epochs if o.completed]
        return settled[-1] if settled else epochs[-1][1]
    allocation: Dict[int, int] = {}
    auction: Dict[int, float] = {}
    payments: Dict[int, float] = {}
    for _, outcome in epochs:
        for uid, units in outcome.allocation.items():
            allocation[uid] = allocation.get(uid, 0) + units
        for uid, pay in outcome.auction_payments.items():
            auction[uid] = auction.get(uid, 0.0) + pay
        for uid, pay in outcome.payments.items():
            payments[uid] = payments.get(uid, 0.0) + pay
    return MechanismOutcome(
        allocation=allocation,
        auction_payments=auction,
        payments=payments,
        completed=epochs[-1][1].completed,
        rounds=[],
    )


def _stream_doc(
    mechanism: EpochMechanism,
    epochs: Sequence[Tuple[int, MechanismOutcome]],
    final: MechanismOutcome,
    fingerprint: str,
    value_per_task: float,
) -> Dict[str, Any]:
    tasks = sum(final.allocation.values())
    paid = sum(final.payments.values())
    return {
        "epochs": len(epochs),
        "completed_epochs": sum(1 for _, o in epochs if o.completed),
        "stream_sha256": fingerprint,
        "tasks_allocated": int(tasks),
        "total_payment": float(paid),
        "auction_payment": float(sum(final.auction_payments.values())),
        "platform_utility": float(value_per_task * tasks - paid),
        "completed": bool(final.completed),
    }


def _budget_doc(
    mechanism: EpochMechanism,
    *epoch_runs: Sequence[Tuple[int, MechanismOutcome]],
) -> Dict[str, Any]:
    """Exact integer-cent budget audit over every settled epoch."""
    if mechanism.budget_cents is None:
        return {"checked": False, "consistent": True, "budget_cents": None}
    consistent = True
    for epochs in epoch_runs:
        for _, outcome in epochs:
            if not outcome.completed:
                continue
            cents = sum(int(round(pay * 100)) for pay in outcome.payments.values())
            if cents != mechanism.budget_cents:
                consistent = False
    return {
        "checked": True,
        "consistent": consistent,
        "budget_cents": mechanism.budget_cents,
    }


def _group_utility(
    outcome: MechanismOutcome, members: Sequence[int], unit_value: float
) -> float:
    return sum(outcome.utility_of(uid, unit_value) for uid in members)


def run_arena(
    config: ArenaConfig = ARENA_BENCH_PRESET,
    *,
    tracer: NullTracer = NULL_TRACER,
) -> Dict[str, Any]:
    """Replay the configured match and return the scorecard document.

    Streams are rebuilt (and fingerprinted) once per mechanism: matching
    fingerprints across the whole scorecard are the proof that the
    seeded attack schedule injects identically no matter which mechanism
    consumes it.
    """
    with tracer.span("arena.match", attack=config.attack):
        job, clean, attacked, schedule = build_streams(config)
        clean_sha = stream_fingerprint(clean)
        attacked_sha = stream_fingerprint(attacked)
        policy = EpochPolicy(max_events=config.epoch_max_events)
        victim = int(schedule["victim"]) if "victim" in schedule else None
        identities = [int(uid) for uid in schedule.get("identities", [])]
        unit_value = float(schedule.get("value", 0.0))

        mechanisms: Dict[str, Any] = {}
        gains: Dict[str, float] = {}
        for name in config.mechanisms:
            mechanism = create_mechanism(name)
            # Rebuild per mechanism: a mechanism cannot perturb the next
            # one's stream, and the fingerprints prove it saw the match
            # reference bytes (satellite: attack-injection identity).
            m_job, m_clean, m_attacked, _ = build_streams(config)
            lat_clean = new_histogram("arena_epoch_seconds")
            lat_attacked = new_histogram("arena_epoch_seconds")
            clean_epochs = replay_stream(
                m_job, m_clean, mechanism,
                seed=config.seed, policy=policy, latency=lat_clean, tracer=tracer,
            )
            attacked_epochs = replay_stream(
                m_job, m_attacked, mechanism,
                seed=config.seed, policy=policy, latency=lat_attacked, tracer=tracer,
            )
            clean_final = _definitive(mechanism, clean_epochs)
            attacked_final = _definitive(mechanism, attacked_epochs)
            entry: Dict[str, Any] = {
                "accounting": mechanism.accounting,
                "clean": _stream_doc(
                    mechanism, clean_epochs, clean_final,
                    stream_fingerprint(m_clean), config.value_per_task,
                ),
                "attacked": _stream_doc(
                    mechanism, attacked_epochs, attacked_final,
                    stream_fingerprint(m_attacked), config.value_per_task,
                ),
                "budget": _budget_doc(mechanism, clean_epochs, attacked_epochs),
                "latency_seconds": {
                    "clean": lat_clean.summary(),
                    "attacked": lat_attacked.summary(),
                },
            }
            if victim is not None:
                gain = _group_utility(
                    attacked_final, [victim] + identities, unit_value
                ) - _group_utility(clean_final, [victim], unit_value)
                entry["sybil_gain"] = float(gain)
                gains[name] = float(gain)
            mechanisms[name] = entry

        doc: Dict[str, Any] = {
            "config": asdict(config) | {"mechanisms": list(config.mechanisms)},
            "stream": {
                "clean_sha256": clean_sha,
                "attacked_sha256": attacked_sha,
                "clean_events": len(clean),
                "attacked_events": len(attacked),
                "schedule": schedule,
            },
            "mechanisms": mechanisms,
            "sybil_gains": gains,
        }
        if "rit" in gains:
            doc["rit_sybil_gain_minimal"] = bool(
                all(gains["rit"] <= gain for gain in gains.values())
            )
    return doc


def canonical_scorecard(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The reproducible projection: the scorecard minus measured timings.

    Everything else — allocations, payments, fingerprints, gains — must
    be bit-identical across reruns; wall-clock latency legitimately
    varies, so the determinism check compares this projection.
    """
    out = copy.deepcopy(doc)
    for entry in out.get("mechanisms", {}).values():
        entry.pop("latency_seconds", None)
    out.pop("determinism", None)
    return out


def run_arena_report(
    config: ArenaConfig = ARENA_BENCH_PRESET,
    *,
    runs: int = 2,
    tracer: NullTracer = NULL_TRACER,
) -> Tuple[Dict[str, Any], List[str]]:
    """The bench gate: ``runs`` full replays, checked for bit-identity.

    Returns ``(section, problems)`` — the ``arena`` section for
    ``BENCH_RIT.json`` plus human-readable gate violations (empty list ⇒
    the match passes).
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    docs = [run_arena(config, tracer=tracer) for _ in range(runs)]
    canonicals = [
        json.dumps(canonical_scorecard(doc), sort_keys=True, separators=(",", ":"))
        for doc in docs
    ]
    bit_identical = all(text == canonicals[0] for text in canonicals)
    section = docs[0]
    section["determinism"] = {
        "runs": runs,
        "bit_identical": bit_identical,
        "canonical_sha256": hashlib.sha256(
            canonicals[0].encode("utf-8")
        ).hexdigest(),
    }

    problems: List[str] = []
    if not bit_identical:
        problems.append(f"scorecard not bit-identical across {runs} runs")
    if "rit" not in section["mechanisms"]:
        problems.append("the arena roster must include 'rit'")
    if not section.get("rit_sybil_gain_minimal", False):
        gains = section.get("sybil_gains", {})
        problems.append(
            f"rit sybil gain is not minimal across the roster: {gains}"
        )
    reference = section["stream"]
    for name, entry in section["mechanisms"].items():
        if entry["clean"]["stream_sha256"] != reference["clean_sha256"]:
            problems.append(f"{name}: clean stream fingerprint diverged")
        if entry["attacked"]["stream_sha256"] != reference["attacked_sha256"]:
            problems.append(f"{name}: attacked stream fingerprint diverged")
        budget = entry["budget"]
        if budget["checked"] and not budget["consistent"]:
            problems.append(
                f"{name}: settled epoch payments != declared budget_cents"
            )
    return section, problems


def render_arena_report(section: Dict[str, Any]) -> str:  # rit: noqa[RIT013] — pure string formatting, no measured work
    """Human-readable scorecard table for ``rit arena``."""
    lines: List[str] = []
    stream = section["stream"]
    config = section["config"]
    lines.append(
        f"arena: seed={config['seed']} users={config['users']} "
        f"attack={config['attack']}@epoch{config['attack_epoch']} "
        f"events clean={stream['clean_events']} "
        f"attacked={stream['attacked_events']}"
    )
    header = (
        f"{'mechanism':<14} {'acct':<11} {'tasks':>5} {'payment':>10} "
        f"{'platform':>10} {'sybil_gain':>10} {'budget':>7} {'p50 ms':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in section["mechanisms"].items():
        attacked = entry["attacked"]
        budget = entry["budget"]
        budget_text = (
            "exact" if budget["checked"] and budget["consistent"]
            else ("FAIL" if budget["checked"] else "-")
        )
        p50 = entry["latency_seconds"]["attacked"].get("p50", 0.0) * 1000.0
        lines.append(
            f"{name:<14} {entry['accounting']:<11} "
            f"{attacked['tasks_allocated']:>5} "
            f"{attacked['total_payment']:>10.2f} "
            f"{attacked['platform_utility']:>10.2f} "
            f"{entry.get('sybil_gain', 0.0):>10.2f} "
            f"{budget_text:>7} {p50:>8.3f}"
        )
    determinism = section.get("determinism")
    if determinism:
        lines.append(
            f"determinism: runs={determinism['runs']} "
            f"bit_identical={determinism['bit_identical']} "
            f"sha256={determinism['canonical_sha256'][:16]}…"
        )
    if "rit_sybil_gain_minimal" in section:
        lines.append(
            f"rit sybil gain minimal: {section['rit_sybil_gain_minimal']}"
        )
    return "\n".join(lines)
