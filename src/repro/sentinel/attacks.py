"""Seeded adversary injection: rewrite a clean event stream under attack.

The offline attack suite (:mod:`repro.attacks`) describes attacks
declaratively — :class:`~repro.attacks.sybil.SybilAttack` chains,
:class:`~repro.attacks.collusion.Coalition` price cartels — and
materializes them against a frozen ask profile.  :func:`inject_attack`
reuses those same declarations to rewrite a *live* ingestion stream, so
the online and offline planes share one definition of each adversary:

* ``sybil`` — an identity-splitting burst: a seeded victim among the
  already-joined users sprouts a chain of fake identities, declared via
  :meth:`SybilAttack.chain` and materialized as referral + ask event
  pairs.  Offline the chain replaces the victim under its original
  parent (``parent_slot == -1``); online history is immutable, so slot
  ``-1`` re-anchors on the victim itself — the chain grows *under* the
  victim, which is the same Remark 3.1 shape one level deeper.
* ``collusion`` — a colluding referral cohort: a seeded recruiter
  solicits a burst of fresh users who all bid the stream's dominant task
  type at a marked-up price (the §4-A cartel as a
  :class:`Coalition` of joiners, since stateful admission refuses
  re-submissions by existing members).
* ``churn`` — a withdrawal storm: a seeded fraction of the joined users
  withdraws inside one tick window, exercising the subtree-grafting path
  under load.

Every injection is a pure function of ``(events, job, kind, seed, …)``
and returns the rewritten stream plus a JSON-able **schedule** — the
replayable record the service stores in its ledger meta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.exceptions import AttackError, ConfigurationError
from repro.core.rng import as_generator
from repro.core.types import Job
from repro.attacks.collusion import Coalition
from repro.attacks.sybil import SybilAttack
from repro.service.events import (
    AskSubmitted,
    ReferralEdge,
    ServiceEvent,
    Withdrawal,
)

__all__ = ["ATTACK_KINDS", "StreamPrefix", "inject_attack"]

#: The attack kinds ``rit serve --attack`` understands.
ATTACK_KINDS = ("sybil", "collusion", "churn")

#: Fake identities in a sybil chain.
_SYBIL_IDENTITIES = 12
#: Fresh users in a collusion cohort, and their markup over the dominant
#: type's mean honest ask.
_COLLUSION_COHORT = 24
_COLLUSION_MARKUP = 3.0
#: Share of the joined users a churn storm withdraws, and its floor.
_CHURN_FRACTION = 0.25
_CHURN_MIN = 12


@dataclass(frozen=True)
class StreamPrefix:
    """What the adversary can observe at the injection point.

    Attributes
    ----------
    joined:
        User ids with a live ask at the injection point (submission
        order, withdrawals subtracted).
    asks:
        ``{user_id: AskSubmitted}`` — the live ask events (last wins).
    last_tick:
        Tick of the last prefix event (0 on an empty prefix); injected
        events reuse it so the stream's ticks stay non-decreasing.
    next_id:
        First user id guaranteed unused by the *whole* stream, so fake
        identities never collide with honest ids (mirrors
        :func:`repro.attacks.sybil.apply_attack`'s allocation rule).
    """

    joined: Tuple[int, ...]
    asks: Dict[int, AskSubmitted]
    last_tick: int
    next_id: int


def _scan_prefix(events: List[ServiceEvent], position: int) -> StreamPrefix:
    """Fold the clean prefix into the adversary's view of the service."""
    live: Dict[int, AskSubmitted] = {}
    order: List[int] = []
    max_id = 0
    for event in events:
        if isinstance(event, AskSubmitted):
            max_id = max(max_id, event.user_id)
        elif isinstance(event, ReferralEdge):
            max_id = max(max_id, event.parent_id, event.child_id)
        else:
            max_id = max(max_id, event.user_id)
    for event in events[:position]:
        if isinstance(event, AskSubmitted):
            if event.user_id not in live:
                order.append(event.user_id)
            live[event.user_id] = event
        elif isinstance(event, Withdrawal):
            live.pop(event.user_id, None)
    joined = tuple(uid for uid in order if uid in live)
    last_tick = events[position - 1].tick if position > 0 else 0
    return StreamPrefix(
        joined=joined, asks=live, last_tick=last_tick, next_id=max_id + 1
    )


def _dominant_type(prefix: StreamPrefix, job: Job) -> Tuple[int, float]:
    """(most-bid task type, its mean honest ask value) in the prefix."""
    counts: Dict[int, int] = {}
    sums: Dict[int, float] = {}
    for uid in prefix.joined:
        ask = prefix.asks[uid]
        if ask.task_type >= job.num_types:
            continue
        counts[ask.task_type] = counts.get(ask.task_type, 0) + 1
        sums[ask.task_type] = sums.get(ask.task_type, 0.0) + ask.value
    if not counts:
        raise AttackError("no valid asks in the prefix to collude against")
    # Highest population wins; ties break toward the lower type id so the
    # choice is deterministic.
    task_type = min(counts, key=lambda t: (-counts[t], t))
    return task_type, sums[task_type] / counts[task_type]


def _inject_sybil(
    prefix: StreamPrefix, gen
) -> Tuple[List[ServiceEvent], Dict[str, Any]]:
    victim = int(prefix.joined[int(gen.integers(len(prefix.joined)))])
    victim_ask = prefix.asks[victim]
    attack = SybilAttack.chain(
        victim,
        [1] * _SYBIL_IDENTITIES,
        [victim_ask.value] * _SYBIL_IDENTITIES,
    )
    identity_ids = [prefix.next_id + l for l in range(attack.num_identities)]
    burst: List[ServiceEvent] = []
    tick = prefix.last_tick
    for l, spec in enumerate(attack.identities):
        # Offline, slot -1 is the victim's original parent; online the
        # victim's join is history, so the chain hangs under the victim.
        parent = victim if spec.parent_slot == -1 else identity_ids[spec.parent_slot]
        burst.append(
            ReferralEdge(tick=tick, parent_id=parent, child_id=identity_ids[l])
        )
        burst.append(
            AskSubmitted(
                tick=tick,
                user_id=identity_ids[l],
                task_type=victim_ask.task_type,
                capacity=spec.capacity,
                value=spec.value,
            )
        )
    schedule = {
        "victim": victim,
        "identities": identity_ids,
        "task_type": victim_ask.task_type,
        "value": victim_ask.value,
    }
    return burst, schedule


def _inject_collusion(
    prefix: StreamPrefix, gen, job: Job
) -> Tuple[List[ServiceEvent], Dict[str, Any]]:
    recruiter = int(prefix.joined[int(gen.integers(len(prefix.joined)))])
    task_type, honest_value = _dominant_type(prefix, job)
    cartel_value = round(honest_value * _COLLUSION_MARKUP, 6)
    members = tuple(prefix.next_id + i for i in range(_COLLUSION_COHORT))
    # The shared declarative record: the same Coalition shape
    # compare_coalition consumes offline (validates member distinctness
    # and positive override values).
    coalition = Coalition(
        members=members,
        value_overrides={uid: cartel_value for uid in members},
    )
    burst: List[ServiceEvent] = []
    tick = prefix.last_tick
    for uid in coalition.members:
        burst.append(ReferralEdge(tick=tick, parent_id=recruiter, child_id=uid))
        burst.append(
            AskSubmitted(
                tick=tick,
                user_id=uid,
                task_type=task_type,
                capacity=1,
                value=cartel_value,
            )
        )
    schedule = {
        "recruiter": recruiter,
        "members": list(members),
        "task_type": task_type,
        "honest_value": honest_value,
        "cartel_value": cartel_value,
        "markup": _COLLUSION_MARKUP,
    }
    return burst, schedule


def _inject_churn(
    prefix: StreamPrefix, gen
) -> Tuple[List[ServiceEvent], Dict[str, Any]]:
    storm = max(_CHURN_MIN, int(_CHURN_FRACTION * len(prefix.joined)))
    storm = min(storm, len(prefix.joined))
    positions = gen.choice(len(prefix.joined), size=storm, replace=False)
    leavers = [int(prefix.joined[p]) for p in positions.tolist()]
    tick = prefix.last_tick
    burst: List[ServiceEvent] = [
        Withdrawal(tick=tick, user_id=uid) for uid in leavers
    ]
    schedule = {"withdrawn": leavers, "fraction": _CHURN_FRACTION}
    return burst, schedule


def inject_attack(
    events: List[ServiceEvent],
    job: Job,
    *,
    kind: str,
    onset_epoch: int,
    epoch_max_events: int,
    seed: int,
) -> Tuple[List[ServiceEvent], Dict[str, Any]]:
    """Rewrite ``events`` with a seeded attack burst at ``onset_epoch``.

    The burst is spliced at event index ``onset_epoch * epoch_max_events``
    (clamped to the stream) — the point where the count-triggered epoch
    scheduler opens that epoch, assuming the clean prefix admits — so
    detection latency can be measured in epochs from a known onset.  All
    burst events share the preceding event's tick, keeping the stream's
    ticks non-decreasing.

    Returns ``(rewritten_events, schedule)``; the schedule is a JSON-able
    replay record (kind, seed, onset, injected ids/values) that the
    service persists in its ledger meta and ``rit sentinel`` reports
    beside each injection's detection.
    """
    if kind not in ATTACK_KINDS:
        raise ConfigurationError(
            f"unknown attack kind {kind!r}; expected one of {ATTACK_KINDS}"
        )
    if onset_epoch < 0:
        raise ConfigurationError(
            f"onset_epoch must be >= 0, got {onset_epoch}"
        )
    if epoch_max_events <= 0:
        raise ConfigurationError(
            f"epoch_max_events must be positive, got {epoch_max_events}"
        )
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    position = min(len(events), onset_epoch * epoch_max_events)
    prefix = _scan_prefix(events, position)
    if not prefix.joined:
        raise AttackError(
            f"no users joined before epoch {onset_epoch}; "
            "move the onset later or grow the stream"
        )
    gen = as_generator(seed)
    if kind == "sybil":
        burst, detail = _inject_sybil(prefix, gen)
    elif kind == "collusion":
        burst, detail = _inject_collusion(prefix, gen, job)
    else:
        burst, detail = _inject_churn(prefix, gen)
    schedule: Dict[str, Any] = {
        "kind": kind,
        "seed": seed,
        "onset_epoch": onset_epoch,
        "injection_index": position,
        "epoch_max_events": epoch_max_events,
        "injected_events": len(burst),
    }
    schedule.update(detail)
    return events[:position] + burst + events[position:], schedule
