"""Ingestion event model for the online mechanism service.

The service consumes an ordered stream of three event kinds, mirroring
what a deployed crowdsensing platform would observe during solicitation
(§4 of the paper): referral edges as users solicit each other, sealed ask
submissions as solicited users join, and withdrawals when a user leaves
before the next auction.  Every event carries a *virtual-time* ``tick``
(non-negative, non-decreasing along a stream) — the epoch scheduler cuts
batches on ticks, never on wall time, so a seeded stream always produces
the same epochs (the determinism contract of :mod:`repro.service`).

Events are frozen: once ingested they are appended to batches and ledgers
that must stay replayable.  Structural validation (does the event parse
into the core model at all?) lives here in :func:`validate_event`;
*stateful* admission (duplicate ask, unknown referrer …) is the state
machine's job (:mod:`repro.service.state`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.exceptions import ModelError
from repro.core.types import INT64_MAX, Job, validate_ask
from repro.tree.incentive_tree import ROOT

__all__ = [
    "AskSubmitted",
    "ReferralEdge",
    "Withdrawal",
    "ServiceEvent",
    "validate_event",
    "event_to_dict",
    "event_from_dict",
]


@dataclass(frozen=True)
class AskSubmitted:
    """User ``user_id`` joins and submits the sealed ask ``(t, k, a)``."""

    tick: int
    user_id: int
    task_type: int
    capacity: int
    value: float


@dataclass(frozen=True)
class ReferralEdge:
    """``parent_id`` solicits ``child_id`` (tree edge, parent may be ROOT)."""

    tick: int
    parent_id: int
    child_id: int


@dataclass(frozen=True)
class Withdrawal:
    """User ``user_id`` leaves; their subtree is grafted onto their parent."""

    tick: int
    user_id: int


ServiceEvent = Union[AskSubmitted, ReferralEdge, Withdrawal]

_KINDS = {
    AskSubmitted: "ask",
    ReferralEdge: "referral",
    Withdrawal: "withdrawal",
}
_BY_KIND = {kind: cls for cls, kind in _KINDS.items()}


def validate_event(event: ServiceEvent, job: Job) -> Optional[str]:
    """Structural-validity reason string, or None when the event is valid.

    Checks only what can be decided without the cumulative state: the
    tick is non-negative, ids are in range (the state keeps them in int64
    columns, so at most :data:`~repro.core.types.INT64_MAX`), and an ask
    passes :func:`repro.core.types.validate_ask` (the rule
    :class:`~repro.core.types.Ask` enforces) for a type the job actually
    requests.  No ``Ask`` is built.
    """
    if event.tick < 0:
        return f"tick must be >= 0, got {event.tick}"
    if isinstance(event, AskSubmitted):
        if event.user_id < 0 or event.user_id > INT64_MAX:  # inline: per ask
            return _id_out_of_range("user_id", event.user_id)
        if event.task_type >= job.num_types:
            return (
                f"task_type {event.task_type} out of range for a job with "
                f"{job.num_types} types"
            )
        return validate_ask(event.task_type, event.capacity, event.value)
    if isinstance(event, ReferralEdge):
        reason = _id_out_of_range("child_id", event.child_id)
        if reason is not None:
            return reason
        if event.parent_id < ROOT:
            return f"parent_id must be >= {ROOT} (ROOT), got {event.parent_id}"
        if event.parent_id > INT64_MAX:
            return f"parent_id must be <= {INT64_MAX}, got {event.parent_id}"
        if event.parent_id == event.child_id:
            return f"self-referral: {event.child_id}"
        return None
    if isinstance(event, Withdrawal):
        return _id_out_of_range("user_id", event.user_id)
    return f"unknown event type {type(event).__name__}"


def _id_out_of_range(name: str, uid: int) -> Optional[str]:
    """Why ``uid`` cannot be a user id (outside ``[0, INT64_MAX]``), or None."""
    if uid < 0:
        return f"{name} must be >= 0, got {uid}"
    if uid > INT64_MAX:
        return f"{name} must be <= {INT64_MAX}, got {uid}"
    return None


def event_to_dict(event: ServiceEvent) -> Dict[str, Any]:
    """Flat JSON-serializable form with a ``kind`` discriminator."""
    out: Dict[str, Any] = {"kind": _KINDS[type(event)]}
    out.update(asdict(event))
    return out


def event_from_dict(data: Mapping[str, Any]) -> ServiceEvent:
    """Inverse of :func:`event_to_dict`; raises ModelError on bad input."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = _BY_KIND.get(str(kind))
    if cls is None:
        raise ModelError(f"unknown service event kind {kind!r}")
    try:
        return cls(**payload)
    except TypeError as err:
        raise ModelError(f"malformed {kind!r} event: {err}") from None
