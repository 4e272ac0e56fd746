"""Output checks: pinned digests, the replay differential, the audit.

Every check runs outside the timed window.  A live pass is hashed epoch
by epoch over :func:`repro.service.ledger.canonical_outcome`; an offline
run is hashed per ``RIT.run``.  The digests are compared with the values
pinned in ``pins.json`` for the (workload, seed), which ``pin.py``
computes through the *offline* path (``replay_outcomes`` / ``RIT.run``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.core.audit import audit_outcome
from repro.core.exceptions import MechanismError
from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.service.ledger import canonical_outcome
from repro.service.replay import differential_check, replay_outcomes

__all__ = [
    "PINS_PATH",
    "outcome_digest",
    "stream_digest",
    "load_pins",
    "check_live_replay",
    "check_offline_run",
]

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Offline per-run digests are pinned as this many hex digits each.
RUN_DIGEST_HEX = 16


def _canonical_bytes(outcome: MechanismOutcome) -> bytes:
    return json.dumps(canonical_outcome(outcome), sort_keys=True).encode("utf-8")


def outcome_digest(outcome: MechanismOutcome) -> str:
    """sha256 over one outcome's canonical JSON."""
    return hashlib.sha256(_canonical_bytes(outcome)).hexdigest()


def stream_digest(outcomes: Iterable[MechanismOutcome]) -> str:
    """sha256 over the canonical JSON of every epoch, in epoch order."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(_canonical_bytes(outcome))
        digest.update(b"\n")
    return digest.hexdigest()


def load_pins() -> Dict[str, Dict[str, object]]:
    """``{preset name: {seed: digest or [run digests]}}``."""
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def check_live_replay(served: List[MechanismOutcome], consumed, job, service_seed: int, policy) -> List[str]:
    """Online equals offline: replay the consumed stream through ``RIT.run``."""
    mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
    replayed = replay_outcomes(consumed, job, mechanism, seed=service_seed, policy=policy)
    return differential_check(served, [outcome for _, outcome in replayed])


def check_offline_run(outcome: MechanismOutcome, job, asks) -> Optional[str]:
    """Why an offline run fails its check, or None when it passes."""
    if not outcome.completed:
        return "run voided"
    try:
        audit_outcome(outcome, job, asks)
    except MechanismError as err:
        return f"audit: {err}"
    return None
