"""Outcome ledger: persistent, replayable epoch results.

Layout mirrors :class:`repro.simulation.store.ResultStore`
(``<root>/<id>/<file>``), with the run id validated by the same grammar
(:data:`repro.obs.events.RUN_ID_RE`), so ledgers and experiment results
can live under one results root::

    <root>/<run_id>/meta.json      # config, seed, policy — written once
    <root>/<run_id>/epochs.jsonl   # one canonical outcome per line, append

A run never writes into a ledger that already holds epochs
(:meth:`OutcomeLedger.write_meta` refuses), so one file is one run.

``epochs.jsonl`` is opened once, at the first append, and each record is
flushed as it is written, so a reader sees every appended line: the
durability of closing the file after each append, without the reopen.
Neither fsyncs.  :meth:`OutcomeLedger.close` releases the handle; the
service closes its ledger when :meth:`~repro.service.service
.MechanismService.serve` ends.

The per-epoch record stores :func:`canonical_outcome` — the
*reproducible* projection of a :class:`~repro.core.outcome
.MechanismOutcome`: allocation, auction payments, final payments,
completion flag and round diagnostics.  Measured durations
(``elapsed_*``, ``stage_timings``) are deliberately excluded, exactly as
the trace layer excludes ``seconds``-unit counters from canonical event
streams: ledger lines for the same seed and stream must be byte-stable
across machines, so drift between two service runs (or between a service
run and the offline replay) is always a real behavioural difference.

Floats survive the JSON round-trip bit-exactly (Python serializes with
``repr`` shortest-round-trip semantics), so "bit-identical payments"
can be asserted on parsed ledger lines, not just in memory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

from repro.core.exceptions import ConfigurationError
from repro.core.outcome import MechanismOutcome
from repro.obs.events import RUN_ID_RE
from repro.service.epochs import EpochBatch

__all__ = ["canonical_outcome", "OutcomeLedger"]


def canonical_outcome(outcome: MechanismOutcome) -> Dict[str, Any]:
    """The reproducible projection of an outcome, JSON-ready.

    Dict keys become strings (JSON object keys always are); ordering
    follows the outcome's own insertion order, which both the service
    and the offline replay derive from the same admission order.
    """
    return {
        "completed": outcome.completed,
        "allocation": {str(uid): x for uid, x in outcome.allocation.items()},
        "auction_payments": {
            str(uid): p for uid, p in outcome.auction_payments.items()
        },
        "payments": {str(uid): p for uid, p in outcome.payments.items()},
        "rounds": [
            {
                "task_type": r.task_type,
                "round_index": r.round_index,
                "q_before": r.q_before,
                "num_winners": r.num_winners,
                "price": r.price,
                "n_s": r.n_s,
                "overflow_trimmed": r.overflow_trimmed,
            }
            for r in outcome.rounds
        ],
    }


class OutcomeLedger:
    """Append-only JSONL ledger of epoch outcomes for one service run."""

    def __init__(self, root: Union[str, Path], run_id: str) -> None:
        if not RUN_ID_RE.match(run_id):
            raise ConfigurationError(
                f"run_id {run_id!r} must match {RUN_ID_RE.pattern}"
            )
        self.root = Path(root)
        self.run_id = run_id
        self.directory = self.root / run_id
        self.directory.mkdir(parents=True, exist_ok=True)
        self._epochs_path = self.directory / "epochs.jsonl"
        self._meta_path = self.directory / "meta.json"
        #: Set by :meth:`read_epochs` when it dropped a torn last line.
        self.torn_tail = False
        #: ``epochs.jsonl``, open for appending from the first append
        #: until :meth:`close`.
        self._handle: Optional[IO[str]] = None

    @property
    def epochs_path(self) -> Path:
        return self._epochs_path

    @property
    def meta_path(self) -> Path:
        return self._meta_path

    def write_meta(self, meta: Dict[str, Any]) -> None:
        """Record the run configuration (seed, policy, scenario …) once.

        A service writes its meta before its first epoch, so epochs already
        on file belong to an earlier run with the same id (ids are a pure
        function of seed and config).  Raises
        :class:`~repro.core.exceptions.ConfigurationError` then, instead of
        appending a second copy of the run and overwriting its meta.
        """
        if self._epochs_path.exists() and self._epochs_path.stat().st_size:
            raise ConfigurationError(
                f"{self._epochs_path} already holds epoch records; a rerun "
                "would append a second copy of the run"
            )
        with open(self._meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=1, sort_keys=True)
            handle.write("\n")

    def append(self, batch: EpochBatch, outcome: MechanismOutcome) -> None:
        """Append one epoch's canonical record and flush it."""
        record = {
            "epoch": batch.index,
            "batch_events": batch.num_events,
            "first_tick": batch.first_tick,
            "last_tick": batch.last_tick,
            "outcome": canonical_outcome(outcome),
        }
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self._epochs_path, "a", encoding="utf-8")
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")
        handle.flush()

    def close(self) -> None:
        """Close ``epochs.jsonl``; a later append opens it again.

        Closing a closed ledger does nothing.
        """
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def read_meta(self) -> Dict[str, Any]:
        if not self._meta_path.exists():
            raise ConfigurationError(f"no ledger meta at {self._meta_path}")
        return json.loads(self._meta_path.read_text())

    def read_epochs(self) -> List[Dict[str, Any]]:
        """All epoch records, in append order.

        A crash in the middle of :meth:`append` can leave the last line
        half written and without its newline.  Such a line is dropped and
        :attr:`torn_tail` set; any other line that fails to parse raises.
        """
        self.torn_tail = False
        if not self._epochs_path.exists():
            return []
        records: List[Dict[str, Any]] = []
        with open(self._epochs_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                if line.endswith("\n"):
                    records.append(json.loads(line))
                    continue
                # Only the file's last line can lack its newline.
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    self.torn_tail = True
        return records
