"""Online mechanism serving: epoch-batched RIT over an ingestion stream.

The subsystem turns the batch mechanism into a service::

    events ──▶ IngestFrontend ──▶ EpochPipeline ──▶ epoch worker ──▶ ledger
               bounded queue,     admission +       one RIT.run       JSONL,
               backpressure       epoch cutting     per epoch         replayable

Determinism contract: for a fixed root seed and admitted event stream,
the sequence of epoch outcomes is bit-identical to running the offline
``RIT.run`` over the cumulative state at each epoch close, under either
RNG policy — regardless of queue timing, thread scheduling, or
event-loop interleaving.  :mod:`repro.service.replay` checks exactly
this.  See ``docs/service.md`` for the architecture write-up.
"""

from repro.service.epochs import (
    BatchAccumulator,
    EpochBatch,
    EpochPipeline,
    EpochPolicy,
    EpochSnapshot,
    epoch_seed,
)
from repro.service.events import (
    AskSubmitted,
    ReferralEdge,
    ServiceEvent,
    Withdrawal,
    event_from_dict,
    event_to_dict,
    validate_event,
)
from repro.service.frontend import IngestFrontend
from repro.service.ledger import OutcomeLedger, canonical_outcome
from repro.service.loadgen import (
    build_scenario,
    run_service_bench,
    scenario_event_stream,
)
from repro.service.replay import differential_check, replay_outcomes
from repro.service.service import (
    EpochResult,
    MechanismService,
    ServiceConfig,
    ServiceReport,
)
from repro.service.http import MetricsServer, http_get
from repro.service.state import ServiceState, StateSnapshot
from repro.service.telemetry import WIN_RATE_DEPTH_CAP, ServiceTelemetry, epoch_gauges
from repro.service.top import frames_from_trace, render_frames, run_top
from repro.service.workers import run_epoch

__all__ = [
    "AskSubmitted",
    "ReferralEdge",
    "Withdrawal",
    "ServiceEvent",
    "validate_event",
    "event_to_dict",
    "event_from_dict",
    "ServiceState",
    "StateSnapshot",
    "EpochPolicy",
    "EpochBatch",
    "BatchAccumulator",
    "EpochSnapshot",
    "EpochPipeline",
    "epoch_seed",
    "IngestFrontend",
    "OutcomeLedger",
    "canonical_outcome",
    "ServiceTelemetry",
    "WIN_RATE_DEPTH_CAP",
    "epoch_gauges",
    "MetricsServer",
    "http_get",
    "frames_from_trace",
    "render_frames",
    "run_top",
    "run_epoch",
    "ServiceConfig",
    "EpochResult",
    "ServiceReport",
    "MechanismService",
    "replay_outcomes",
    "differential_check",
    "scenario_event_stream",
    "build_scenario",
    "run_service_bench",
]
