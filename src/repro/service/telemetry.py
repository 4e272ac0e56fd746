"""The live service telemetry plane: per-epoch frames over shared metrics.

One :class:`ServiceTelemetry` instance rides along a
:class:`~repro.service.service.MechanismService` run and aggregates the
instrumented observations three ways:

* **cumulative histograms** (ingest admission latency, epoch
  close-to-outcome latency, queue depth, batch sizes) —
  :class:`repro.obs.metrics.Histogram` instances over the registry's
  fixed bucket boundaries, so two service runs merge bit-identically;
* **last-write-wins gauges** — the per-epoch win-rate surface
  (``win_rate/depth<k>``), referral-depth extremes and participant
  counts, recomputed at every epoch close as a pure function of the
  outcome and the epoch's BFS view (deterministic, canonical);
* a **bounded ring of per-epoch frames** — the epoch-over-epoch view
  served by ``GET /epochs`` and rendered by ``rit top``; the ring is
  bounded (``ring_size``) so a long-running service cannot grow without
  limit.

The telemetry plane is deliberately independent of the tracer: it works
on untraced runs (``rit loadgen --bench`` builds its ``service_slo``
section from :meth:`ServiceTelemetry.slo_summary`), and when a recording
tracer *is* attached the service mirrors every observation into
``distribution`` events so traces stay the single replayable record.
All mutation happens on the event-loop thread (single-writer).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Mapping, Optional

import numpy as np

from repro.core.outcome import MechanismOutcome
from repro.obs.metrics import Histogram, describe_metric, new_histogram
from repro.tree.incentive_tree import BFSView

__all__ = ["ServiceTelemetry", "WIN_RATE_DEPTH_CAP", "epoch_gauges"]

#: Deepest distinct ``win_rate/depth<k>`` gauge; deeper participants fold
#: into the cap level so gauge cardinality stays bounded however deep a
#: (possibly sybil-inflated) solicitation chain grows.
WIN_RATE_DEPTH_CAP = 8

#: The cumulative histograms every service run maintains.
_SERVICE_HISTOGRAMS = (
    "ingest_admit_seconds",
    "epoch_close_to_outcome_seconds",
    "ingest_queue_depth",
    "epoch_batch_events",
)


def epoch_gauges(outcome: MechanismOutcome, view: BFSView) -> Dict[str, float]:
    """The per-epoch gauge surface: a pure function of outcome + tree view.

    Returns a name-sorted dict so both the telemetry plane and the
    mirrored ``distribution`` events see one deterministic order:

    * ``epoch_participants`` — joined users at epoch close;
    * ``referral_depth_max`` / ``referral_depth_mean`` — solicitation
      chain extremes (0 when nobody joined);
    * ``win_rate/depth<k>`` for each populated depth (capped at
      :data:`WIN_RATE_DEPTH_CAP`) — the fraction of that depth's
      participants who won at least one task.
    """
    n = len(view)
    gauges: Dict[str, float] = {
        "epoch_participants": float(n),
        "referral_depth_max": float(view.max_depth),
        "referral_depth_mean": int(view.depth.sum()) / n if n else 0.0,
    }
    winners = np.fromiter(
        (uid for uid, tasks in outcome.allocation.items() if tasks > 0),
        dtype=np.int64,
    )
    won = view.positions(winners)
    levels = np.minimum(view.depth[won[won >= 0]], WIN_RATE_DEPTH_CAP)
    won_at_depth = np.bincount(levels, minlength=WIN_RATE_DEPTH_CAP + 1)
    bounds = view.level_bounds
    for level in range(1, min(view.max_depth, WIN_RATE_DEPTH_CAP) + 1):
        # The cap level holds every deeper level too.
        top = level + 1 if level < WIN_RATE_DEPTH_CAP else len(bounds)
        population = bounds[top - 1] - bounds[level - 1]
        gauges[f"win_rate/depth{level}"] = (
            int(won_at_depth[level]) / population
        )
    return dict(sorted(gauges.items()))


class ServiceTelemetry:
    """Aggregated live metrics of one service run (single-writer)."""

    def __init__(self, *, ring_size: int = 64) -> None:
        if ring_size <= 0:
            raise ValueError(f"ring_size must be positive, got {ring_size}")
        self.histograms: Dict[str, Histogram] = {
            name: new_histogram(name) for name in _SERVICE_HISTOGRAMS
        }
        #: Last-write-wins gauges, ``name -> {"value", "unit"}``.
        self.gauges: Dict[str, Dict[str, Any]] = {}
        #: Bounded per-epoch frame ring, oldest first.
        self.frames: Deque[Dict[str, Any]] = deque(maxlen=ring_size)
        self.epochs_closed = 0
        self.events_applied = 0
        self.events_refused = 0
        #: ``idle`` → ``serving`` → ``drained`` (drives ``/readyz``).
        self.phase = "idle"

    # ------------------------------------------------------------------ #
    # Observation points (called from the instrumented service modules)
    # ------------------------------------------------------------------ #

    def observe_admit(self, seconds: float) -> None:
        """One frontend admission (validate + enqueue) completed."""
        self.histograms["ingest_admit_seconds"].observe(seconds)

    def observe_queue_depth(self, depth: int) -> None:
        """Ingestion-queue occupancy sampled at a successful enqueue."""
        self.histograms["ingest_queue_depth"].observe(depth)

    def close_epoch(
        self,
        *,
        index: int,
        batch_events: int,
        users: int,
        latency_seconds: float,
        outcome: MechanismOutcome,
        view: BFSView,
    ) -> Dict[str, Any]:
        """Fold one executed epoch into the plane; returns its frame.

        The frame carries the measured latencies plus the deterministic
        gauge surface (:func:`epoch_gauges`); the same gauge dict is
        stored last-write-wins for the ``/metrics`` exposition.
        """
        self.histograms["epoch_close_to_outcome_seconds"].observe(latency_seconds)
        self.histograms["epoch_batch_events"].observe(batch_events)
        gauges = epoch_gauges(outcome, view)
        for name, value in gauges.items():
            spec = describe_metric(name)
            unit = spec.unit if spec is not None else "count"
            self.gauges[name] = {"value": value, "unit": unit}
        frame = {
            "epoch": index,
            "batch_events": batch_events,
            "users": users,
            "latency_seconds": latency_seconds,
            "completed": bool(outcome.completed),
            "gauges": gauges,
        }
        self.frames.append(frame)
        self.epochs_closed += 1
        return frame

    # ------------------------------------------------------------------ #
    # Aggregated views
    # ------------------------------------------------------------------ #

    def counters_snapshot(
        self, extra: Optional[Mapping[str, int]] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Counter-shaped view of the plane's running totals.

        ``extra`` lets the service splice in frontend admission totals
        (offered/accepted/…) so the export works on untraced runs; every
        name must still resolve in the counter catalog.
        """
        totals: Dict[str, int] = {
            "service_events_applied": self.events_applied,
            "service_events_refused": self.events_refused,
            "service_epochs_closed": self.epochs_closed,
        }
        for name, value in (extra or {}).items():
            totals[name] = int(value)
        return {
            name: {"value": value, "unit": "count"}
            for name, value in totals.items()
        }

    def slo_summary(self) -> Dict[str, Any]:
        """The ``service_slo`` section of ``BENCH_RIT.json``.

        Quantiles come from the fixed-boundary histograms (interpolated,
        clamped to exact extremes — see :mod:`repro.obs.metrics`), so the
        document is schema-stable even on degenerate runs.
        """
        return {
            "epochs_closed": self.epochs_closed,
            "ingest": self.histograms["ingest_admit_seconds"].summary(),
            "epoch": self.histograms["epoch_close_to_outcome_seconds"].summary(),
            "queue_depth": self.histograms["ingest_queue_depth"].summary(),
            "batch_events": self.histograms["epoch_batch_events"].summary(),
        }

    def recent_frames(self) -> list:
        """The per-epoch ring, oldest first (the ``/epochs`` payload)."""
        return list(self.frames)
