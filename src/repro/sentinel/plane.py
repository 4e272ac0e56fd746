"""The sentinel plane: streaming detection riding along a service run.

A :class:`SentinelPlane` is attached to a
:class:`~repro.service.service.MechanismService` beside the telemetry
plane.  It is a *read-only observer* of the served stream by default:

* every **applied** event flows through :meth:`observe_applied`
  (withdrawal counting, per-epoch ask-price accumulation, reputation
  penalties);
* every **epoch close** flows through :meth:`close_epoch` with the
  outcome, the participants' id column and the deterministic gauge
  surface — the
  detectors fold the signals against their rolling baselines and the
  reputation book folds the winners/losers.

Alerts are deterministic ``sentinel.alert`` spans (plus the cataloged
``sentinel_alerts`` counter) in the canonical trace, retained in a
bounded ring for the ``/alerts`` endpoint and ``rit top``.  The
reputation aggregate is exposed as the ``sentinel/…`` gauge surface on
``/metrics``.

The one write path is opt-in: :meth:`admission_gate` returns a frontend
gatekeeper when ``config.admission_floor`` is set, refusing asks from
users whose trust score fell below the floor.  The gate runs *before*
the ingestion queue, so gated events never reach the consumed stream and
the online-vs-offline differential stays valid by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

import numpy as np

from repro.core.outcome import MechanismOutcome
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.sentinel.detectors import (
    DepthAnomalyDetector,
    PriceDriftDetector,
    SentinelConfig,
    WinRateDriftDetector,
    WithdrawalSpikeDetector,
)
from repro.sentinel.reputation import ReputationBook
from repro.service.events import (
    EVENT_CLASSES,
    AskSubmitted,
    ServiceEvent,
    Withdrawal,
    event_class,
)

__all__ = ["SentinelPlane"]


class SentinelPlane:
    """Streaming detectors + reputation folded over one service run."""

    def __init__(
        self,
        config: Optional[SentinelConfig] = None,
        *,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        self.config = config if config is not None else SentinelConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.depth_detector = DepthAnomalyDetector(self.config)
        self.win_rate_detector = WinRateDriftDetector(self.config)
        self.withdrawal_detector = WithdrawalSpikeDetector(self.config)
        self.price_detector = PriceDriftDetector(self.config)
        self.reputation = ReputationBook(
            withdrawal_penalty=self.config.reputation_penalty
        )
        #: Bounded alert ring, oldest first (the ``/alerts`` payload).
        self.alerts: Deque[Dict[str, Any]] = deque(maxlen=self.config.alert_ring)
        self.alerts_total = 0
        #: Per-detector lifetime alert counts (deterministic insertion order).
        self.alert_counts: Dict[str, int] = {}
        self.epochs_seen = 0
        self.gated = 0
        #: Last-write-wins sentinel gauges, ``name -> {"value", "unit"}``.
        self.gauges: Dict[str, Dict[str, Any]] = {}
        # Per-epoch accumulators, reset at every close.
        self._epoch_withdrawals = 0
        self._epoch_ask_value_sum = 0.0
        self._epoch_asks = 0

    # ------------------------------------------------------------------ #
    # Observation points
    # ------------------------------------------------------------------ #

    # Instrumented by its sole caller: MechanismService.serve runs it per
    # applied event inside the 'service' span; a span per event here
    # would dwarf the two additions it makes.
    def observe_applied(  # rit: noqa[RIT013]
        self, event: ServiceEvent
    ) -> None:
        """Fold one event the state machine applied into the open epoch."""
        kind = type(event)
        if kind not in EVENT_CLASSES:
            kind = event_class(event)
        if kind is AskSubmitted:
            self._epoch_asks += 1
            self._epoch_ask_value_sum += event.value
        elif kind is Withdrawal:
            self._epoch_withdrawals += 1
            self.reputation.observe_withdrawal(event.user_id)

    def close_epoch(  # rit: noqa[RIT013] — tracer guarded, cold per epoch
        self,
        *,
        index: int,
        outcome: MechanismOutcome,
        participants: np.ndarray,
        gauges: Mapping[str, float],
    ) -> List[Dict[str, Any]]:
        """Fold one executed epoch; returns the alerts it raised.

        ``participants`` holds the epoch's joined user ids in admission
        order (the snapshot's ``uids`` column).
        """
        tracer = self.tracer
        tracing = tracer.enabled
        sid = -1
        if tracing:
            sid = tracer.begin("sentinel", epoch=index)
        try:
            alerts = self._detect(index, gauges)
            winners = [
                uid for uid, tasks in outcome.allocation.items() if tasks > 0
            ]
            self.reputation.observe_epoch(participants, winners)
            summary = self.reputation.summary(self.config.reputation_floor)
            self.gauges = {
                "sentinel/reputation_mean": {
                    "value": summary["mean"], "unit": "ratio",
                },
                "sentinel/reputation_min": {
                    "value": summary["minimum"], "unit": "ratio",
                },
                "sentinel/flagged_users": {
                    "value": summary["flagged"], "unit": "count",
                },
            }
            for alert in alerts:
                self.alerts.append(alert)
                self.alerts_total += 1
                self.alert_counts[alert["detector"]] = (
                    self.alert_counts.get(alert["detector"], 0) + 1
                )
                if tracing:
                    aid = tracer.begin(
                        "sentinel.alert",
                        detector=alert["detector"],
                        epoch=alert["epoch"],
                        value=alert["value"],
                        baseline=alert["baseline"],
                        threshold=alert["threshold"],
                    )
                    tracer.count("sentinel_alerts")
                    tracer.end(aid)
            if tracing:
                tracer.observe(
                    "sentinel/reputation_mean", summary["mean"], epoch=index
                )
                tracer.observe(
                    "sentinel/reputation_min", summary["minimum"], epoch=index
                )
                tracer.observe(
                    "sentinel/flagged_users", summary["flagged"], epoch=index
                )
        finally:
            if tracing:
                tracer.end(sid)
        self._epoch_withdrawals = 0
        self._epoch_ask_value_sum = 0.0
        self._epoch_asks = 0
        self.epochs_seen += 1
        return alerts

    def _detect(
        self, index: int, gauges: Mapping[str, float]
    ) -> List[Dict[str, Any]]:
        """Run every detector against this epoch's signals, in fixed order."""
        alerts: List[Dict[str, Any]] = []
        depth_alert = self.depth_detector.update(
            index, gauges.get("referral_depth_max", 0.0)
        )
        if depth_alert is not None:
            alerts.append(depth_alert)
        win_rates = {
            name: value
            for name, value in gauges.items()
            if name.startswith("win_rate/")
        }
        drift_alert = self.win_rate_detector.update(index, win_rates)
        if drift_alert is not None:
            alerts.append(drift_alert)
        spike_alert = self.withdrawal_detector.update(
            index, self._epoch_withdrawals
        )
        if spike_alert is not None:
            alerts.append(spike_alert)
        mean_value = (
            self._epoch_ask_value_sum / self._epoch_asks
            if self._epoch_asks
            else 0.0
        )
        price_alert = self.price_detector.update(
            index, mean_value, self._epoch_asks
        )
        if price_alert is not None:
            alerts.append(price_alert)
        return alerts

    # ------------------------------------------------------------------ #
    # Feedback and views
    # ------------------------------------------------------------------ #

    def admission_gate(self) -> Optional[Callable[[ServiceEvent], Optional[str]]]:
        """The frontend gatekeeper, or None while the knob is off.

        Only asks are gated (referrals and withdrawals always pass), and
        only for users with an observed history below the floor — a
        fresh user's 0.5 prior always clears any valid floor.
        """
        floor = self.config.admission_floor
        if floor is None:
            return None

        def gate(event: ServiceEvent) -> Optional[str]:
            if not isinstance(event, AskSubmitted):
                return None
            score = self.reputation.score(event.user_id)
            if score is not None and score < floor:
                self.gated += 1
                return (
                    f"reputation {score:.4f} below admission floor {floor}"
                )
            return None

        return gate

    def last_alert(self) -> Optional[Dict[str, Any]]:
        return self.alerts[-1] if self.alerts else None

    def status(self) -> Dict[str, Any]:
        """Compact live view for ``/epochs`` frames and ``rit top``."""
        return {
            "epochs_seen": self.epochs_seen,
            "alerts_total": self.alerts_total,
            "alert_counts": dict(self.alert_counts),
            "gated": self.gated,
            "last_alert": self.last_alert(),
        }

    def alerts_snapshot(self) -> Dict[str, Any]:
        """The ``/alerts`` payload: ring + reputation aggregate."""
        summary = self.reputation.summary(self.config.reputation_floor)
        return {
            "enabled": True,
            "epochs_seen": self.epochs_seen,
            "alerts_total": self.alerts_total,
            "alert_counts": dict(self.alert_counts),
            "gated": self.gated,
            "alerts": list(self.alerts),
            "reputation": summary,
        }
