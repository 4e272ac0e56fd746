"""The sentinel plane riding a live service (`repro.sentinel.plane`)."""

import asyncio
import json

from repro.core.rit import RIT
from repro.core.types import Job
from repro.obs import Tracer, canonical_events
from repro.sentinel.attacks import inject_attack
from repro.sentinel.detectors import SentinelConfig
from repro.sentinel.plane import SentinelPlane
from repro.service import (
    MechanismService,
    MetricsServer,
    ServiceConfig,
    canonical_outcome,
    http_get,
    seeded_stream,
)
from repro.service.events import AskSubmitted, ReferralEdge


def small_events(seed=0, users=100, types=3, tasks_per_type=5, attack=None):
    job, events = seeded_stream(
        seed, users, types, tasks_per_type, graph="twitter", withdraw_fraction=0.0
    )
    if attack is not None:
        # Onset after the detectors' warmup window (like the pinned
        # harness scenarios) so the burst is judged against a baseline.
        events, _ = inject_attack(
            events, job, kind=attack, onset_epoch=5,
            epoch_max_events=32, seed=seed,
        )
    return job, events


def serve(job, events, *, sentinel=None, tracer=None, seed=0):
    mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
    service = MechanismService(
        mechanism,
        job,
        ServiceConfig(seed=seed, epoch_max_events=32),
        sentinel=sentinel,
        tracer=tracer,
    )
    report = service.serve_stream(events)
    return service, report


class TestReadOnlyObserver:
    def test_sentinel_leaves_served_outcomes_bit_identical(self):
        job, events = small_events()
        _, plain = serve(job, events)
        _, watched = serve(job, events, sentinel=SentinelPlane())
        assert [canonical_outcome(o) for o in plain.outcomes()] == [
            canonical_outcome(o) for o in watched.outcomes()
        ]

    def test_differential_holds_with_sentinel_attached(self):
        job, events = small_events(attack="sybil")
        service, report = serve(
            job, events, sentinel=SentinelPlane(), seed=0
        )
        assert service.replay_check(report) == []


class TestDetection:
    def test_clean_run_raises_no_alerts(self):
        job, events = small_events()
        plane = SentinelPlane()
        serve(job, events, sentinel=plane)
        assert plane.alerts_total == 0
        assert plane.status()["last_alert"] is None

    def test_sybil_burst_is_flagged(self):
        job, events = small_events(attack="sybil")
        plane = SentinelPlane()
        serve(job, events, sentinel=plane)
        assert plane.alerts_total > 0
        assert "depth_anomaly" in plane.alert_counts
        assert all(a["epoch"] >= 5 for a in plane.alerts)

    def test_epoch_frames_carry_sentinel_status(self):
        job, events = small_events()
        service, _ = serve(job, events, sentinel=SentinelPlane())
        frame = service.telemetry.recent_frames()[-1]
        assert frame["sentinel"]["status"]["alerts_total"] == 0
        assert "alerts" in frame["sentinel"]

    def test_reputation_gauges_are_published(self):
        job, events = small_events()
        plane = SentinelPlane()
        serve(job, events, sentinel=plane)
        assert set(plane.gauges) == {
            "sentinel/reputation_mean",
            "sentinel/reputation_min",
            "sentinel/flagged_users",
        }
        assert 0.0 < plane.gauges["sentinel/reputation_mean"]["value"] < 1.0


class TestCanonicalTrace:
    def test_identical_runs_emit_identical_alert_traces(self):
        streams = []
        for _ in range(2):
            job, events = small_events(attack="sybil")
            tracer = Tracer("sentinel-test", seed=0)
            plane = SentinelPlane(tracer=tracer)
            serve(job, events, sentinel=plane, tracer=tracer)
            streams.append(canonical_events(tracer.events))
        assert streams[0] == streams[1]
        names = {e.get("name") for e in streams[0]}
        assert "sentinel" in names
        assert "sentinel.alert" in names
        assert any(
            e.get("name") == "sentinel_alerts" for e in streams[0]
        )


class TestAlertsEndpoint:
    @staticmethod
    async def probe(service, path):
        server = MetricsServer(service, port=0)
        await server.start()
        try:
            return await http_get(server.host, server.port, path)
        finally:
            await server.stop()

    def test_alerts_payload_with_sentinel(self):
        job, events = small_events(attack="sybil")
        plane = SentinelPlane()
        service, _ = serve(job, events, sentinel=plane)
        status, body = asyncio.run(self.probe(service, "/alerts"))
        assert status == 200
        doc = json.loads(body)
        assert doc["enabled"] is True
        assert doc["alerts_total"] == plane.alerts_total
        assert doc["alerts"][0]["detector"] in plane.alert_counts
        assert doc["reputation"]["users"] > 0

    def test_alerts_disabled_without_sentinel(self):
        job, events = small_events()
        service, _ = serve(job, events)
        status, body = asyncio.run(self.probe(service, "/alerts"))
        assert status == 200
        doc = json.loads(body)
        assert doc == {"enabled": False, "alerts": [], "alerts_total": 0}

    def test_metrics_exposition_carries_sentinel_surface(self):
        job, events = small_events(attack="sybil")
        service, _ = serve(job, events, sentinel=SentinelPlane())
        status, body = asyncio.run(self.probe(service, "/metrics"))
        assert status == 200
        assert "rit_sentinel_alerts" in body
        assert "rit_sentinel_reputation_mean" in body


class TestAdmissionGate:
    def test_gate_off_by_default(self):
        assert SentinelPlane().admission_gate() is None

    def test_gate_refuses_only_known_bad_asks(self):
        plane = SentinelPlane(SentinelConfig(admission_floor=0.4))
        plane.reputation.observe_withdrawal(1)
        plane.reputation.observe_withdrawal(1)  # score 1/6 < 0.4
        gate = plane.admission_gate()
        bad = AskSubmitted(tick=0, user_id=1, task_type=0, capacity=1, value=1.0)
        fresh = AskSubmitted(tick=0, user_id=2, task_type=0, capacity=1, value=1.0)
        edge = ReferralEdge(tick=0, parent_id=1, child_id=3)
        assert gate(bad) is not None
        assert gate(fresh) is None  # 0.5 prior clears the floor
        assert gate(edge) is None  # referrals always pass
        assert plane.gated == 1

    def test_gated_events_never_reach_the_consumed_stream(self):
        plane = SentinelPlane(SentinelConfig(admission_floor=0.4))
        plane.reputation.observe_withdrawal(1)
        plane.reputation.observe_withdrawal(1)
        job = Job.uniform(1, 2)
        events = [
            AskSubmitted(tick=0, user_id=1, task_type=0, capacity=1, value=1.0),
            AskSubmitted(tick=1, user_id=2, task_type=0, capacity=1, value=1.0),
        ]
        mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
        service = MechanismService(
            mechanism, job, ServiceConfig(seed=0, epoch_max_events=2),
            sentinel=plane,
        )
        report = service.serve_stream(events)
        assert report.gated == 1
        assert report.offered == (
            report.accepted + report.invalid + report.rejected + report.gated
        )
        assert [e.user_id for e in report.consumed] == [2]
        assert service.replay_check(report) == []
