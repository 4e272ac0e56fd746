"""The asyncio HTTP telemetry plane (`repro.service.http`) over real sockets."""

import asyncio
import json

from repro.core.rit import RIT
from repro.obs.openmetrics import parse_openmetrics
from repro.service import (
    MechanismService,
    MetricsServer,
    ServiceConfig,
    http_get,
    seeded_stream,
)


def drained_service(seed=0, users=100, types=3, tasks_per_type=5):
    job, events = seeded_stream(
        seed, users, types, tasks_per_type, graph="twitter", withdraw_fraction=0.0
    )
    mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
    service = MechanismService(
        mechanism, job, ServiceConfig(seed=seed, epoch_max_events=32)
    )
    report = service.serve_stream(events)
    return service, report


async def probe(service, path):
    server = MetricsServer(service, port=0)
    await server.start()
    try:
        return await http_get(server.host, server.port, path)
    finally:
        await server.stop()


class TestEndpoints:
    def test_metrics_round_trips_the_parser(self):
        service, report = drained_service()
        status, body = asyncio.run(probe(service, "/metrics"))
        assert status == 200
        families = parse_openmetrics(body)
        assert families  # non-empty exposition
        closed = families["rit_service_epochs_closed"]
        assert closed.type == "counter"
        assert closed.samples[0].value == len(report.epochs)
        latency = families["rit_epoch_close_to_outcome_seconds"]
        assert latency.type == "histogram"
        count = [
            s for s in latency.samples if s.name.endswith("_count")
        ]
        assert count[0].value == len(report.epochs)
        assert any(name.startswith("rit_win_rate_depth") for name in families)

    def test_healthz_always_ok(self):
        service, report = drained_service()
        status, body = asyncio.run(probe(service, "/healthz"))
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["phase"] == "drained"
        assert doc["epochs_closed"] == len(report.epochs)

    def test_readyz_unready_after_drain(self):
        service, _ = drained_service()
        status, body = asyncio.run(probe(service, "/readyz"))
        assert status == 503
        doc = json.loads(body)
        assert doc["status"] == "unready"
        assert "drained" in doc["reason"]

    def test_readyz_ready_while_serving(self):
        service, _ = drained_service()
        service.telemetry.phase = "serving"  # simulate a live stream
        status, body = asyncio.run(probe(service, "/readyz"))
        assert status == 200
        assert json.loads(body)["status"] == "ready"

    def test_epochs_payload_matches_ring(self):
        service, report = drained_service()
        status, body = asyncio.run(probe(service, "/epochs"))
        assert status == 200
        doc = json.loads(body)
        assert doc["phase"] == "drained"
        assert len(doc["frames"]) == len(report.epochs)
        assert doc["slo"]["epochs_closed"] == len(report.epochs)
        assert [f["epoch"] for f in doc["frames"]] == list(
            range(len(report.epochs))
        )

    def test_unknown_route_404(self):
        service, _ = drained_service()
        status, body = asyncio.run(probe(service, "/nope"))
        assert status == 404
        assert "no route" in json.loads(body)["error"]

    def test_query_strings_ignored(self):
        service, _ = drained_service()
        status, _ = asyncio.run(probe(service, "/healthz?verbose=1"))
        assert status == 200


class TestRouting:
    def test_non_get_rejected(self):
        service, _ = drained_service()
        server = MetricsServer(service)
        status, _, body = server._route("POST", "/metrics")
        assert status == 405

    def test_ephemeral_port_resolved_and_url(self):
        service, _ = drained_service()

        async def check():
            server = MetricsServer(service, port=0)
            await server.start()
            try:
                assert server.port != 0
                assert server.url("/epochs") == (
                    f"http://127.0.0.1:{server.port}/epochs"
                )
            finally:
                await server.stop()

        asyncio.run(check())
