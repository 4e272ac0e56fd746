"""Asyncio HTTP plane of ``rit serve``: /metrics, /healthz, /readyz, /epochs.

A deliberately small HTTP/1.1 server (``asyncio.start_server``, one
request per connection) that exposes the live telemetry of a running
:class:`~repro.service.service.MechanismService`:

``GET /metrics``
    The cumulative plane as OpenMetrics text
    (:func:`repro.obs.openmetrics.format_openmetrics`): frontend
    admission counters, the fixed-boundary latency/depth histograms and
    the per-epoch gauge surface.  The exposition is gated on the
    round-trip parser — ``make metrics-smoke`` fetches and re-parses it.
``GET /healthz``
    Liveness: 200 whenever the server loop is alive; the body reports
    the ingest-queue occupancy and the serving phase.
``GET /readyz``
    Readiness: 200 only while the service is draining its stream
    (``phase == "serving"``) with queue headroom; 503 otherwise, with
    the epoch-pipeline status in the body so operators see *why*.
``GET /epochs``
    The bounded ring of per-epoch frames plus the SLO summary as JSON —
    the payload ``rit top`` renders.
``GET /alerts``
    The sentinel plane's bounded alert ring plus the reputation
    aggregate (``{"enabled": false}`` when no plane is attached).

Everything here runs on the event loop; responses are built from
in-memory state only (no file or blocking socket I/O — analyzer rule
RIT009), and the client helper :func:`http_get` uses asyncio streams so
``rit serve --probe-metrics`` can self-probe from a coroutine.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.obs.openmetrics import CONTENT_TYPE, format_openmetrics
from repro.service.service import MechanismService

__all__ = ["MetricsServer", "http_get"]

_JSON = "application/json; charset=utf-8"


class MetricsServer:
    """Serve a :class:`MechanismService`'s telemetry plane over HTTP."""

    def __init__(
        self,
        service: MechanismService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 → ephemeral; replaced by the bound port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        """Bind and start serving; updates :attr:`port` when ephemeral."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # ------------------------------------------------------------------ #
    # Payloads (pure functions of live service state)
    # ------------------------------------------------------------------ #

    def render_metrics(self) -> str:
        """The OpenMetrics exposition of the current plane."""
        frontend = self.service.frontend
        telemetry = self.service.telemetry
        extra = {
            "service_events_offered": frontend.offered,
            "service_events_accepted": frontend.accepted,
            "service_events_invalid": frontend.invalid,
            "service_events_rejected": frontend.rejected,
            "service_queue_highwater": frontend.highwater,
        }
        gauges = dict(telemetry.gauges)
        sentinel = self.service.sentinel
        if sentinel is not None:
            extra["service_events_gated"] = frontend.gated
            extra["sentinel_alerts"] = sentinel.alerts_total
            gauges.update(sentinel.gauges)
        counters = telemetry.counters_snapshot(extra)
        return format_openmetrics(
            counters=counters,
            histograms=telemetry.histograms,
            gauges=gauges,
        )

    def health(self) -> Dict[str, Any]:
        frontend = self.service.frontend
        return {
            "status": "ok",
            "phase": self.service.telemetry.phase,
            "queue_depth": frontend.depth,
            "queue_capacity": frontend.maxsize,
            "epochs_closed": self.service.telemetry.epochs_closed,
        }

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """(ready?, body) keyed to ingest-queue and pipeline state."""
        frontend = self.service.frontend
        telemetry = self.service.telemetry
        body: Dict[str, Any] = {
            "phase": telemetry.phase,
            "queue_depth": frontend.depth,
            "queue_capacity": frontend.maxsize,
        }
        if self.service.pipeline is not None:
            body["pipeline"] = self.service.pipeline.status()
        if telemetry.phase != "serving":
            body.update(status="unready", reason=f"phase is {telemetry.phase}")
            return False, body
        if frontend.depth >= frontend.maxsize:
            body.update(status="unready", reason="ingest queue saturated")
            return False, body
        body["status"] = "ready"
        return True, body

    def epochs(self) -> Dict[str, Any]:
        telemetry = self.service.telemetry
        payload = {
            "frames": telemetry.recent_frames(),
            "slo": telemetry.slo_summary(),
            "phase": telemetry.phase,
        }
        if self.service.sentinel is not None:
            payload["sentinel"] = self.service.sentinel.status()
        return payload

    def alerts(self) -> Dict[str, Any]:
        """The ``/alerts`` payload: sentinel ring + reputation aggregate."""
        sentinel = self.service.sentinel
        if sentinel is None:
            return {"enabled": False, "alerts": [], "alerts_total": 0}
        return sentinel.alerts_snapshot()

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    def _route(self, method: str, path: str) -> Tuple[int, str, str]:
        """(status, content_type, body) for one request line."""
        if method != "GET":
            return 405, _JSON, json.dumps({"error": "method not allowed"})
        if path == "/metrics":
            return 200, CONTENT_TYPE, self.render_metrics()
        if path == "/healthz":
            return 200, _JSON, json.dumps(self.health())
        if path == "/readyz":
            ready, body = self.readiness()
            return (200 if ready else 503), _JSON, json.dumps(body)
        if path == "/epochs":
            return 200, _JSON, json.dumps(self.epochs())
        if path == "/alerts":
            return 200, _JSON, json.dumps(self.alerts())
        return 404, _JSON, json.dumps({"error": f"no route {path}"})

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            # Drain headers until the blank line; we never need them.
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            if len(parts) < 2:
                status, ctype, body = 400, _JSON, json.dumps({"error": "bad request"})
            else:
                status, ctype, body = self._route(parts[0], parts[1].split("?")[0])
            payload = body.encode("utf-8")
            reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                      405: "Method Not Allowed", 503: "Service Unavailable"}
            head = (
                f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


async def http_get(
    host: str, port: int, path: str, *, timeout: float = 5.0
) -> Tuple[int, str]:
    """Minimal asyncio HTTP client: ``(status, body)`` for one GET.

    Used by ``rit serve --probe-metrics`` to self-probe from inside the
    event loop (urllib would block it — analyzer rule RIT009) and by tests.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        request = (
            f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(request.encode("latin-1"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split()[1])
    return status, body.decode("utf-8")
