"""``rit top``: epoch-over-epoch view of a live or recorded service run.

Two sources, one renderer:

* ``--url http://host:port`` — poll a running ``rit serve
  --metrics-port`` endpoint: ``GET /epochs`` returns the bounded ring of
  per-epoch frames plus the SLO summary, rendered as a table every
  ``--interval`` seconds (this module is a synchronous CLI, so plain
  ``urllib`` polling is fine here — it is deliberately *outside* the
  RIT007 instrumented-module scope and runs no coroutine for RIT009);
* ``--trace TRACE.jsonl`` — tail a recorded service trace: the
  ``distribution`` events carry their owning ``epoch`` index, so the
  same frames are reconstructed offline and the latency quantiles are
  re-derived through the same fixed-boundary histograms the live plane
  uses (:mod:`repro.obs.metrics`) — live and offline views can never
  disagree about bucketing.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.events import read_jsonl
from repro.obs.metrics import new_histogram

__all__ = ["frames_from_trace", "render_frames", "run_top"]

#: The latency histograms re-derived when tailing a trace.
_TRACE_HISTOGRAMS = ("ingest_admit_seconds", "epoch_close_to_outcome_seconds",
                     "shard_run_seconds")


def frames_from_trace(events: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Rebuild the ``/epochs`` payload from a recorded trace.

    Groups ``distribution`` events by their ``epoch`` field; events
    without one (per-admission latencies) only feed the cumulative
    histograms.  Returns the same ``{"frames": …, "slo": …}`` shape the
    live endpoint serves, so one renderer handles both sources.
    """
    histograms = {name: new_histogram(name) for name in _TRACE_HISTOGRAMS}
    frames: Dict[int, Dict[str, Any]] = {}
    for event in events:
        if event.get("ev") != "distribution":
            continue
        name = str(event.get("name"))
        value = event.get("value")
        if name in histograms and isinstance(value, (int, float)):
            histograms[name].observe(value)
        epoch = event.get("epoch")
        if epoch is None:
            continue
        frame = frames.setdefault(
            int(epoch),
            {"epoch": int(epoch), "batch_events": 0, "users": 0,
             "latency_seconds": 0.0, "shard_seconds": 0.0, "shards": 0,
             "gauges": {}},
        )
        if name == "epoch_batch_events":
            frame["batch_events"] = int(value)
        elif name == "epoch_close_to_outcome_seconds":
            frame["latency_seconds"] = float(value)
        elif name == "shard_run_seconds":
            frame["shard_seconds"] += float(value)
            frame["shards"] += 1
        elif name == "epoch_participants":
            frame["users"] = int(value)
            frame["gauges"][name] = float(value)
        else:
            frame["gauges"][name] = float(value)
    slo = {
        "ingest": histograms["ingest_admit_seconds"].summary(),
        "epoch": histograms["epoch_close_to_outcome_seconds"].summary(),
        "shard": histograms["shard_run_seconds"].summary(),
        "epochs_closed": len(frames),
    }
    ordered = [frames[index] for index in sorted(frames)]
    return {"frames": ordered, "slo": slo, "phase": "trace"}


def _ms(seconds: Any) -> str:
    return f"{float(seconds) * 1000:.1f}"


def render_frames(payload: Mapping[str, Any]) -> str:
    """The ``rit top`` table for one ``/epochs`` payload."""
    frames: List[Mapping[str, Any]] = list(payload.get("frames", []))
    lines = [
        f"{'epoch':>5}  {'events':>6}  {'users':>6}  {'latency':>9}  "
        f"{'shards':>6}  {'shard ms':>8}  {'win@d1':>6}  {'depth':>11}"
    ]
    for frame in frames:
        gauges = frame.get("gauges", {})
        win1 = gauges.get("win_rate/depth1")
        depth_max = gauges.get("referral_depth_max", 0.0)
        depth_mean = gauges.get("referral_depth_mean", 0.0)
        lines.append(
            f"{frame['epoch']:>5}  {frame['batch_events']:>6}  "
            f"{frame['users']:>6}  {_ms(frame['latency_seconds']):>7}ms  "
            f"{frame.get('shards', 0):>6}  "
            f"{_ms(frame.get('shard_seconds', 0.0)):>8}  "
            f"{('-' if win1 is None else f'{win1:.2f}'):>6}  "
            f"{depth_max:>4.0f}/{depth_mean:>5.2f}"
        )
    if not frames:
        lines.append("  (no closed epochs yet)")
    slo = payload.get("slo")
    if slo:
        lines.append("")
        lines.append(
            f"{'SLO':>5}  {'count':>6}  {'p50 ms':>8}  {'p95 ms':>8}  "
            f"{'p99 ms':>8}  {'max ms':>8}"
        )
        for label, key in (("inges", "ingest"), ("epoch", "epoch"),
                           ("shard", "shard")):
            summary = slo.get(key)
            if not summary:
                continue
            lines.append(
                f"{label:>5}  {summary['count']:>6}  {_ms(summary['p50']):>8}  "
                f"{_ms(summary['p95']):>8}  {_ms(summary['p99']):>8}  "
                f"{_ms(summary['max']):>8}"
            )
    sentinel = payload.get("sentinel")
    if sentinel:
        lines.append("")
        total = sentinel.get("alerts_total", 0)
        if total:
            counts = sentinel.get("alert_counts", {})
            detail = ", ".join(
                f"{name}={counts[name]}" for name in sorted(counts)
            )
            last = sentinel.get("last_alert") or {}
            lines.append(
                f"sentinel: {total} alert(s) [{detail}] — last: "
                f"{last.get('detector', '?')} @ epoch {last.get('epoch', '?')}"
            )
        else:
            lines.append(
                f"sentinel: quiet ({sentinel.get('epochs_seen', 0)} epochs watched)"
            )
        gated = sentinel.get("gated", 0)
        if gated:
            lines.append(f"sentinel: {gated} event(s) gated by reputation floor")
    phase = payload.get("phase")
    if phase:
        lines.append("")
        lines.append(f"phase: {phase}")
    return "\n".join(lines)


def _fetch_epochs(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    with urllib.request.urlopen(f"{url.rstrip('/')}/epochs", timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def run_top(
    *,
    url: Optional[str] = None,
    trace: Optional[str] = None,
    interval: float = 2.0,
    iterations: int = 0,
    once: bool = False,
) -> int:
    """Drive the dashboard; returns a process exit code.

    Exactly one of ``url`` / ``trace`` must be given.  ``iterations`` of
    0 polls until the endpoint reports a terminal phase (``drained``) or
    disappears; ``once`` (implied by ``trace``) renders a single table.
    """
    if (url is None) == (trace is None):
        print("rit top: pass exactly one of --url or --trace")
        return 2
    if trace is not None:
        try:
            payload = frames_from_trace(read_jsonl(trace))
        except (OSError, ValueError) as err:
            print(f"rit top: cannot read trace {trace}: {err}")
            return 1
        print(render_frames(payload))
        return 0
    assert url is not None
    rendered = 0
    while True:
        try:
            payload = _fetch_epochs(url)
        except (urllib.error.URLError, ConnectionError, json.JSONDecodeError) as err:
            if rendered:
                print(f"rit top: endpoint gone ({err}); exiting")
                return 0
            print(f"rit top: cannot reach {url}: {err}")
            return 1
        print(render_frames(payload))
        rendered += 1
        if once or (iterations and rendered >= iterations):
            return 0
        if payload.get("phase") == "drained":
            return 0
        print()
        time.sleep(interval)
