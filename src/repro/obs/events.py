"""Trace event model: the JSONL schema and its canonical form.

A *trace* is an ordered sequence of flat JSON objects (one per line when
serialized — JSONL).  Every event carries:

``i``
    Zero-based event index, contiguous within a trace.  Assigned at record
    time, so the index order *is* the record order.
``ev``
    Event kind — one of :data:`EVENT_KINDS`:

    * ``"trace"`` — the header (always event 0): ``run_id``, ``seed``,
      ``config``, ``config_hash`` and ``schema_version``.  The
      ``(seed, config_hash)`` pair keys the trace: two runs with the same
      pair must produce the same canonical stream.
    * ``"span_start"`` / ``"span_end"`` — hierarchical spans (``id``,
      ``parent``, ``name``, optional ``attrs``).  The span levels emitted
      by the instrumented mechanism stack are listed in
      :data:`SPAN_LEVELS`.
    * ``"counter"`` — a monotonic counter increment (``name``, ``unit``,
      ``delta``, running ``value``, owning ``span``).
    * ``"distribution"`` — one histogram/gauge observation (``name``,
      ``unit``, ``value``, owning ``span``; histograms add the ``bucket``
      index computed from the metric's fixed boundaries, service metrics
      add the owning ``epoch`` index, and volatile metrics carry
      ``vol: true``).  The metric contract lives in
      :mod:`repro.obs.metrics`.
``t``
    Seconds since the trace's monotonic epoch.  Timestamps are the only
    intrinsically non-reproducible field; they are stripped by
    :func:`canonical_events`.

Merged worker events (see :mod:`repro.simulation.parallel`) additionally
carry ``rep`` (submission index) and ``w`` (logical worker slot); both are
deterministic for a fixed configuration.

Determinism contract
--------------------
:func:`canonical_events` drops ``t`` and the measured values of
``"seconds"``-unit counters; everything that remains — event order, span
topology, attributes, count- and bytes-unit counter values — must be
identical across reruns with the same seed and configuration.  The
golden-trace tests enforce exactly this.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, Iterable, List, Mapping

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "EVENT_KINDS",
    "SPAN_LEVELS",
    "COUNTER_UNITS",
    "DISTRIBUTION_UNITS",
    "RUN_ID_RE",
    "config_hash",
    "canonical_events",
    "write_jsonl",
    "read_jsonl",
]

#: Bump when the event layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Every legal value of the ``ev`` field.
EVENT_KINDS = ("trace", "span_start", "span_end", "counter", "distribution")

#: The span hierarchy emitted by the instrumented mechanism stack, outer to
#: inner.  Other span names (``payments``, ``attack`` …) may appear; these
#: four are the levels the smoke gate requires.
SPAN_LEVELS = ("run", "mechanism", "cra", "round")

#: Legal values of a counter event's ``unit`` field.  ``"count"`` and
#: ``"bytes"`` counters are exactly reproducible (bytes report
#: deterministic memory footprints, such as array sizes);
#: ``"seconds"`` counters are measured time and excluded from the
#: canonical stream.
COUNTER_UNITS = ("count", "seconds", "bytes")

#: Legal values of a distribution event's ``unit`` field.  ``"ratio"``
#: covers the per-epoch gauges (win rates, mean referral depth); the
#: metric catalog (:mod:`repro.obs.metrics`) decides per-name whether
#: observed values are volatile (measured) or canonical.
DISTRIBUTION_UNITS = ("count", "seconds", "bytes", "ratio")


#: The grammar of a run id: one path component, so an outcome ledger or a
#: stored experiment result (whose ids and tags share it) never escapes
#: its root directory.
RUN_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable short hash of a (JSON-serializable) run configuration."""
    payload = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def canonical_events(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """The reproducible view of an event stream.

    Drops every ``t`` timestamp, the ``delta``/``value`` fields of
    ``"seconds"``-unit counters, and the ``value``/``bucket`` fields of
    volatile ``distribution`` events (``vol`` flag, stamped at record
    time from the metric catalog's volatility contract).  Two runs with
    the same seed and configuration must agree on this view exactly.
    """
    out: List[Dict[str, Any]] = []
    for event in events:
        reduced = {k: v for k, v in event.items() if k != "t"}
        kind = event.get("ev")
        if kind == "counter" and event.get("unit") == "seconds":
            reduced.pop("delta", None)
            reduced.pop("value", None)
        elif kind == "distribution" and event.get("vol"):
            reduced.pop("value", None)
            reduced.pop("bucket", None)
        out.append(reduced)
    return out


def write_jsonl(events: Iterable[Mapping[str, Any]], path: str) -> None:
    """Serialize events as one sorted-key JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
