"""Trace JSONL schema validator.

Dependency-free structural validation of :mod:`repro.obs` event streams.
``validate_trace_events`` returns a list of human-readable problems
(empty means valid); ``check_coverage`` additionally enforces the ``rit
trace --smoke`` gate — the span hierarchy levels and a minimum number of
distinct deterministic counters.

Checks performed:

* exactly one header event, first, with run id / config hash / matching
  ``schema_version``;
* contiguous ``i`` indices (the stream is append-only and ordered);
* well-formed spans: unique ids, parents already started, strictly
  nested (LIFO) close order, matching names on close;
* well-formed counters: cataloged names (:mod:`repro.obs.catalog`),
  legal units, per-counter running ``value`` consistent with the
  ``delta`` sequence, owning span open at emission time;
* well-formed distributions: cataloged metric names
  (:mod:`repro.obs.metrics`), units and volatility flags matching the
  spec, histogram bucket indices recomputed against the registry's fixed
  boundaries, owning span open at emission time;
* merge tags: ``rep`` / ``w`` are non-negative integers when present.
"""

from __future__ import annotations

from numbers import Number
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Set

from repro.obs.catalog import describe_counter
from repro.obs.events import (
    COUNTER_UNITS,
    DISTRIBUTION_UNITS,
    EVENT_KINDS,
    SPAN_LEVELS,
    TRACE_SCHEMA_VERSION,
    read_jsonl,
)
from repro.obs.metrics import bucket_boundaries, bucket_index, describe_metric

__all__ = [
    "validate_trace_events",
    "validate_trace_file",
    "check_coverage",
    "trace_coverage",
]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_trace_events(events: Sequence[Mapping[str, Any]]) -> List[str]:
    """Structural problems of an event stream; empty list means valid."""
    problems: List[str] = []
    if not events:
        return ["trace is empty — expected at least a header event"]

    header = events[0]
    if header.get("ev") != "trace":
        problems.append("event 0 must be the 'trace' header")
    else:
        for key in ("run_id", "config", "config_hash", "schema_version"):
            if key not in header:
                problems.append(f"header is missing {key!r}")
        version = header.get("schema_version")
        if version != TRACE_SCHEMA_VERSION:
            problems.append(
                f"schema_version {version!r} != supported {TRACE_SCHEMA_VERSION}"
            )

    started: Set[int] = set()
    stack: List[int] = []
    names: Dict[int, str] = {}
    totals: Dict[str, Any] = {}
    units: Dict[str, str] = {}
    for pos, event in enumerate(events):
        where = f"event {pos}"
        if event.get("i") != pos:
            problems.append(f"{where}: index 'i' is {event.get('i')!r}, want {pos}")
        kind = event.get("ev")
        if kind not in EVENT_KINDS:
            problems.append(f"{where}: unknown event kind {kind!r}")
            continue
        if not isinstance(event.get("t"), Number) or event["t"] < 0:
            problems.append(f"{where}: 't' must be a non-negative number")
        for tag in ("rep", "w"):
            if tag in event and (not _is_int(event[tag]) or event[tag] < 0):
                problems.append(f"{where}: {tag!r} must be a non-negative int")
        if kind == "trace":
            if pos != 0:
                problems.append(f"{where}: duplicate 'trace' header")
        elif kind == "span_start":
            span_id = event.get("id")
            if not _is_int(span_id):
                problems.append(f"{where}: span id must be an int")
                continue
            if span_id in started:
                problems.append(f"{where}: span id {span_id} reused")
            parent = event.get("parent")
            if parent is not None and parent not in started:
                problems.append(
                    f"{where}: parent {parent!r} not started before child"
                )
            if not isinstance(event.get("name"), str):
                problems.append(f"{where}: span name must be a string")
            started.add(span_id)
            names[span_id] = event.get("name", "")
            stack.append(span_id)
        elif kind == "span_end":
            span_id = event.get("id")
            if not stack:
                problems.append(f"{where}: span_end with no open span")
            elif stack[-1] != span_id:
                problems.append(
                    f"{where}: span_end {span_id!r} closes out of LIFO "
                    f"order (innermost open is {stack[-1]})"
                )
            else:
                stack.pop()
                if event.get("name") != names.get(span_id):
                    problems.append(
                        f"{where}: span_end name {event.get('name')!r} != "
                        f"start name {names.get(span_id)!r}"
                    )
        elif kind == "counter":
            name = event.get("name")
            unit = event.get("unit")
            if not isinstance(name, str):
                problems.append(f"{where}: counter name must be a string")
                continue
            if unit not in COUNTER_UNITS:
                problems.append(f"{where}: counter unit {unit!r} not in {COUNTER_UNITS}")
                continue
            spec = describe_counter(name)
            if spec is None:
                problems.append(f"{where}: counter {name!r} is not cataloged")
            elif spec[0] != unit:
                problems.append(
                    f"{where}: counter {name!r} unit {unit!r} != cataloged {spec[0]!r}"
                )
            delta = event.get("delta")
            value = event.get("value")
            if not isinstance(delta, Number) or not isinstance(value, Number):
                problems.append(f"{where}: counter delta/value must be numbers")
                continue
            if unit in ("count", "bytes") and not (
                _is_int(delta) and _is_int(value)
            ):
                problems.append(
                    f"{where}: {unit}-unit deltas/values must be ints"
                )
            known = units.setdefault(name, unit)
            if known != unit:
                problems.append(
                    f"{where}: counter {name!r} switched unit {known!r} -> {unit!r}"
                )
            expected = totals.get(name, 0) + delta
            if unit in ("count", "bytes") and value != expected:
                problems.append(
                    f"{where}: counter {name!r} value {value} != running {expected}"
                )
            totals[name] = value
            owner = event.get("span")
            if owner is not None and owner not in stack:
                problems.append(
                    f"{where}: counter {name!r} owned by span {owner!r}, "
                    "which is not open here"
                )
        elif kind == "distribution":
            problems.extend(_check_distribution(event, where, stack))
    if stack:
        problems.append(f"unclosed spans at end of trace: {stack}")
    return problems


def _check_distribution(
    event: Mapping[str, Any], where: str, stack: Sequence[int]
) -> List[str]:
    """Schema checks for one ``distribution`` event.

    The metric catalog (:mod:`repro.obs.metrics`) is the contract: the
    name must resolve, the unit must match the spec, the volatility flag
    must match, and — for histograms — the recorded ``bucket`` must equal
    a recomputation of ``bucket_index`` against the family's fixed
    boundaries, pinning the bit-reproducible bucketing end to end.
    """
    problems: List[str] = []
    name = event.get("name")
    unit = event.get("unit")
    if not isinstance(name, str):
        return [f"{where}: distribution name must be a string"]
    if unit not in DISTRIBUTION_UNITS:
        problems.append(
            f"{where}: distribution unit {unit!r} not in {DISTRIBUTION_UNITS}"
        )
    spec = describe_metric(name)
    if spec is None:
        problems.append(f"{where}: metric {name!r} is not cataloged")
        return problems
    if spec.unit != unit:
        problems.append(
            f"{where}: metric {name!r} unit {unit!r} != cataloged {spec.unit!r}"
        )
    if bool(event.get("vol", False)) != spec.volatile:
        problems.append(
            f"{where}: metric {name!r} volatility flag "
            f"{event.get('vol', False)!r} != cataloged {spec.volatile!r}"
        )
    value = event.get("value")
    if not isinstance(value, Number):
        problems.append(f"{where}: distribution value must be a number")
        return problems
    bucket = event.get("bucket")
    if spec.kind == "histogram" and spec.family is not None:
        if not _is_int(bucket):
            problems.append(
                f"{where}: histogram metric {name!r} must carry an int bucket"
            )
        else:
            expected = bucket_index(bucket_boundaries(spec.family), value)
            if bucket != expected:
                problems.append(
                    f"{where}: metric {name!r} bucket {bucket} != "
                    f"recomputed {expected} for value {value!r}"
                )
    elif bucket is not None:
        problems.append(f"{where}: gauge metric {name!r} must not carry a bucket")
    epoch = event.get("epoch")
    if epoch is not None and (not _is_int(epoch) or epoch < 0):
        problems.append(f"{where}: 'epoch' must be a non-negative int")
    owner = event.get("span")
    if owner is not None and owner not in stack:
        problems.append(
            f"{where}: distribution {name!r} owned by span {owner!r}, "
            "which is not open here"
        )
    return problems


def validate_trace_file(path: str) -> List[str]:
    """Parse a JSONL trace file and validate it."""
    try:
        events = read_jsonl(path)
    except (OSError, ValueError) as err:
        return [f"cannot read trace {path}: {err}"]
    return validate_trace_events(events)


def trace_coverage(
    events: Iterable[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Observed span names and counter units of a stream."""
    span_names: Set[str] = set()
    counters: Dict[str, str] = {}
    for event in events:
        if event.get("ev") == "span_start":
            span_names.add(str(event.get("name")))
        elif event.get("ev") == "counter":
            counters[str(event.get("name"))] = str(event.get("unit"))
    return {"span_names": span_names, "counters": counters}


def check_coverage(
    events: Sequence[Mapping[str, Any]],
    *,
    require_spans: Sequence[str] = SPAN_LEVELS,
    min_counters: int = 6,
) -> List[str]:
    """The ``rit trace --smoke`` gate, on top of structural validity."""
    problems = validate_trace_events(events)
    seen = trace_coverage(events)
    missing = [name for name in require_spans if name not in seen["span_names"]]
    if missing:
        problems.append(f"missing required span levels: {missing}")
    deterministic = [
        name for name, unit in seen["counters"].items() if unit == "count"
    ]
    if len(deterministic) < min_counters:
        problems.append(
            f"only {len(deterministic)} distinct count-unit counters "
            f"({sorted(deterministic)}); need >= {min_counters}"
        )
    return problems
