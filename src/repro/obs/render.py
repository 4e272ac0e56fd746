"""Human-readable views of a trace: span tree and metrics exports."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = ["render_span_tree", "format_metrics_json"]


def _span_index(
    events: Iterable[Mapping[str, Any]]
) -> Dict[Optional[int], List[Dict[str, Any]]]:
    """Group spans by parent id, annotated with durations and counters."""
    spans: Dict[int, Dict[str, Any]] = {}
    children: Dict[Optional[int], List[Dict[str, Any]]] = {None: []}
    for event in events:
        kind = event.get("ev")
        if kind == "span_start":
            span = {
                "id": event["id"],
                "name": event["name"],
                "attrs": event.get("attrs", {}),
                "t0": event.get("t"),
                "t1": None,
                "counters": 0,
            }
            spans[int(event["id"])] = span
            children.setdefault(event.get("parent"), []).append(span)
            children.setdefault(int(event["id"]), [])
        elif kind == "span_end":
            span = spans.get(int(event["id"]))
            if span is not None:
                span["t1"] = event.get("t")
        elif kind == "counter":
            owner = event.get("span")
            if owner is not None and int(owner) in spans:
                spans[int(owner)]["counters"] += 1
    return children


def _format_span(span: Mapping[str, Any]) -> str:
    parts = [str(span["name"])]
    attrs = span.get("attrs") or {}
    if attrs:
        inner = ", ".join(f"{k}={v}" for k, v in attrs.items())
        parts.append(f"({inner})")
    t0, t1 = span.get("t0"), span.get("t1")
    if t0 is not None and t1 is not None:
        parts.append(f"[{(t1 - t0) * 1000.0:.3f} ms]")
    if span.get("counters"):
        parts.append(f"· {span['counters']} counter events")
    return " ".join(parts)


def render_span_tree(
    events: Iterable[Mapping[str, Any]],
    *,
    max_depth: Optional[int] = None,
    max_children: int = 12,
) -> str:
    """ASCII tree of the trace's spans.

    ``max_depth`` prunes levels below it; when a span has more than
    ``max_children`` children the middle ones are elided (the summary
    must stay readable for thousand-round runs).
    """
    children = _span_index(events)
    lines: List[str] = []

    def walk(parent: Optional[int], depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            return
        kids = children.get(parent, [])
        shown = kids
        elided = 0
        if len(kids) > max_children:
            head = max_children // 2
            tail = max_children - head
            shown = kids[:head] + kids[-tail:]
            elided = len(kids) - len(shown)
        for pos, span in enumerate(shown):
            if elided and pos == max_children // 2:
                lines.append("  " * depth + f"… {elided} more spans …")
            lines.append("  " * depth + _format_span(span))
            walk(int(span["id"]), depth + 1)

    walk(None, 0)
    return "\n".join(lines)


def format_metrics_json(
    snapshot: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """JSON-ready copy of a counter snapshot (plain dicts, stable order)."""
    return {name: dict(entry) for name, entry in snapshot.items()}
