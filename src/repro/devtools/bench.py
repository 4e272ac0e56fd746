"""The ``BENCH_RIT.json`` document: its schema and its one merge path.

The document is a set of sections, each written by one command's
``--bench`` flag and validated on every merge:

* ``analysis`` — ``rit analyze --bench`` (the analyzer's size and its
  cold/warm-cache cost);
* ``service`` and ``service_slo`` — ``rit loadgen --bench`` (serving
  throughput, epoch latency and the telemetry plane's histograms);
* ``sentinel`` — ``rit sentinel --bench`` (the live-adversary record);
* ``arena`` — ``rit arena --bench`` (the head-to-head scorecard).

:func:`merge_bench_sections` is the one load/merge/validate/write path
all four use.  Engine timing is not recorded here: ``perfbench/`` (see
``BENCHMARK.json``) is the benchmark of record.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "latency_summary",
    "merge_bench_sections",
    "validate_bench_schema",
    "write_bench",
]

#: Bump when the JSON layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of non-empty ``samples`` (``fraction`` in [0, 1])."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p95/mean/min of a latency sample set (nearest-rank percentiles).

    Used by the serving-path bench (``rit loadgen --bench``); an empty
    sample set (a run with zero epochs) summarizes to all-zero rather than
    erroring, so bench documents stay schema-valid on degenerate configs.
    """
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "mean": 0.0, "min": 0.0}
    return {
        "p50": _percentile(samples, 0.50),
        "p95": _percentile(samples, 0.95),
        "mean": float(sum(samples) / len(samples)),
        "min": float(min(samples)),
    }


def write_bench(result: Mapping[str, Any], path: str) -> None:
    """Serialize a bench document to ``path`` (pretty, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")


def merge_bench_sections(path: str, sections: Mapping[str, Any]) -> int:
    """Merge ``sections`` into the bench document at ``path``; an exit code.

    A missing file starts a new document.  The merged document is stamped
    with :data:`BENCH_SCHEMA_VERSION` if it has no version and validated
    whole, so a section written into a fresh file is checked exactly as
    one merged into the committed document.  An invalid document is
    reported and not written (exit code 1); sections not named in
    ``sections`` are left as they were.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        doc = {}
    doc.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    doc.update(sections)
    errors = validate_bench_schema(doc)
    if errors:
        print(f"refusing to write {path}: merged doc is invalid:")
        for error in errors:
            print(f"  {error}")
        return 1
    write_bench(doc, path)
    noun = "section" if len(sections) == 1 else "sections"
    print(f"{' + '.join(sections)} {noun} merged -> {path}")
    return 0


def validate_bench_schema(doc: Any) -> List[str]:
    """Return a list of schema violations (empty when the document is valid).

    Intentionally dependency-free (no jsonschema).  ``schema_version`` is
    the one required key; every section present is checked against its
    own schema.
    """
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    errors: List[str] = []
    if "schema_version" not in doc:
        errors.append("missing key 'schema_version'")
    elif doc["schema_version"] != BENCH_SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc['schema_version']!r} != expected "
            f"{BENCH_SCHEMA_VERSION}"
        )
    for key, validate in _SECTION_VALIDATORS.items():
        if key in doc:
            errors.extend(validate(doc[key]))
    return errors


def _validate_service_section(section: Any) -> List[str]:
    """Schema of the optional ``service`` section (``rit loadgen --bench``)."""
    errors: List[str] = []
    if not isinstance(section, dict):
        return ["service is not an object"]
    events = section.get("events")
    if not isinstance(events, dict):
        errors.append("service.events is not an object")
    else:
        for key in (
            "generated",
            "offered",
            "accepted",
            "invalid",
            "rejected",
            "applied",
            "refused",
        ):
            value = events.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                errors.append(f"service.events.{key} must be a non-negative int")
        # ``gated`` (sentinel admission-policy refusals) is optional so
        # documents written before the sentinel plane stay valid.
        gated = events.get("gated", 0)
        if not isinstance(gated, int) or isinstance(gated, bool) or gated < 0:
            errors.append("service.events.gated must be a non-negative int")
        elif not errors and events["offered"] != (
            events["accepted"] + events["invalid"] + events["rejected"] + gated
        ):
            errors.append(
                "service.events must balance: offered == accepted + invalid "
                "+ rejected + gated (refusals are counted, never silently "
                "dropped)"
            )
    throughput = section.get("events_per_sec")
    if not isinstance(throughput, float) or throughput <= 0.0:
        errors.append("service.events_per_sec must be a positive float")
    epochs = section.get("epochs")
    if not isinstance(epochs, dict):
        errors.append("service.epochs is not an object")
    else:
        for key in ("count", "completed", "voided"):
            value = epochs.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                errors.append(f"service.epochs.{key} must be a non-negative int")
    latency = section.get("epoch_latency_seconds")
    if not isinstance(latency, dict):
        errors.append("service.epoch_latency_seconds is not an object")
    else:
        for stat in ("p50", "p95", "mean", "min"):
            value = latency.get(stat)
            if not isinstance(value, float) or value < 0.0:
                errors.append(
                    f"service.epoch_latency_seconds.{stat} must be a "
                    "non-negative float"
                )
    queue = section.get("queue")
    if not isinstance(queue, dict):
        errors.append("service.queue is not an object")
    else:
        capacity = queue.get("capacity")
        highwater = queue.get("highwater")
        if not isinstance(capacity, int) or capacity <= 0:
            errors.append("service.queue.capacity must be a positive int")
        if not isinstance(highwater, int) or highwater < 0:
            errors.append("service.queue.highwater must be a non-negative int")
        elif isinstance(capacity, int) and highwater > capacity:
            errors.append(
                "service.queue.highwater exceeds capacity — queue growth "
                "was unbounded"
            )
    if not isinstance(section.get("config"), dict):
        errors.append("service.config is not an object")
    return errors


def _validate_service_slo_section(section: Any) -> List[str]:
    """Schema of the ``service_slo`` section (``rit loadgen --bench``).

    The section is the telemetry plane's histogram summaries
    (:meth:`repro.service.telemetry.ServiceTelemetry.slo_summary`): one
    ``{count, sum, min, max, p50, p95, p99}`` block per instrumented
    distribution.  Quantiles must be ordered and bounded by the exact
    extremes — a violation means the histogram arithmetic regressed, not
    that the service got slow.
    """
    errors: List[str] = []
    if not isinstance(section, dict):
        return ["service_slo is not an object"]
    value = section.get("epochs_closed")
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        errors.append("service_slo.epochs_closed must be a non-negative int")
    for block_name in ("ingest", "epoch", "queue_depth", "batch_events"):
        block = section.get(block_name)
        where = f"service_slo.{block_name}"
        if not isinstance(block, dict):
            errors.append(f"{where} is not an object")
            continue
        count = block.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            errors.append(f"{where}.count must be a non-negative int")
            continue
        bad_stat = False
        for stat in ("sum", "min", "max", "p50", "p95", "p99"):
            value = block.get(stat)
            if not isinstance(value, float) or value < 0.0:
                errors.append(f"{where}.{stat} must be a non-negative float")
                bad_stat = True
        if bad_stat or count == 0:
            continue
        if not block["min"] <= block["p50"] <= block["p95"] <= block["p99"] <= block["max"]:
            errors.append(
                f"{where} quantiles must be ordered: "
                "min <= p50 <= p95 <= p99 <= max"
            )
    return errors


def _validate_analysis_section(section: Any) -> List[str]:
    """Schema of the optional ``analysis`` section (``rit analyze --bench``).

    The section records the whole-program analyzer's shape and cost on
    this tree: how many files it covers, what it found per rule, and the
    cold vs warm-cache wall time.  ``warm_files_parsed`` must be zero —
    a warm rerun over an unchanged tree that re-parses anything means the
    incremental cache regressed, which is exactly what the committed
    document is meant to catch.
    """
    errors: List[str] = []
    if not isinstance(section, dict):
        return ["analysis is not an object"]
    files = section.get("files_analyzed")
    if not isinstance(files, int) or isinstance(files, bool) or files <= 0:
        errors.append("analysis.files_analyzed must be a positive int")
    total = section.get("findings_total")
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        errors.append("analysis.findings_total must be a non-negative int")
    by_rule = section.get("findings_by_rule")
    if not isinstance(by_rule, dict):
        errors.append("analysis.findings_by_rule is not an object")
    else:
        for rule_id, count in by_rule.items():
            if not (rule_id.startswith("RIT") and rule_id[3:].isdigit()):
                errors.append(
                    f"analysis.findings_by_rule.{rule_id}: not a RIT rule id"
                )
            if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
                errors.append(
                    f"analysis.findings_by_rule.{rule_id} must be a positive int"
                )
        if isinstance(total, int) and sum(
            c for c in by_rule.values() if isinstance(c, int)
        ) != total:
            errors.append(
                "analysis.findings_by_rule must sum to findings_total"
            )
    for key in ("cold_seconds", "warm_cache_seconds"):
        value = section.get(key)
        if not isinstance(value, float) or value < 0.0:
            errors.append(f"analysis.{key} must be a non-negative float")
    parsed = section.get("warm_files_parsed")
    if not isinstance(parsed, int) or isinstance(parsed, bool) or parsed != 0:
        errors.append(
            "analysis.warm_files_parsed must be 0 — the incremental cache "
            "re-parsed files on a warm run over an unchanged tree"
        )
    return errors


def _validate_sentinel_section(section: Any) -> List[str]:
    """Schema of the optional ``sentinel`` section (``rit sentinel --bench``).

    The section is the live-adversary acceptance record: pinned clean
    scenarios with their alert counts, seeded injections with their
    detection latency, and the two verdict booleans.  Both
    ``detection_within_k`` and ``zero_false_positives`` must be ``true``
    — a committed document recording a missed attack or a noisy clean
    run is a regression, exactly like ``analysis.warm_files_parsed``.
    """
    errors: List[str] = []
    if not isinstance(section, dict):
        return ["sentinel is not an object"]
    if not isinstance(section.get("config"), dict):
        errors.append("sentinel.config is not an object")
    k = section.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        errors.append("sentinel.k must be a positive int")
    clean = section.get("clean")
    if not isinstance(clean, list):
        errors.append("sentinel.clean is not a list")
    else:
        for index, doc in enumerate(clean):
            where = f"sentinel.clean[{index}]"
            if not isinstance(doc, dict):
                errors.append(f"{where} is not an object")
                continue
            if not isinstance(doc.get("scenario"), str):
                errors.append(f"{where}.scenario must be a string")
            epochs = doc.get("epochs")
            if not isinstance(epochs, int) or isinstance(epochs, bool) or epochs <= 0:
                errors.append(f"{where}.epochs must be a positive int")
            for key in ("alerts_total", "false_positive_epochs"):
                value = doc.get(key)
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    errors.append(f"{where}.{key} must be a non-negative int")
    attacks = section.get("attacks")
    if not isinstance(attacks, list) or not attacks:
        errors.append("sentinel.attacks must be a non-empty list")
    else:
        for index, doc in enumerate(attacks):
            where = f"sentinel.attacks[{index}]"
            if not isinstance(doc, dict):
                errors.append(f"{where} is not an object")
                continue
            if doc.get("kind") not in ("sybil", "collusion", "churn"):
                errors.append(
                    f"{where}.kind must be one of sybil/collusion/churn"
                )
            onset = doc.get("onset_epoch")
            if not isinstance(onset, int) or isinstance(onset, bool) or onset < 0:
                errors.append(f"{where}.onset_epoch must be a non-negative int")
            for key in ("detected_epoch", "epochs_to_detect"):
                value = doc.get(key)
                if value is not None and (
                    not isinstance(value, int)
                    or isinstance(value, bool)
                    or value < 0
                ):
                    errors.append(
                        f"{where}.{key} must be null or a non-negative int"
                    )
            total = doc.get("alerts_total")
            if not isinstance(total, int) or isinstance(total, bool) or total < 0:
                errors.append(f"{where}.alerts_total must be a non-negative int")
            detectors = doc.get("detectors")
            if not isinstance(detectors, dict):
                errors.append(f"{where}.detectors is not an object")
            else:
                for name, count in detectors.items():
                    if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
                        errors.append(
                            f"{where}.detectors.{name} must be a positive int"
                        )
    for key in ("detection_within_k", "zero_false_positives"):
        if section.get(key) is not True:
            errors.append(
                f"sentinel.{key} must be true — the committed document is "
                "the live-adversary acceptance record"
            )
    return errors


# Mirrors repro.arena.registry.MECHANISM_NAMES without importing the
# arena stack into the bench validator (pinned by tests/arena).
_ARENA_MECHANISMS = (
    "rit", "omg", "glt", "mit-referral", "lv-moscibroda", "pachira",
)


def _validate_arena_section(section: Any) -> List[str]:
    """Schema of the optional ``arena`` section (``rit arena --bench``).

    The section is the head-to-head acceptance record: one pinned seeded
    stream (clean + one attack schedule) replayed through at least four
    registered mechanisms including ``rit``, with a bit-identical rerun
    proof, matching stream fingerprints for every mechanism, exact
    budget consistency wherever a mechanism declares a budget, and RIT
    winning or tying on sybil gain.  A committed document violating any
    of those verdicts is a regression, exactly like
    ``sentinel.detection_within_k``.
    """
    errors: List[str] = []
    if not isinstance(section, dict):
        return ["arena is not an object"]
    config = section.get("config")
    if not isinstance(config, dict):
        errors.append("arena.config is not an object")
        config = {}
    for key in ("users", "types", "tasks_per_type", "epoch_max_events"):
        value = config.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            errors.append(f"arena.config.{key} must be a positive int")
    if config.get("attack") not in ("sybil", "collusion", "churn"):
        errors.append("arena.config.attack must be one of sybil/collusion/churn")
    stream = section.get("stream")
    if not isinstance(stream, dict):
        errors.append("arena.stream is not an object")
        stream = {}
    for key in ("clean_sha256", "attacked_sha256"):
        value = stream.get(key)
        if not isinstance(value, str) or len(value) != 64:
            errors.append(f"arena.stream.{key} must be a sha256 hex digest")
    for key in ("clean_events", "attacked_events"):
        value = stream.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            errors.append(f"arena.stream.{key} must be a positive int")
    if not isinstance(stream.get("schedule"), dict):
        errors.append("arena.stream.schedule is not an object")
    mechanisms = section.get("mechanisms")
    if not isinstance(mechanisms, dict):
        errors.append("arena.mechanisms is not an object")
        mechanisms = {}
    if len(mechanisms) < 4:
        errors.append(
            "arena.mechanisms must cover at least 4 mechanisms "
            f"(got {len(mechanisms)})"
        )
    if "rit" not in mechanisms:
        errors.append("arena.mechanisms must include 'rit'")
    for name, entry in mechanisms.items():
        where = f"arena.mechanisms.{name}"
        if name not in _ARENA_MECHANISMS:
            errors.append(f"{where}: unknown mechanism")
            continue
        if not isinstance(entry, dict):
            errors.append(f"{where} is not an object")
            continue
        if entry.get("accounting") not in ("cumulative", "incremental"):
            errors.append(
                f"{where}.accounting must be cumulative or incremental"
            )
        for side in ("clean", "attacked"):
            run = entry.get(side)
            if not isinstance(run, dict):
                errors.append(f"{where}.{side} is not an object")
                continue
            for key in ("epochs", "completed_epochs", "tasks_allocated"):
                value = run.get(key)
                if (
                    not isinstance(value, int)
                    or isinstance(value, bool)
                    or value < 0
                ):
                    errors.append(
                        f"{where}.{side}.{key} must be a non-negative int"
                    )
            for key in ("total_payment", "auction_payment", "platform_utility"):
                if not isinstance(run.get(key), float):
                    errors.append(f"{where}.{side}.{key} must be a float")
            sha = run.get("stream_sha256")
            if not isinstance(sha, str) or len(sha) != 64:
                errors.append(
                    f"{where}.{side}.stream_sha256 must be a sha256 hex digest"
                )
            elif isinstance(stream.get(f"{side}_sha256"), str) and (
                sha != stream[f"{side}_sha256"]
            ):
                errors.append(
                    f"{where}.{side}.stream_sha256 diverges from the match "
                    "reference — the mechanism saw a different stream"
                )
        budget = entry.get("budget")
        if not isinstance(budget, dict):
            errors.append(f"{where}.budget is not an object")
        elif budget.get("checked") is True and budget.get("consistent") is not True:
            errors.append(
                f"{where}.budget.consistent must be true — the committed "
                "document is the budget-consistency acceptance record"
            )
    determinism = section.get("determinism")
    if not isinstance(determinism, dict):
        errors.append("arena.determinism is not an object")
    else:
        runs = determinism.get("runs")
        if not isinstance(runs, int) or isinstance(runs, bool) or runs < 2:
            errors.append("arena.determinism.runs must be an int >= 2")
        if determinism.get("bit_identical") is not True:
            errors.append(
                "arena.determinism.bit_identical must be true — a committed "
                "non-deterministic scorecard is a regression"
            )
        sha = determinism.get("canonical_sha256")
        if not isinstance(sha, str) or len(sha) != 64:
            errors.append(
                "arena.determinism.canonical_sha256 must be a sha256 hex digest"
            )
    gains = section.get("sybil_gains")
    if gains is not None:
        if not isinstance(gains, dict):
            errors.append("arena.sybil_gains is not an object")
        else:
            for name, gain in gains.items():
                if not isinstance(gain, float):
                    errors.append(
                        f"arena.sybil_gains.{name} must be a float"
                    )
        if section.get("rit_sybil_gain_minimal") is not True:
            errors.append(
                "arena.rit_sybil_gain_minimal must be true — RIT must win "
                "or tie on sybil gain in the committed scorecard"
            )
    return errors


_SECTION_VALIDATORS = {
    "service": _validate_service_section,
    "service_slo": _validate_service_slo_section,
    "analysis": _validate_analysis_section,
    "sentinel": _validate_sentinel_section,
    "arena": _validate_arena_section,
}
