"""Performance baseline for the RIT auction engine (``rit bench``).

Runs the :mod:`benchmarks.test_scaling` hero workload — a full RIT run at a
configurable scale (default: the ``test_full_rit_run_2k_users`` shape of
2 000 users, 10 types, 100 tasks per type) — once per engine, and emits a
machine-readable document (``BENCH_RIT.json``) so future PRs can track the
performance trajectory:

* per-engine wall-clock seconds (p50 / p95 / mean / min) and ops/sec over
  ``reps`` repetitions with distinct run seeds;
* per-stage totals (sample / consensus / select / consume) for the
  presorted engines, p50 / p95 across repetitions;
* the sorted-vs-reference and columnar-vs-sorted speedups and the speedup
  of the fastest measured presorted engine against the recorded pre-engine
  baseline (:data:`PRE_PR_BASELINE`).

Engines outside the requested subset (``rit bench --engine``) are recorded
as ``{"skipped": true}`` so the document always lists the full registry —
the 1M-user scenario must not drag the pure-Python reference engine
through its repetitions just to stay schema-complete.

The ``columnar`` engine is timed against a store built **once** before the
repetitions (``run(..., columnar_store=...)``), matching the epoch
service's amortization; the build cost and footprint are recorded on the
engine document as ``store_build_seconds`` / ``store_bytes``.

Larger workloads land in the document's ``scenarios`` section (one entry
per :data:`SCENARIO_PRESETS` name via ``rit bench --scenario``), keeping
the top-level 2k hero workload comparable across PRs.

:func:`validate_bench_schema` is the committed document's schema check,
exercised by the tier-1 suite (``tests/devtools/test_bench.py``) and the
``make bench-smoke`` gate (``rit bench --smoke``).
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.columnar import AskProfile, ColumnarStore
from repro.core.engine import STAGE_NAMES
from repro.core.exceptions import ConfigurationError
from repro.core.rit import ENGINES, RIT
from repro.core.types import Job
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PRE_PR_BASELINE",
    "SCENARIO_PRESETS",
    "latency_summary",
    "run_scaling_bench",
    "run_scenario_bench",
    "validate_bench_schema",
    "write_bench",
]

#: Bump when the JSON layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Wall-clock p50 of the 2k-user workload measured on the commit *before*
#: the incremental sorted engine landed (full per-round argsort auction +
#: node-at-a-time tree payments), interleaved with the new engine on the
#: same machine (warmup + 25 reps, run seeds 0..24, scenario seed 2).
#: Recorded here so every regenerated ``BENCH_RIT.json`` carries the
#: before/after pair; see EXPERIMENTS.md ("Performance") for the protocol.
PRE_PR_BASELINE: Dict[str, Any] = {
    "total_p50_seconds": 0.0113,
    "auction_p50_seconds": 0.0042,
    "commit": "1f8922f",
    "workload": "users=2000 types=10 tasks_per_type=100 until-complete",
}

#: Named scale points for the document's ``scenarios`` section
#: (``rit bench --scenario``).  The reference engine is skipped at scale —
#: re-sorting the unit pool every round at 100k+ users contributes nothing
#: to the trajectory the section tracks (columnar vs sorted).
SCENARIO_PRESETS: Dict[str, Dict[str, Any]] = {
    "100k": {
        "users": 100_000,
        "types": 10,
        "tasks_per_type": 100,
        "reps": 5,
        "seed": 0,
        "scenario_seed": 2,
        "engines": ("sorted", "columnar"),
        "round_budget": "until-complete",
    },
    "1m": {
        "users": 1_000_000,
        "types": 10,
        "tasks_per_type": 100,
        "reps": 3,
        "seed": 0,
        "scenario_seed": 2,
        "engines": ("sorted", "columnar"),
        "round_budget": "until-complete",
    },
}


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        raise ConfigurationError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


def _summary(samples: Sequence[float]) -> Dict[str, float]:
    return {
        "p50": _percentile(samples, 0.50),
        "p95": _percentile(samples, 0.95),
        "mean": float(sum(samples) / len(samples)),
        "min": float(min(samples)),
    }


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p95/mean/min of a latency sample set (nearest-rank percentiles).

    The public face of the bench summary used by the serving-path bench
    (``rit loadgen --bench``); an empty sample set (a run with zero
    epochs) summarizes to all-zero rather than erroring, so bench
    documents stay schema-valid on degenerate configs.
    """
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "mean": 0.0, "min": 0.0}
    return _summary(samples)


def _machine_info() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def run_scaling_bench(
    *,
    users: int = 2_000,
    types: int = 10,
    tasks_per_type: int = 100,
    reps: int = 15,
    seed: int = 0,
    scenario_seed: int = 2,
    engines: Sequence[str] = ENGINES,
    round_budget: str = "until-complete",
) -> Dict[str, Any]:
    """Time a full RIT run per engine and return the bench document.

    Each repetition reuses the same scenario (workload generation is not
    what is being measured) but runs the mechanism with a distinct run
    seed ``seed + rep`` so round counts vary realistically.  The default
    ``scenario_seed=2`` reproduces the exact workload of
    ``benchmarks/test_scaling.py::test_full_rit_run_2k_users`` so the
    numbers are comparable to :data:`PRE_PR_BASELINE`.

    Registry engines outside ``engines`` are recorded as
    ``{"skipped": true}``.  Every engine's untimed warmup run builds the
    per-type pools its profile caches, so the timed runs are steady state.
    The columnar engine runs against a store built once before the
    repetitions (the epoch service's amortization), from a profile whose
    caches are cold; its document carries ``store_build_seconds`` and
    ``store_bytes``.
    """
    if reps <= 0:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    for engine in engines:
        if engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
    if not engines:
        raise ConfigurationError("at least one engine must be benchmarked")
    job = Job.uniform(types, tasks_per_type)
    scenario = paper_scenario(
        users,
        job,
        rng=scenario_seed,
        distribution=UserDistribution(num_types=types),
    )
    asks = scenario.truthful_asks()

    engine_docs: Dict[str, Any] = {}
    for engine in ENGINES:
        if engine not in engines:
            engine_docs[engine] = {"skipped": True}
            continue
        mech = RIT(round_budget=round_budget, engine=engine)
        store: Optional[ColumnarStore] = None
        extra: Dict[str, Any] = {}
        run_kwargs: Dict[str, Any] = {}
        if engine == "columnar":
            # A profile over the same columns whose pools are not built yet:
            # the earlier engines' runs have warmed the caches of ``asks``.
            fresh = AskProfile(asks.uids, asks.types, asks.ask_values, asks.caps)
            t_build = time.perf_counter()
            store = ColumnarStore.build(job, fresh, scenario.tree)
            extra = {
                "store_build_seconds": time.perf_counter() - t_build,
                "store_bytes": store.nbytes,
            }
            run_kwargs["columnar_store"] = store
        # One untimed warmup run: first-call costs (allocator growth, numpy
        # ufunc caches) are not part of the steady-state trajectory.
        mech.run(
            job, asks, scenario.tree, np.random.default_rng(seed), **run_kwargs
        )
        totals: List[float] = []
        auctions: List[float] = []
        stage_samples: Dict[str, List[float]] = {s: [] for s in STAGE_NAMES}
        completed = True
        for rep in range(reps):
            t0 = time.perf_counter()
            out = mech.run(
                job,
                asks,
                scenario.tree,
                np.random.default_rng(seed + rep),
                **run_kwargs,
            )
            totals.append(time.perf_counter() - t0)
            auctions.append(out.elapsed_auction)
            completed = completed and out.completed
            for stage in STAGE_NAMES:
                if stage in out.stage_timings:
                    stage_samples[stage].append(out.stage_timings[stage])
        doc: Dict[str, Any] = {
            "completed_all_reps": completed,
            "seconds": _summary(totals),
            "auction_seconds": _summary(auctions),
            "ops_per_sec": 1.0 / _percentile(totals, 0.50),
            "stages": {
                stage: _summary(samples)
                for stage, samples in stage_samples.items()
                if samples
            },
            **extra,
        }
        engine_docs[engine] = doc

    result: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "full_rit_run",
        "config": {
            "users": users,
            "types": types,
            "tasks_per_type": tasks_per_type,
            "reps": reps,
            "seed": seed,
            "scenario_seed": scenario_seed,
            "round_budget": round_budget,
        },
        "machine": _machine_info(),
        "engines": engine_docs,
        "pre_pr_baseline": dict(PRE_PR_BASELINE),
    }
    def _measured(name: str) -> Optional[Dict[str, Any]]:
        doc = engine_docs.get(name)
        return doc if doc is not None and not doc.get("skipped") else None

    sorted_doc = _measured("sorted")
    reference_doc = _measured("reference")
    columnar_doc = _measured("columnar")
    if sorted_doc is not None and reference_doc is not None:
        result["speedup_sorted_vs_reference"] = (
            reference_doc["seconds"]["p50"] / sorted_doc["seconds"]["p50"]
        )
    if sorted_doc is not None and columnar_doc is not None:
        result["speedup_columnar_vs_sorted"] = (
            sorted_doc["seconds"]["p50"] / columnar_doc["seconds"]["p50"]
        )
    # The pre-PR ratio measures the repo's production fast path, which is
    # whichever presorted engine is quickest on this box (columnar once it
    # exists) — the reference engine is a correctness anchor, never a path.
    fast_p50 = min(
        (d["seconds"]["p50"] for d in (sorted_doc, columnar_doc) if d),
        default=None,
    )
    if fast_p50 is not None:
        result["speedup_vs_pre_pr"] = (
            PRE_PR_BASELINE["total_p50_seconds"] / fast_p50
        )
    return result


def run_scenario_bench(name: str) -> Dict[str, Any]:
    """Run one :data:`SCENARIO_PRESETS` workload for the ``scenarios`` section.

    Returns the scenario sub-document: the scenario's ``config`` and
    ``engines`` blocks plus any speedup ratios — machine and baseline info
    stay top-level (they are identical across scenarios).
    """
    preset = SCENARIO_PRESETS.get(name)
    if preset is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from "
            f"{sorted(SCENARIO_PRESETS)}"
        )
    doc = run_scaling_bench(**preset)
    out = {"config": doc["config"], "engines": doc["engines"]}
    for key, value in doc.items():
        if key.startswith("speedup_") and key != "speedup_vs_pre_pr":
            out[key] = value
    return out


def write_bench(result: Mapping[str, Any], path: str) -> None:
    """Serialize a bench document to ``path`` (pretty, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")


def validate_bench_schema(doc: Any) -> List[str]:
    """Return a list of schema violations (empty when the document is valid).

    Intentionally dependency-free (no jsonschema): the checks mirror what
    :func:`run_scaling_bench` emits and what the trajectory tooling reads.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]

    def _require(key: str, kind: type) -> Optional[Any]:
        if key not in doc:
            errors.append(f"missing key {key!r}")
            return None
        if not isinstance(doc[key], kind):
            errors.append(f"{key!r} is not a {kind.__name__}")
            return None
        return doc[key]

    version = _require("schema_version", int)
    if version is not None and version != BENCH_SCHEMA_VERSION:
        errors.append(
            f"schema_version {version} != expected {BENCH_SCHEMA_VERSION}"
        )
    config = _require("config", dict)
    if config is not None:
        for key in ("users", "types", "tasks_per_type", "reps"):
            if not isinstance(config.get(key), int) or config[key] <= 0:
                errors.append(f"config.{key} must be a positive int")
        for key in ("seed", "scenario_seed"):
            if not isinstance(config.get(key), int):
                errors.append(f"config.{key} must be an int")
    machine = _require("machine", dict)
    if machine is not None:
        for key in ("platform", "python", "numpy"):
            if not isinstance(machine.get(key), str):
                errors.append(f"machine.{key} must be a string")
    baseline = _require("pre_pr_baseline", dict)
    if baseline is not None:
        if not isinstance(baseline.get("total_p50_seconds"), float):
            errors.append("pre_pr_baseline.total_p50_seconds must be a float")
    engines = _require("engines", dict)
    if engines is not None:
        errors.extend(_validate_engines_block(engines, "engines"))
    if "scenarios" in doc:
        errors.extend(_validate_scenarios_section(doc["scenarios"]))
    if "service" in doc:
        errors.extend(_validate_service_section(doc["service"]))
    if "service_slo" in doc:
        errors.extend(_validate_service_slo_section(doc["service_slo"]))
    if "analysis" in doc:
        errors.extend(_validate_analysis_section(doc["analysis"]))
    if "sentinel" in doc:
        errors.extend(_validate_sentinel_section(doc["sentinel"]))
    if "arena" in doc:
        errors.extend(_validate_arena_section(doc["arena"]))
    return errors


def _validate_engines_block(engines: Any, where: str) -> List[str]:
    """Schema of an ``engines`` mapping (top-level or per scenario).

    Engines recorded as ``{"skipped": true}`` are legal placeholders for
    registry engines a run chose not to measure, but at least one engine
    must carry measurements.
    """
    errors: List[str] = []
    if not isinstance(engines, dict):
        return [f"{where} is not an object"]
    if not engines:
        return [f"{where} is empty"]
    measured = 0
    for name, engine_doc in engines.items():
        prefix = f"{where}.{name}"
        if name not in ENGINES:
            errors.append(f"{prefix}: unknown engine")
            continue
        if not isinstance(engine_doc, dict):
            errors.append(f"{prefix} is not an object")
            continue
        if engine_doc.get("skipped") is True:
            if set(engine_doc) != {"skipped"}:
                errors.append(
                    f"{prefix}: a skipped engine must carry no measurements"
                )
            continue
        measured += 1
        if engine_doc.get("completed_all_reps") is not True:
            errors.append(f"{prefix}.completed_all_reps must be true")
        for block in ("seconds", "auction_seconds"):
            summary = engine_doc.get(block)
            if not isinstance(summary, dict):
                errors.append(f"{prefix}.{block} is not an object")
                continue
            for stat in ("p50", "p95", "mean", "min"):
                value = summary.get(stat)
                if not isinstance(value, float) or value < 0.0:
                    errors.append(
                        f"{prefix}.{block}.{stat} must be a "
                        "non-negative float"
                    )
        ops = engine_doc.get("ops_per_sec")
        if not isinstance(ops, float) or ops <= 0.0:
            errors.append(f"{prefix}.ops_per_sec must be a positive float")
        stages = engine_doc.get("stages")
        if not isinstance(stages, dict):
            errors.append(f"{prefix}.stages is not an object")
        else:
            for stage in stages:
                if stage not in STAGE_NAMES:
                    errors.append(f"{prefix}.stages.{stage}: unknown stage")
            if name in ("sorted", "columnar") and set(stages) != set(
                STAGE_NAMES
            ):
                errors.append(
                    f"{prefix}.stages must cover all of {STAGE_NAMES}"
                )
        if name == "columnar":
            build = engine_doc.get("store_build_seconds")
            if not isinstance(build, float) or build < 0.0:
                errors.append(
                    f"{prefix}.store_build_seconds must be a "
                    "non-negative float"
                )
            size = engine_doc.get("store_bytes")
            if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
                errors.append(f"{prefix}.store_bytes must be a positive int")
    if not measured:
        errors.append(f"{where}: every engine is skipped")
    return errors


def _validate_scenarios_section(section: Any) -> List[str]:
    """Schema of the optional ``scenarios`` section (``rit bench --scenario``)."""
    errors: List[str] = []
    if not isinstance(section, dict):
        return ["scenarios is not an object"]
    for name, sub in section.items():
        prefix = f"scenarios.{name}"
        if name not in SCENARIO_PRESETS:
            errors.append(f"{prefix}: unknown scenario preset")
        if not isinstance(sub, dict):
            errors.append(f"{prefix} is not an object")
            continue
        config = sub.get("config")
        if not isinstance(config, dict):
            errors.append(f"{prefix}.config is not an object")
        else:
            for key in ("users", "types", "tasks_per_type", "reps"):
                if not isinstance(config.get(key), int) or config[key] <= 0:
                    errors.append(f"{prefix}.config.{key} must be a positive int")
        errors.extend(
            _validate_engines_block(sub.get("engines"), f"{prefix}.engines")
        )
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
    for key in ("epochs_closed", "shards_run"):
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"service_slo.{key} must be a non-negative int")
    for block_name in ("ingest", "epoch", "shard", "queue_depth", "batch_events"):
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
