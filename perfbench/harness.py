"""One benchmark run: inputs, set-up, timed passes, output checks, report."""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.checks import (
    RUN_DIGEST_HEX,
    check_live_replay,
    check_offline_run,
    load_pins,
    outcome_digest,
    stream_digest,
)
from perfbench.loads import (
    live_setup,
    offline_run,
    offline_setup,
    peak_rss_mb,
    reset_peak_rss,
    run_live_pass,
)
from perfbench.inputs import (
    LiveInputs,
    OfflinePreset,
    make_inputs,
    preset_for,
    units_for,
)
from perfbench.layers import (
    PER_LAYER,
    Recorder,
    absent_layers,
    installed,
    layer_metrics,
    layer_of,
    percentile,
    tail_percentile,
    traced_runner,
)
from perfbench.speed import REFERENCE_S, UNIT_KERNELS, Speed, pass_factor
from repro.service.epochs import EpochPolicy

__all__ = ["E2E", "WORK_DIR", "run"]

#: End-to-end metrics of an untraced run: (name, unit).
E2E: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Ledgers and span files of a run (ignored by git).
WORK_DIR = Path(__file__).resolve().parent / "_work"

clock = time.perf_counter


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The time metrics before scaling by the machine's speed.
    wall_clock: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Layers whose every entry point is gone from the program.
    absent: List[str] = field(default_factory=list)


def _latency_metrics(
    scaled: Sequence[float], wall: Sequence[float], result: Result, completions: int
) -> None:
    """p50 and tail of the ``scaled`` samples and of their ``wall``-clock values.

    The tail keeps ten *completions* beyond it: per-event samples of one
    epoch share its completion time, so the tail percentile counts epochs
    (or runs), not events.
    """
    pct = tail_percentile(completions)
    for metrics, values in ((result.metrics, scaled), (result.wall_clock, wall)):
        metrics["latency_p50_ms"] = 1e3 * statistics.median(values)
        metrics["latency_tail_ms"] = 1e3 * percentile(values, pct)
    result.notes.append(
        f"latency samples {len(scaled)} over {completions} completions; tail is p{pct}"
    )


def _per_epoch_medians(passes: Sequence[Sequence[float]]) -> List[float]:
    """For each epoch of the stream, the median of its samples over the passes."""
    return [statistics.median(samples) for samples in zip(*passes)]


def _setup_metric(setups: Sequence[Tuple[float, float]], result: Result) -> None:
    result.metrics["setup_s"] = statistics.median(seconds * factor for seconds, factor in setups)
    result.wall_clock["setup_s"] = statistics.median(seconds for seconds, _ in setups)


def _speed_note(probes: Sequence[float]) -> str:
    return (
        f"speed: kernel median {1e3 * statistics.median(probes):.3f} ms over "
        f"{len(probes)} probes; times scaled to {1e3 * REFERENCE_S:.3f} ms"
    )


def _spans_path(preset, seed: int) -> Path:
    return WORK_DIR / f"spans-{preset.name.replace(':', '-')}-seed{seed}.jsonl"


# ---------------------------------------------------------------------- #
# Live workloads
# ---------------------------------------------------------------------- #


def run_live(preset, inputs: LiveInputs, seed: int, units: int, pinned: Optional[str], trace: bool, work: Path) -> Result:
    result = Result()
    plan = ["plain", "traced"] * max(1, units // 2) if trace else ["plain"] * units
    # Set-up samples are spread over the run, a few before every pass; the
    # last one before a pass builds the service that pass serves.
    per_pass = 1 if trace else -(-preset.setup_samples // len(plan))
    setups: List[Tuple[float, float]] = []
    rec = Recorder()
    passes = []
    speed = Speed(UNIT_KERNELS)
    # An untraced pass times a kernel right after each epoch: probes around
    # a pass missed the speed swings within it.  A closed-loop pass is scaled
    # as a whole by them; paced epochs are scaled one by one below.
    closed = preset.rate is None
    for index, mode in enumerate(plan):
        speed.mark()
        for extra in range(per_pass - 1):
            _, ledger, seconds = live_setup(preset, inputs, seed, work, f"setup{index}-{extra}")
            setups.append((seconds, speed.factor()))
            ledger.discard()
        service, ledger, seconds = live_setup(preset, inputs, seed, work, f"pass{index}")
        setups.append((seconds, speed.factor()))
        gc.collect()
        if mode == "traced":
            rec.start_pass()
            with installed(rec):
                one = run_live_pass(preset, inputs, service, ledger, runner=traced_runner(rec))
        else:
            one = run_live_pass(preset, inputs, service, ledger, probe=True)
        factor = pass_factor(one.kernels) if closed and mode == "plain" else 1.0
        alerts = service.sentinel.alerts_total if service.sentinel is not None else 0
        passes.append((mode, one, alerts, factor))
        ledger.discard()

    # ---- output checks (off the clock) ----
    expected_events = len(inputs.events)
    digests = []
    for index, (mode, one, _, _) in enumerate(passes):
        report = one.report
        problems = []
        if report.applied != expected_events or len(report.epochs) != inputs.expected_epochs:
            problems.append(
                f"pass {index}: applied {report.applied} events in {len(report.epochs)} "
                f"epochs; the stream implies {expected_events} in {inputs.expected_epochs}"
            )
        digest = stream_digest(report.outcomes())
        digests.append(digest)
        if pinned is not None and digest != pinned:
            problems.append(f"pass {index} ({mode}): digest {digest[:16]} != pinned {pinned[:16]}")
        if digest != digests[0]:
            problems.append(f"pass {index} ({mode}): digest differs from pass 0")
        if index == 0:
            mismatches = check_live_replay(
                report.outcomes(), report.consumed, inputs.job, seed,
                EpochPolicy(max_events=preset.epoch_events),
            )
            problems.extend(f"replay: {m}" for m in mismatches[:5])
        result.attempted += report.offered
        result.failed += one.failed
        if problems:
            result.failed += report.offered - one.failed
            result.problems.extend(problems)
    result.notes.append(
        "digest " + digests[0][:16] + (" (pinned)" if pinned is not None else " (seed not pinned)")
    )
    if trace:
        same = all(digest == digests[0] for digest in digests)
        result.notes.append(f"traced passes hash the same as untraced: {'yes' if same else 'NO'}")

    plain = [(one, factor) for mode, one, _, factor in passes if mode == "plain"]
    traced = [(one, alerts) for mode, one, alerts, _ in passes if mode == "traced"]
    _setup_metric(setups, result)
    rates = [one.report.applied / one.window_seconds for one, _ in plain]
    result.metrics["throughput_per_s"] = statistics.median(
        rate / factor for rate, (_, factor) in zip(rates, plain)
    )
    if closed:
        result.wall_clock["throughput_per_s"] = statistics.median(rates)
        _latency_metrics(
            [seconds * factor for one, factor in plain for seconds in one.latencies],
            [seconds for one, _ in plain for seconds in one.latencies],
            result,
            sum(len(one.report.epochs) for one, _ in plain),
        )
    else:
        # Each epoch is scaled by the kernel timed right after it; an epoch's
        # sample is then its median over the passes, so a swing that slows
        # one pass does not move the tail.
        scaled = _per_epoch_medians([
            [seconds * REFERENCE_S / kernel for seconds, kernel in zip(one.latencies, one.kernels)]
            for one, _ in plain
        ])
        _latency_metrics(
            scaled, _per_epoch_medians([one.latencies for one, _ in plain]), result, len(scaled)
        )
        result.notes.append(f"each epoch's latency is its median over {len(plain)} passes")
    result.metrics["peak_rss_mb"] = statistics.median(one.peak_rss_mb for one, _ in plain)
    result.notes.append(f"passes {len(plain)} untraced, {len(traced)} traced; setup samples {len(setups)}")
    result.notes.append("per-pass wall-clock throughput " + " ".join(f"{rate:.1f}" for rate in rates))
    if traced:
        overhead = sum(one.window_seconds for one, _ in traced) / sum(
            one.window_seconds for one, _ in plain
        ) - 1.0
        result.metrics.update(layer_metrics(
            rec,
            [one.window for one, _ in traced],
            reports=[one.report for one, _ in traced],
            lateness=[late for one, _ in traced for late in one.lateness],
            ledger_bytes=sum(one.ledger_bytes for one, _ in traced),
            alerts=sum(alerts for _, alerts in traced),
            overhead=overhead,
        ))
        result.absent = absent_layers(rec)
        rec.write(_spans_path(preset, seed), "epoch")
    in_pass = [kernel for one, _ in plain for kernel in one.kernels]
    result.notes.append(_speed_note(speed.probes + in_pass))
    return result


# ---------------------------------------------------------------------- #
# Offline workload
# ---------------------------------------------------------------------- #


def run_offline(preset, inputs, units: int, pinned: Optional[List[str]], trace: bool) -> Result:
    result = Result()
    setups: List[Tuple[float, float]] = []
    speed = Speed(UNIT_KERNELS)
    speed.mark()
    for _ in range(1 if trace else preset.setup_samples):
        mechanism, seconds = offline_setup(inputs)
        setups.append((seconds, speed.factor()))
    gc.collect()
    rec = Recorder()
    runs = list(range(max(1, units // 2) if trace else units))
    plain_outcomes: List[object] = []
    plain_seconds: List[Tuple[float, float]] = []
    traced_outcomes: List[object] = []
    traced_seconds: List[float] = []
    windows = []
    reset_peak_rss()
    speed.mark()
    for run in runs:
        outcome, seconds = offline_run(mechanism, inputs, run)
        plain_outcomes.append(outcome)
        plain_seconds.append((seconds, speed.factor()))
        if trace:
            rec.run = run
            with installed(rec):
                lo = clock()
                outcome, seconds = offline_run(mechanism, inputs, run)
                windows.append((lo, clock()))
            traced_outcomes.append(outcome)
            traced_seconds.append(seconds)
            speed.mark()
    peak = peak_rss_mb()

    # ---- output checks (off the clock) ----
    for label, outcomes in (("run", plain_outcomes), ("traced run", traced_outcomes)):
        for run, outcome in zip(runs, outcomes):
            result.attempted += 1
            if isinstance(outcome, Exception):
                problem = f"raised {outcome!r}"
            else:
                problem = check_offline_run(outcome, inputs.job, inputs.asks)
                digest = outcome_digest(outcome)[:RUN_DIGEST_HEX]
                if problem is None and pinned is not None and run < len(pinned) and digest != pinned[run]:
                    problem = f"digest {digest} != pinned {pinned[run]}"
                if problem is None and label == "traced run":
                    if digest != outcome_digest(plain_outcomes[run])[:RUN_DIGEST_HEX]:
                        problem = "traced digest differs from the untraced run"
            if problem is not None:
                result.failed += 1
                result.problems.append(f"{label} {run}: {problem}")
    covered = min(len(runs), len(pinned)) if pinned is not None else 0
    result.notes.append(f"digests pinned for {covered} of {len(runs)} runs")

    users = len(inputs.asks)
    _setup_metric(setups, result)
    result.metrics["throughput_per_s"] = users * len(runs) / sum(
        seconds * factor for seconds, factor in plain_seconds
    )
    result.wall_clock["throughput_per_s"] = users * len(runs) / sum(
        seconds for seconds, _ in plain_seconds
    )
    _latency_metrics(
        [seconds * factor for seconds, factor in plain_seconds],
        [seconds for seconds, _ in plain_seconds],
        result,
        len(plain_seconds),
    )
    result.metrics["peak_rss_mb"] = peak
    result.notes.append(f"runs {len(runs)} over {users} users; setup samples {len(setups)}")
    if trace:
        overhead = statistics.median(traced_seconds) / statistics.median(
            seconds for seconds, _ in plain_seconds
        ) - 1.0
        result.metrics.update(layer_metrics(rec, windows, overhead=overhead))
        result.absent = absent_layers(rec)
        rec.write(_spans_path(preset, inputs.seed), "run")
    result.notes.append(_speed_note(speed.probes))
    return result


# ---------------------------------------------------------------------- #
# Entry
# ---------------------------------------------------------------------- #


def _print_table(result: Result, trace: bool) -> Dict[str, Dict[str, object]]:
    metrics: Dict[str, Dict[str, object]] = {}
    if not trace:
        for name, unit in E2E:
            value = result.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<34} {value:>14.6g} {unit}")
        return metrics
    for name, unit, _ in PER_LAYER:
        value = result.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        mark = "  (absent: entry point gone)" if layer_of(name) in result.absent else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{mark}")
    return metrics


def run(args) -> int:
    preset = preset_for(args.workload, toy=args.toy)
    inputs = make_inputs(preset, args.seed)
    # The inputs are the program's only view of the generator: freeze them
    # so the collector never walks them during a timed pass.
    gc.collect()
    gc.freeze()
    units = units_for(preset, args.seconds)
    pins = load_pins().get(preset.name, {})
    pinned = pins.get(str(args.seed))
    work = WORK_DIR / f"run-{os.getpid()}"
    print(f"workload {preset.name} seed {args.seed} seconds {args.seconds} trace {int(args.trace)}")
    print(f"  generation_s {inputs.generation_seconds:.3f} (information, not a metric)")
    try:
        if isinstance(preset, OfflinePreset):
            result = run_offline(preset, inputs, units, pinned, args.trace)
        else:
            result = run_live(preset, inputs, args.seed, units, pinned, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in result.notes:
        print(f"  {note}")
    metrics = _print_table(result, args.trace)
    print("  wall clock, not scaled: " + ", ".join(
        f"{name} {value:.6g}" for name, value in result.wall_clock.items()
    ))
    if args.trace:
        print(
            f"  unattributed share {result.metrics['trace.unattributed_share']:.2%}, "
            f"tracing overhead {result.metrics['trace.overhead_frac']:+.2%}"
        )
        for name in ("throughput_per_s", "latency_p50_ms"):
            print(f"  (untraced {name} {result.metrics[name]:.6g})")
    correct = not result.problems and result.failed == 0
    print(f"  operations attempted {result.attempted} failed {result.failed}")
    print(f"  output check: {'PASS' if correct else 'FAIL'}")
    for problem in result.problems[:20]:
        print(f"    {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1
