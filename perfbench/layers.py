"""Layer timing from outside the program.

A traced pass installs wrappers on each layer's public entry points (class
or module attributes such as ``IngestFrontend.offer`` or
``repro.service.service.run_epoch``), records one span per call — name,
start, end, thread, and the epoch or run that caused it — and removes
the wrappers afterwards.  Spans stay in memory until the run ends.

Self time: on each thread, every instant is charged to the open span of
a synchronous call that started last, so a nested call takes its own time
from its caller.  Spans of coroutines (:data:`AWAITING`) stay out of this
sweep: while one awaits, any code may run on the loop, so they are
reported as plain durations.  The only loop time they add is the own time
of ``IngestFrontend.put``, its duration less the backpressure wait inside
it.  The loop's blocking ``select`` is recorded as ``loop.idle``.  The
wall time of the traced passes less the loop thread's self times, the own
time of ``put`` and ``loop.idle`` is ``trace.unattributed_s``: loop code
that no wrapped entry point covers.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import importlib
import inspect
import json
import selectors
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.service.events import Withdrawal

__all__ = [
    "PER_LAYER",
    "TARGETS",
    "AWAITING",
    "Recorder",
    "installed",
    "traced_runner",
    "self_times",
    "tail_percentile",
    "percentile",
    "layer_metrics",
    "layer_of",
    "absent_layers",
]

clock = time.perf_counter

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("frontend.admit_calls", "count", "lower"),
    ("frontend.admit_busy_s", "s", "lower"),
    ("frontend.backpressure_wait_s", "s", "lower"),
    ("frontend.queue_wait_p50_ms", "ms", "lower"),
    ("frontend.queue_wait_tail_ms", "ms", "lower"),
    ("frontend.queue_highwater", "count", "lower"),
    ("frontend.rejected", "count", "lower"),
    ("state.apply_calls", "count", "lower"),
    ("state.apply_busy_s", "s", "lower"),
    ("state.withdraw_calls", "count", "lower"),
    ("state.withdraw_busy_s", "s", "lower"),
    ("state.refused", "count", "lower"),
    ("epochs.step_busy_s", "s", "lower"),
    ("epochs.snapshot_calls", "count", "lower"),
    ("epochs.snapshot_busy_s", "s", "lower"),
    ("workers.epoch_calls", "count", "lower"),
    ("workers.epoch_busy_s", "s", "lower"),
    ("workers.epochs_voided", "count", "lower"),
    ("core.build_busy_s", "s", "lower"),
    ("core.auction_shards", "count", "lower"),
    ("core.auction_busy_s", "s", "lower"),
    ("core.auction_rounds", "count", "lower"),
    ("core.auction_useful_round_ratio", "ratio", "higher"),
    ("core.stage_sample_s", "s", "lower"),
    ("core.stage_consensus_s", "s", "lower"),
    ("core.stage_select_s", "s", "lower"),
    ("core.stage_consume_s", "s", "lower"),
    ("core.payments_busy_s", "s", "lower"),
    ("core.payment_recipients", "count", "lower"),
    ("ledger.append_calls", "count", "lower"),
    ("ledger.append_busy_s", "s", "lower"),
    ("ledger.bytes", "bytes", "lower"),
    ("telemetry.fold_busy_s", "s", "lower"),
    ("sentinel.observe_busy_s", "s", "lower"),
    ("sentinel.fold_busy_s", "s", "lower"),
    ("sentinel.alerts", "count", "lower"),
    ("loop.late_p50_ms", "ms", "lower"),
    ("loop.late_max_ms", "ms", "lower"),
    ("loop.idle_s", "s", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module`` + dotted ``path`` inside it."""

    layer: str
    span: str
    module: str
    path: str


TARGETS: Tuple[Target, ...] = (
    Target("frontend", "frontend.offer", "repro.service.frontend", "IngestFrontend.offer"),
    Target("frontend", "frontend.put", "repro.service.frontend", "IngestFrontend.put"),
    # The frontend's bounded queue: only a put that finds it full waits.
    Target("frontend", "frontend.backpressure", "asyncio", "Queue.put"),
    Target("state", "state.apply", "repro.service.state", "ServiceState.apply"),
    Target("epochs", "epochs.step", "repro.service.epochs", "EpochPipeline.step"),
    Target("epochs", "epochs.snapshot", "repro.service.state", "ServiceState.snapshot_asks"),
    Target("epochs", "epochs.snapshot", "repro.service.state", "ServiceState.snapshot_tree"),
    Target("workers", "workers.epoch", "repro.service.service", "run_epoch"),
    Target("core.build", "core.build", "repro.service.workers", "profile_arrays"),
    Target("core.build", "core.build", "repro.service.workers", "pools_from_arrays"),
    Target("core.build", "core.build", "repro.core.rit", "profile_arrays"),
    Target("core.build", "core.build", "repro.core.rit", "pools_from_arrays"),
    Target("core.build", "core.build", "repro.core.columnar", "ColumnarStore.build"),
    # Offline: RIT.run's self time (minus shards and join) is build work.
    Target("core.build", "core.run", "repro.core.rit", "RIT.run"),
    Target("core.auction", "core.shard", "repro.core.rit", "RIT.run_type_shard"),
    Target("core.payments", "core.join", "repro.core.rit", "RIT.join_shards"),
    Target("ledger", "ledger.append", "repro.service.ledger", "OutcomeLedger.append"),
    Target("telemetry", "telemetry.fold", "repro.service.telemetry", "ServiceTelemetry.close_epoch"),
    Target("sentinel", "sentinel.observe", "repro.sentinel.plane", "SentinelPlane.observe_applied"),
    Target("sentinel", "sentinel.fold", "repro.sentinel.plane", "SentinelPlane.close_epoch"),
)

#: Spans of coroutines, reported as durations and kept out of the
#: self-time sweep (other code runs on the loop while they await).
AWAITING = ("frontend.put", "frontend.backpressure", "workers.epoch")

#: Span tuple: (name, start, end, thread ident, cause, info, pass).
Span = Tuple[str, float, float, int, int, object, int]


class Recorder:
    """In-memory span store plus the cause bookkeeping of one traced run.

    ``cause`` of a span is the epoch it belongs to (the epoch being
    filled for per-event calls, the epoch being executed for per-epoch
    calls) or, offline, the index of the ``RIT.run``.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Index of the traced pass (live) being recorded.
        self.pass_index = -1
        self.filling = 0
        self.executing = -1
        self.run = -1
        self.enqueued: Dict[int, float] = {}
        self.queue_waits: List[float] = []
        #: Total backpressure wait so far (one producer puts at a time).
        self.waited = 0.0
        self.absent: List[Target] = []

    def start_pass(self) -> None:
        """A new live pass numbers its epochs from 0 again."""
        self.pass_index += 1
        self.filling = 0
        self.executing = -1
        self.enqueued.clear()

    def record(self, name: str, start: float, end: float, cause: int, info: object = None) -> None:
        # list.append is atomic, so shard and ledger threads may record too.
        self.spans.append(
            (name, start, end, threading.get_ident(), cause, info, self.pass_index)
        )

    def write(self, path: Path, kind: str) -> None:
        """Write every span as one JSON line; ``kind`` names the cause."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, thread, cause, _, pass_index in self.spans:
                record = {"name": name, "start": start, "end": end, "thread": thread, kind: cause}
                if pass_index >= 0:
                    record["pass"] = pass_index
                handle.write(json.dumps(record))
                handle.write("\n")


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #


def _epoch_cause(rec: Recorder) -> int:
    return rec.run if rec.run >= 0 else rec.executing


def _event_cause(rec: Recorder) -> int:
    return rec.run if rec.run >= 0 else rec.filling


def _sync(rec: Recorder, target: Target, fn: Callable) -> Callable:
    span = target.span
    per_event = target.layer in ("frontend", "state", "epochs") or span == "sentinel.observe"
    cause_of = _event_cause if per_event else _epoch_cause

    if span == "state.apply":
        @functools.wraps(fn)
        def apply(self, event):
            t0 = clock()
            refused = fn(self, event)
            name = "state.withdraw" if isinstance(event, Withdrawal) else span
            rec.record(name, t0, clock(), rec.filling, refused is not None)
            return refused
        return apply

    if span == "frontend.offer":
        @functools.wraps(fn)
        def offer(self, event):
            t0 = clock()
            reason = fn(self, event)
            t1 = clock()
            if reason is None:
                rec.enqueued[id(event)] = t1
            rec.record(span, t0, t1, rec.filling)
            return reason
        return offer

    if span == "epochs.step":
        @functools.wraps(fn)
        def step(self, event):
            t0 = clock()
            admitted = rec.enqueued.pop(id(event), None)
            if admitted is not None:
                rec.queue_waits.append(t0 - admitted)
            result = fn(self, event)
            rec.record(span, t0, clock(), rec.filling)
            if result[1]:
                rec.filling = result[1][-1].batch.index + 1
            return result
        return step

    def info_of(result):
        if span == "core.shard":
            rounds = result.rounds
            return (len(rounds), sum(1 for r in rounds if r.num_winners > 0))
        if span == "core.join":
            return (len(result.payments), dict(result.stage_timings))
        return None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cause = kwargs.get("index", cause_of(rec))
        t0 = clock()
        result = fn(*args, **kwargs)
        rec.record(span, t0, clock(), cause, info_of(result))
        return result
    return wrapper


def _async(rec: Recorder, target: Target, fn: Callable) -> Callable:
    span = target.span
    if span == "frontend.backpressure":
        @functools.wraps(fn)
        async def queue_put(self, item):
            if not self.full():
                return await fn(self, item)
            t0 = clock()
            try:
                return await fn(self, item)
            finally:
                t1 = clock()
                rec.waited += t1 - t0
                rec.record(span, t0, t1, rec.filling)
        return queue_put

    if span == "frontend.put":
        @functools.wraps(fn)
        async def put(self, event):
            t0 = clock()
            waited = rec.waited
            reason = await fn(self, event)
            t1 = clock()
            if reason is None:
                rec.enqueued[id(event)] = t1
            # info: own time on the loop, the wait for queue space left out
            rec.record(span, t0, t1, rec.filling, (t1 - t0) - (rec.waited - waited))
            return reason
        return put

    @functools.wraps(fn)
    async def run_epoch(mechanism, job, snapshot, *args, **kwargs):
        rec.executing = snapshot.batch.index
        t0 = clock()
        outcome = await fn(mechanism, job, snapshot, *args, **kwargs)
        rec.record(span, t0, clock(), rec.executing, not outcome.completed)
        return outcome
    return run_epoch


def _resolve(target: Target):
    """(owner, attribute name, raw attribute) or None when it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *parents, attr = target.path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every target that still exists; restore them all on exit."""
    saved = []
    rec.absent = []
    try:
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                rec.absent.append(target)
                continue
            owner, attr, raw = found
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            make = _async if inspect.iscoroutinefunction(fn) else _sync
            wrapped = make(rec, target, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            saved.append((owner, attr, raw))
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class _IdleSelector(selectors.DefaultSelector):  # type: ignore[misc,valid-type]
    """The loop's selector, recording every blocking wait as ``loop.idle``."""

    def __init__(self, rec: Recorder) -> None:
        super().__init__()
        self._rec = rec

    def select(self, timeout=None):
        if timeout is not None and timeout <= 0:
            return super().select(timeout)
        t0 = clock()
        ready = super().select(timeout)
        self._rec.record("loop.idle", t0, clock(), -1)
        return ready


def traced_runner(rec: Recorder) -> Callable:
    """``asyncio.run`` on an event loop whose idle waits are recorded."""

    def run(coro):
        with asyncio.Runner(
            loop_factory=lambda: asyncio.SelectorEventLoop(_IdleSelector(rec))
        ) as runner:
            return runner.run(coro)

    return run


# ---------------------------------------------------------------------- #
# Reduction
# ---------------------------------------------------------------------- #


def self_times(spans: Sequence[Span], lo: float, hi: float) -> Dict[str, float]:
    """Charge each instant of [lo, hi] to the innermost open span, by name.

    ``spans`` are the synchronous spans of one thread; "innermost" is the
    open span that started last.  Instants with no open span are not
    charged.
    """
    marks = []
    for index, span in enumerate(spans):
        start, end = max(span[1], lo), min(span[2], hi)
        if end > start:
            marks.append((start, 1, index))
            marks.append((end, 0, index))
    marks.sort()
    heap: List[Tuple[float, int]] = []
    closed = set()
    totals: Dict[str, float] = defaultdict(float)
    last = lo
    for at, opening, index in marks:
        while heap and heap[0][1] in closed:
            heapq.heappop(heap)
        if heap and at > last:
            totals[spans[heap[0][1]][0]] += at - last
        last = at
        if opening:
            heapq.heappush(heap, (-spans[index][1], index))
        else:
            closed.add(index)
    return dict(totals)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    if count <= 20:
        return 50
    return int(100 * (count - 10) // count)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, int(-(-pct * len(ordered) // 100)))
    return ordered[rank - 1]


def layer_metrics(
    rec: Recorder,
    windows: Sequence[Tuple[float, float]],
    *,
    reports: Sequence = (),
    lateness: Sequence[float] = (),
    ledger_bytes: int = 0,
    alerts: int = 0,
    overhead: float = 0.0,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from the spans of the traced passes."""
    loop_thread = threading.main_thread().ident
    spans = rec.spans
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[0] not in AWAITING:
            by_thread[span[3]].append(span)

    own: Dict[str, float] = defaultdict(float)
    on_loop = 0.0
    wall = 0.0
    for lo, hi in windows:
        wall += hi - lo
        for thread, listed in by_thread.items():
            for name, seconds in self_times(listed, lo, hi).items():
                own[name] += seconds
                if thread == loop_thread:
                    on_loop += seconds
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    refused = voided = rounds = useful = recipients = 0
    put_own = 0.0
    stages: Dict[str, float] = defaultdict(float)
    for name, start, end, _, _, info, _ in spans:
        calls[name] += 1
        busy[name] += end - start
        if name in ("state.apply", "state.withdraw"):
            refused += bool(info)
        elif name == "frontend.put":
            put_own += info
        elif name == "workers.epoch":
            voided += bool(info)
        elif name == "core.shard":
            rounds += info[0]
            useful += info[1]
        elif name == "core.join":
            recipients += info[0]
            for stage, seconds in info[1].items():
                stages[stage] += seconds
    waits = rec.queue_waits
    wait_tail = tail_percentile(len(waits))
    unattributed = wall - on_loop - put_own
    return {
        "frontend.admit_calls": calls["frontend.offer"] + calls["frontend.put"],
        "frontend.admit_busy_s": own["frontend.offer"] + put_own,
        "frontend.backpressure_wait_s": busy["frontend.backpressure"],
        "frontend.queue_wait_p50_ms": 1e3 * statistics.median(waits) if waits else 0.0,
        "frontend.queue_wait_tail_ms": 1e3 * percentile(waits, wait_tail) if waits else 0.0,
        "frontend.queue_highwater": max((r.queue_highwater for r in reports), default=0),
        "frontend.rejected": sum(r.rejected for r in reports),
        "state.apply_calls": calls["state.apply"],
        "state.apply_busy_s": own["state.apply"],
        "state.withdraw_calls": calls["state.withdraw"],
        "state.withdraw_busy_s": own["state.withdraw"],
        "state.refused": refused,
        "epochs.step_busy_s": own["epochs.step"],
        "epochs.snapshot_calls": calls["epochs.snapshot"],
        "epochs.snapshot_busy_s": own["epochs.snapshot"],
        "workers.epoch_calls": calls["workers.epoch"],
        "workers.epoch_busy_s": busy["workers.epoch"],
        "workers.epochs_voided": voided,
        "core.build_busy_s": own["core.build"] + own["core.run"],
        "core.auction_shards": calls["core.shard"],
        "core.auction_busy_s": busy["core.shard"],
        "core.auction_rounds": rounds,
        "core.auction_useful_round_ratio": useful / rounds if rounds else 0.0,
        "core.stage_sample_s": stages["sample"],
        "core.stage_consensus_s": stages["consensus"],
        "core.stage_select_s": stages["select"],
        "core.stage_consume_s": stages["consume"],
        "core.payments_busy_s": own["core.join"],
        "core.payment_recipients": recipients,
        "ledger.append_calls": calls["ledger.append"],
        "ledger.append_busy_s": busy["ledger.append"],
        "ledger.bytes": ledger_bytes,
        "telemetry.fold_busy_s": own["telemetry.fold"],
        "sentinel.observe_busy_s": own["sentinel.observe"],
        "sentinel.fold_busy_s": own["sentinel.fold"],
        "sentinel.alerts": alerts,
        "loop.late_p50_ms": 1e3 * statistics.median(lateness) if lateness else 0.0,
        "loop.late_max_ms": 1e3 * max(lateness) if lateness else 0.0,
        "loop.idle_s": own["loop.idle"],
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": unattributed / wall if wall else 0.0,
        "trace.overhead_frac": overhead,
    }


def layer_of(metric: str) -> str:
    """The layer a :data:`PER_LAYER` metric belongs to."""
    if metric.startswith("core."):
        rest = metric[len("core."):]
        if rest.startswith("build"):
            return "core.build"
        if rest.startswith("payment"):
            return "core.payments"
        return "core.auction"
    return metric.split(".")[0]


def absent_layers(rec: Recorder) -> List[str]:
    """Layers whose every entry point is gone from the program."""
    present = {target.layer for target in TARGETS if target not in rec.absent}
    return sorted({target.layer for target in TARGETS} - present)
