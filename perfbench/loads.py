"""The benchmark's load generators and set-up, all around public service API.

* paced (``live-paced``) — open loop: events are due on a fixed schedule
  and offered with ``frontend.offer`` in bursts; the producer records how
  late it ran against the schedule.
* closed (``live-churn``) — ``frontend.put`` waits for queue space, so
  the service sets the pace.
* :func:`offline_run` — one timed ``RIT.run`` over the profile.

An untraced live pass also times one speed kernel on the loop right after
each epoch's ledger append (see :class:`TimedLedger`).

Each live pass builds a fresh :class:`MechanismService` (``serve`` runs
once per service) through :func:`live_setup`, whose duration is one
``setup_s`` sample.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.sentinel.plane import SentinelPlane
from repro.service.epochs import EpochBatch
from repro.service.events import ServiceEvent
from repro.service.ledger import OutcomeLedger
from repro.service.service import MechanismService, ServiceConfig, ServiceReport

from perfbench.speed import kernel_seconds

__all__ = [
    "TimedLedger",
    "LivePass",
    "cores",
    "reset_peak_rss",
    "peak_rss_mb",
    "live_setup",
    "run_live_pass",
    "offline_setup",
    "offline_run",
]

clock = time.perf_counter


def cores() -> int:
    """CPUs this process may run on: the shard pool is sized to them."""
    return len(os.sched_getaffinity(0))


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark (``VmHWM``) to the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class TimedLedger(OutcomeLedger):
    """The production ledger, noting when each epoch's append returned.

    With ``probe_loop`` set, each append also schedules one speed kernel
    on that event loop.  It runs before the loop resumes the service (the
    pool is idle and the producer waits), so the kernel times the
    machine's speed right after the epoch, unmixed with program code; the
    epoch's latency was stamped before it.
    """

    def __init__(self, root: Path, run_id: str) -> None:
        super().__init__(root, run_id)
        self.returned: Dict[int, float] = {}
        self.closing: Dict[int, ServiceEvent] = {}
        self.kernels: Dict[int, float] = {}
        self.probe_loop: Optional[asyncio.AbstractEventLoop] = None

    def append(self, batch: EpochBatch, outcome: MechanismOutcome) -> None:
        super().append(batch, outcome)
        self.returned[batch.index] = clock()
        self.closing[batch.index] = batch.events[-1]
        if self.probe_loop is not None:
            self.probe_loop.call_soon_threadsafe(self._probe, batch.index)

    def _probe(self, index: int) -> None:
        self.kernels[index] = kernel_seconds()

    def size_bytes(self) -> int:
        return self.epochs_path.stat().st_size if self.epochs_path.exists() else 0

    def discard(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def _build_service(preset, job, seed: int, work_dir: Path, run_id: str):
    mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
    ledger = TimedLedger(work_dir, run_id)
    sentinel = SentinelPlane() if preset.sentinel else None
    config = ServiceConfig(
        seed=seed,
        queue_size=preset.queue_size,
        epoch_max_events=preset.epoch_events,
        max_workers=cores(),
    )
    service = MechanismService(
        mechanism, job, config, ledger=ledger, sentinel=sentinel
    )
    return service, ledger


def live_setup(preset, inputs, seed: int, work_dir: Path, run_id: str):
    """Build the served objects plus one throwaway warm-up service.

    Returns ``(service, ledger, seconds)``; the warm-up serves the
    stream's first two epochs closed-loop and is then discarded.
    """
    t_start = clock()
    service, ledger = _build_service(preset, inputs.job, seed, work_dir, run_id)
    warm, warm_ledger = _build_service(
        preset, inputs.job, seed, work_dir, run_id + "-warmup"
    )
    head = inputs.events[: 2 * preset.epoch_events]
    asyncio.run(_closed(warm, head))
    seconds = clock() - t_start
    warm_ledger.discard()
    return service, ledger, seconds


@dataclass
class LivePass:
    """What one served pass did, as seen from outside the service."""

    report: ServiceReport
    #: (first due time or first put, last ledger append returned)
    window: Tuple[float, float]
    latencies: List[float]
    lateness: List[float] = field(default_factory=list)
    #: With ``probe``: the kernel time right after each epoch, in epoch order.
    kernels: List[float] = field(default_factory=list)
    turned_away: int = 0
    peak_rss_mb: float = 0.0
    ledger_bytes: int = 0

    @property
    def window_seconds(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def failed(self) -> int:
        """Events rejected, invalid, gated or refused."""
        return self.turned_away + self.report.refused


async def _closed(service: MechanismService, events, probed: Optional[TimedLedger] = None):
    """Closed-loop producer beside the consumer.

    Returns ``(report, turned away, starts)``; ``starts[i]`` is when the
    ``put`` of event ``i`` began.  The ``probed`` ledger times a speed
    kernel on this loop after each append.
    """
    frontend = service.frontend
    if probed is not None:
        probed.probe_loop = asyncio.get_running_loop()
    starts = [0.0] * len(events)

    async def produce() -> int:
        turned_away = 0
        for index, event in enumerate(events):
            starts[index] = clock()
            if await frontend.put(event) is not None:
                turned_away += 1
        await frontend.close()
        return turned_away

    producer = asyncio.ensure_future(produce())
    report = await service.serve()
    return report, await producer, starts


async def _paced(
    service: MechanismService, events, per_burst: int, period: float, probed: Optional[TimedLedger]
):
    """Open-loop producer on a fixed schedule beside the consumer.

    Burst ``k`` (events ``k * per_burst`` onwards) is due ``k * period``
    after the start.  Returns ``(report, turned away, start, lateness)``
    with the producer's lateness against each burst's due time.  The
    ``probed`` ledger times a speed kernel on this loop after each append.
    """
    frontend = service.frontend
    if probed is not None:
        probed.probe_loop = asyncio.get_running_loop()
    start = clock()
    lateness: List[float] = []

    async def produce() -> int:
        turned_away = 0
        for burst, first in enumerate(range(0, len(events), per_burst)):
            due = start + burst * period
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            else:
                await asyncio.sleep(0)  # late: still let the consumer run
            lateness.append(clock() - due)
            for event in events[first : first + per_burst]:
                if frontend.offer(event) is not None:
                    turned_away += 1
        await frontend.close()
        return turned_away

    producer = asyncio.ensure_future(produce())
    report = await service.serve()
    return report, await producer, start, lateness


def run_live_pass(
    preset,
    inputs,
    service: MechanismService,
    ledger: TimedLedger,
    *,
    runner: Callable = asyncio.run,
    probe: bool = False,
) -> LivePass:
    """Serve the whole stream once; latency and throughput from outside.

    Paced: one sample per epoch, from the due time of the event that
    closed it until its ledger append returned (batch fill time, set by
    the arrival rate, is left out).  Closed loop: one sample per event,
    from its ``put`` call until its epoch's append returned; the service
    sets the pace there, so the fill time is part of what an event waits.
    Throughput counts applied events over the window from the first due
    time (or first ``put``) to the last append.  With ``probe``, one speed
    kernel is timed right after each epoch's append.
    """
    events = inputs.events
    position = inputs.position
    reset_peak_rss()
    lateness: List[float] = []
    if preset.rate is not None:
        per_burst = max(1, int(round(preset.rate * preset.burst_seconds)))
        period = per_burst / preset.rate
        report, turned_away, start, lateness = runner(
            _paced(service, events, per_burst, period, ledger if probe else None)
        )
    else:
        report, turned_away, starts = runner(_closed(service, events, ledger if probe else None))
        start = starts[0]
    peak = peak_rss_mb()

    returned = ledger.returned
    epochs = sorted(returned)
    if preset.rate is not None:
        latencies = [
            returned[index]
            - (start + (position[id(ledger.closing[index])] // per_burst) * period)
            for index in epochs
        ]
    else:
        latencies = []
        first = 0
        for index in epochs:
            last = position[id(ledger.closing[index])]
            done = returned[index]
            latencies.extend(done - starts[i] for i in range(first, last + 1))
            first = last + 1
    end = max(returned.values()) if returned else float("nan")
    return LivePass(
        report=report,
        window=(start, end),
        latencies=latencies,
        lateness=lateness,
        kernels=[ledger.kernels[index] for index in epochs if index in ledger.kernels],
        turned_away=turned_away,
        peak_rss_mb=peak,
        ledger_bytes=ledger.size_bytes(),
    )


def offline_setup(inputs):
    """Build the mechanism and warm it up with one ``RIT.run``.

    Returns ``(mechanism, seconds)``: one ``setup_s`` sample.
    """
    t_start = clock()
    mechanism = RIT(round_budget="until-complete")
    mechanism.run(inputs.job, inputs.asks, inputs.tree, inputs.warmup_seed())
    return mechanism, clock() - t_start


def offline_run(mechanism: RIT, inputs, run: int):
    """Time one ``RIT.run``: ``(outcome, seconds)``; a run that raises returns its error."""
    t_start = clock()
    try:
        outcome = mechanism.run(inputs.job, inputs.asks, inputs.tree, inputs.run_seed(run))
    except Exception as err:  # a failed run is counted, not fatal
        outcome = err
    return outcome, clock() - t_start
