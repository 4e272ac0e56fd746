"""Self-tests of the benchmark on its toy presets.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, harness, layers, loads  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.harness import E2E, WORK_DIR  # noqa: E402
from perfbench.inputs import PRESETS, TOY_PRESETS, make_inputs  # noqa: E402
from perfbench.layers import PER_LAYER, self_times, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(capsys, workload: str, *, trace: int = 0, seed: int = 0):
    """Run a toy preset in this process: (exit code, output lines, result)."""
    code = bench.main([
        "--workload", workload, "--toy", "--seed", str(seed),
        "--seconds", "2", "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_declared_metrics_match_the_spec():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(PRESETS) == list(TOY_PRESETS)


@pytest.mark.parametrize("workload", PRESETS)
def test_every_end_to_end_metric_prints_with_its_unit(capsys, workload):
    code, lines, result = toy(capsys, workload)
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in E2E}
    for name, unit in E2E:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and line.rstrip().endswith(unit) for line in lines)
    assert any("(pinned)" in line or "digests pinned for" in line for line in lines)
    assert any(line.strip().startswith("latency samples") and "tail is p" in line for line in lines)


@pytest.mark.parametrize("workload", PRESETS)
def test_every_layer_metric_prints_in_the_traced_run(capsys, workload):
    code, lines, result = toy(capsys, workload, trace=1)
    assert code == 0, "\n".join(lines)
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _, _ in PER_LAYER}
    for name, unit, _ in PER_LAYER:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] for line in lines)
    assert any(line.strip().startswith("unattributed share") for line in lines)
    share = result["metrics"]["trace.unattributed_share"]["value"]
    assert 0.0 <= share < 1.0


def test_pinned_toy_digests_pass(capsys):
    code, lines, result = toy(capsys, "live-churn", seed=1)
    assert code == 0 and result["correct"], "\n".join(lines)
    assert any("(pinned)" in line for line in lines)


def test_corrupted_pin_fails_the_run(capsys, monkeypatch):
    pins = checks.load_pins()
    pins["toy:live-paced"]["0"] = "0" * 64
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / "corrupt-pins.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(checks, "PINS_PATH", path)
    try:
        code, lines, result = toy(capsys, "live-paced")
    finally:
        path.unlink()
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert any("!= pinned" in line for line in lines)


def test_injected_refused_event_fails_the_run(capsys, monkeypatch):
    from repro.service.events import AskSubmitted

    def with_refusal(preset, seed):
        """The generated stream plus a second ask of its first user, mid-stream."""
        inputs = make_inputs(preset, seed)
        events = inputs.events
        first = next(event for event in events if isinstance(event, AskSubmitted))
        at = len(events) // 2
        events.insert(at, dataclasses.replace(first, tick=events[at - 1].tick))
        inputs.position = {id(event): index for index, event in enumerate(events)}
        return inputs

    monkeypatch.setattr(harness, "make_inputs", with_refusal)
    code, lines, result = toy(capsys, "live-churn")
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_exits_without_result_when_the_program_is_missing():
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "live-paced",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_withdrawals_are_never_refused():
    from repro.service.events import Withdrawal
    from repro.service.state import ServiceState

    inputs = make_inputs(TOY_PRESETS["live-churn"], 3)
    state = ServiceState(inputs.job)
    assert sum(isinstance(event, Withdrawal) for event in inputs.events) == 200
    assert all(state.apply(event) is None for event in inputs.events)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(63) == 84
    assert tail_percentile(126) == 92
    assert tail_percentile(11) == 50
    for count in range(21, 400):
        pct = tail_percentile(count)
        assert count - (pct * count + 99) // 100 >= 10


def test_self_times_charge_the_innermost_span():
    spans = [
        ("outer", 0.0, 10.0, 1, 0, None, 0),
        ("inner", 2.0, 4.0, 1, 0, None, 0),
        ("innermost", 3.0, 3.5, 1, 0, None, 0),
        ("later", 11.0, 14.0, 1, 0, None, 0),
    ]
    own = self_times(spans, 0.0, 12.0)
    assert own == {"outer": 8.0, "inner": 1.5, "innermost": 0.5, "later": 1.0}


def test_unwrapped_loop_code_shows_as_unattributed():
    """Loop code no wrapped entry point covers is not charged to a waiting put."""
    rec = layers.Recorder()

    async def main():
        queue = asyncio.Queue(1)
        await queue.put(0)

        async def consumer():
            await asyncio.sleep(0.01)
            spin(0.05)  # on the loop thread, inside no wrapped call
            queue.get_nowait()

        task = asyncio.ensure_future(consumer())
        await queue.put(1)  # the queue is full: a backpressure wait
        await task

    with layers.installed(rec):
        lo = time.perf_counter()
        layers.traced_runner(rec)(main())
        hi = time.perf_counter()
    metrics = layers.layer_metrics(rec, [(lo, hi)])
    assert metrics["frontend.backpressure_wait_s"] >= 0.05
    assert metrics["trace.unattributed_s"] >= 0.05


def test_columnar_store_built_on_the_pool_counts_as_build(capsys, monkeypatch):
    from repro.core.rit import RIT

    # The columnar engine builds its store on the shard pool, not the loop.
    monkeypatch.setattr(loads, "RIT", functools.partial(RIT, engine="columnar"))
    code, lines, result = toy(capsys, "live-paced", trace=1)
    assert code == 0 and result["correct"], "\n".join(lines)
    assert result["metrics"]["core.build_busy_s"]["value"] > 0


@pytest.mark.parametrize("workload", ["live-paced", "live-churn"])
def test_probed_pass_times_one_kernel_after_each_epoch(tmp_path, workload):
    preset = TOY_PRESETS[workload]
    inputs = make_inputs(preset, 0)
    service, ledger, _ = loads.live_setup(preset, inputs, 0, tmp_path, "probed")
    one = loads.run_live_pass(preset, inputs, service, ledger, probe=True)
    assert len(one.kernels) == len(one.report.epochs) == inputs.expected_epochs
    assert all(kernel > 0 for kernel in one.kernels)


def test_pass_factor_drops_one_interrupted_kernel():
    from perfbench.speed import REFERENCE_S, pass_factor

    assert pass_factor([0.005, 0.003, 0.005, 0.1, 0.005]) == pytest.approx(REFERENCE_S / 0.005)


def test_per_epoch_medians_take_each_epoch_over_the_passes():
    passes = [[1.0, 5.0, 9.0], [2.0, 4.0, 30.0], [3.0, 6.0, 8.0]]
    assert harness._per_epoch_medians(passes) == [2.0, 5.0, 9.0]


def test_a_missing_entry_point_marks_its_layer_absent(monkeypatch):
    ghost = layers.Target("ghost", "ghost.call", "repro.core.rit", "no_such_function")
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (ghost,))
    rec = layers.Recorder()
    with layers.installed(rec):
        pass
    assert rec.absent == [ghost]
    assert layers.absent_layers(rec) == ["ghost"]
