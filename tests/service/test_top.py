"""`rit top` frame reconstruction and rendering (`repro.service.top`)."""

from repro.core.rit import RIT
from repro.obs import Tracer
from repro.service import (
    MechanismService,
    ServiceConfig,
    frames_from_trace,
    render_frames,
    run_top,
    seeded_stream,
)


def traced_run(seed=0, users=100, types=3, tasks_per_type=5):
    job, events = seeded_stream(
        seed, users, types, tasks_per_type, graph="twitter", withdraw_fraction=0.0
    )
    tracer = Tracer("top-test", seed=seed)
    mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
    service = MechanismService(
        mechanism,
        job,
        ServiceConfig(seed=seed, epoch_max_events=32),
        tracer=tracer,
    )
    report = service.serve_stream(events)
    return tracer, service, report


class TestFramesFromTrace:
    def test_rebuilds_live_frames(self):
        tracer, service, report = traced_run()
        payload = frames_from_trace(tracer.events)
        assert payload["phase"] == "trace"
        live = service.telemetry.recent_frames()
        assert len(payload["frames"]) == len(live) == len(report.epochs)
        for rebuilt, frame in zip(payload["frames"], live):
            assert rebuilt["epoch"] == frame["epoch"]
            assert rebuilt["batch_events"] == frame["batch_events"]
            assert rebuilt["users"] == frame["users"]
            # The deterministic gauge surface survives the round trip.
            assert rebuilt["gauges"] == frame["gauges"]

    def test_slo_re_derived_through_same_histograms(self):
        tracer, service, _ = traced_run()
        payload = frames_from_trace(tracer.events)
        live = service.telemetry.slo_summary()
        for key in ("ingest", "epoch"):
            assert payload["slo"][key] == live[key]

    def test_empty_trace(self):
        payload = frames_from_trace([])
        assert payload["frames"] == []
        assert payload["slo"]["epochs_closed"] == 0


class TestRenderFrames:
    def test_table_contains_every_epoch_and_slo(self):
        tracer, _, report = traced_run()
        text = render_frames(frames_from_trace(tracer.events))
        lines = text.splitlines()
        assert "epoch" in lines[0] and "win@d1" in lines[0]
        # One row per epoch between header and the SLO footer.
        assert sum(
            1 for line in lines if line.strip().split() and
            line.strip().split()[0].isdigit()
        ) >= len(report.epochs)
        assert any(line.startswith("phase: trace") for line in lines)
        assert any("SLO" in line for line in lines)

    def test_empty_payload_renders_placeholder(self):
        text = render_frames({"frames": [], "phase": "serving"})
        assert "(no closed epochs yet)" in text


class TestRunTop:
    def test_requires_exactly_one_source(self, capsys):
        assert run_top() == 2
        assert run_top(url="http://x", trace="y") == 2
        assert "exactly one" in capsys.readouterr().out

    def test_renders_trace_file(self, tmp_path, capsys):
        tracer, _, report = traced_run()
        trace_path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(trace_path))
        assert run_top(trace=str(trace_path)) == 0
        out = capsys.readouterr().out
        assert "phase: trace" in out
        assert f"{report.epochs[-1].index:>5}" in out

    def test_unreadable_trace(self, tmp_path, capsys):
        assert run_top(trace=str(tmp_path / "missing.jsonl")) == 1
        assert "cannot read trace" in capsys.readouterr().out

    def test_unreachable_url(self, capsys):
        assert run_top(url="http://127.0.0.1:1") == 1
        assert "cannot reach" in capsys.readouterr().out
