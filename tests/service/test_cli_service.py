"""CLI coverage for ``rit serve``, ``rit loadgen`` and ``rit top``."""

import json

from repro.cli import build_parser, main


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.smoke is False
        assert args.epoch_events == 64
        assert args.ledger is None
        assert args.metrics_port is None
        assert args.metrics_host == "127.0.0.1"
        assert args.probe_metrics is False
        # One engine, one sharded epoch path: nothing left to select.
        assert not hasattr(args, "engine") and not hasattr(args, "no_shard")

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.command == "loadgen"
        assert args.bench is False
        assert args.users == 26000
        assert args.min_events is None
        assert not hasattr(args, "engine") and not hasattr(args, "no_shard")

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.command == "top"
        assert args.url is None
        assert args.trace is None
        assert args.interval == 2.0
        assert args.once is False


class TestServe:
    def test_smoke_differential_gate_passes(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "differential check OK" in out

    def test_smoke_writes_ledger_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "service_trace.jsonl"
        code = main(
            [
                "serve",
                "--smoke",
                "--ledger",
                str(tmp_path / "ledger"),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ledger ->" in out
        assert trace_path.exists()
        runs = list((tmp_path / "ledger").iterdir())
        assert len(runs) == 1
        assert (runs[0] / "epochs.jsonl").exists()
        assert (runs[0] / "meta.json").exists()

    def test_rerun_into_the_same_ledger_is_refused(self, tmp_path, capsys):
        argv = ["serve", "--smoke", "--ledger", str(tmp_path)]
        assert main(argv) == 0
        (run,) = tmp_path.iterdir()
        epochs = (run / "epochs.jsonl").read_bytes()
        meta = (run / "meta.json").read_bytes()
        capsys.readouterr()
        assert main(argv) != 0
        out = capsys.readouterr().out
        assert "rit serve:" in out and str(run / "epochs.jsonl") in out
        assert (run / "epochs.jsonl").read_bytes() == epochs
        assert (run / "meta.json").read_bytes() == meta

    def test_smoke_with_metrics_probe(self, capsys):
        code = main(["serve", "--smoke", "--metrics-port", "0",
                     "--probe-metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics endpoint" in out
        assert "metrics probe OK" in out
        assert "differential check OK" in out

    def test_probe_requires_metrics_port(self, capsys):
        assert main(["serve", "--smoke", "--probe-metrics"]) == 2
        assert "--metrics-port" in capsys.readouterr().out


class TestTop:
    def test_renders_service_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "service_trace.jsonl"
        assert main(
            ["serve", "--smoke", "--trace-out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(["top", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "phase: trace" in out
        assert "SLO" in out

    def test_requires_a_source(self, capsys):
        assert main(["top"]) == 2
        assert "exactly one" in capsys.readouterr().out


class TestLoadgen:
    def test_small_run_reports_throughput(self, capsys):
        code = main(
            [
                "loadgen",
                "--users", "400",
                "--types", "2",
                "--tasks-per-type", "6",
                "--epoch-events", "256",
                "--queue", "512",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events/s" in out
        assert "epoch latency" in out

    def test_bench_merges_service_section(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_RIT.json"
        code = main(
            [
                "loadgen",
                "--users", "400",
                "--types", "2",
                "--tasks-per-type", "6",
                "--epoch-events", "256",
                "--queue", "512",
                "--min-events", "0",
                "--bench",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["service"]["events"]["generated"] >= 400
        assert (
            doc["service"]["events"]["offered"]
            == doc["service"]["events"]["accepted"]
            + doc["service"]["events"]["invalid"]
            + doc["service"]["events"]["rejected"]
        )

    def test_bench_merges_service_slo_section(self, tmp_path, capsys):
        from repro.devtools.bench import _validate_service_slo_section

        out_path = tmp_path / "BENCH_RIT.json"
        code = main(
            [
                "loadgen",
                "--users", "400",
                "--types", "2",
                "--tasks-per-type", "6",
                "--epoch-events", "256",
                "--queue", "512",
                "--min-events", "0",
                "--bench",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "service_slo sections merged" in out
        assert "slo ingest" in out
        doc = json.loads(out_path.read_text())
        slo = doc["service_slo"]
        assert _validate_service_slo_section(slo) == []
        assert slo["epochs_closed"] == doc["service"]["epochs"]["count"]
        assert slo["epoch"]["count"] == slo["epochs_closed"]
