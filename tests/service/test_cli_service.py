"""CLI coverage for ``rit serve`` and ``rit top``."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.sentinel import (
    ATTACK_SCENARIOS,
    CLEAN_SCENARIOS,
    DEFAULT_DETECTION_BUDGET,
    render_detection,
    run_sentinel_report,
)

#: A collusion cartel spliced into a seeded 400-user watts-strogatz
#: stream at epoch 5 (attack seed 202).
COLLUSION_ARGV = [
    "serve", "--users", "400", "--types", "3", "--tasks-per-type", "6",
    "--seed", "5", "--epoch-events", "32", "--withdraw-fraction", "0",
    "--graph", "watts-strogatz", "--attack", "collusion",
    "--attack-epoch", "5", "--attack-seed", "202",
]


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
        assert args.graph == "twitter"
        assert args.attack is None
        assert args.attack_epoch == 4
        assert args.attack_seed is None
        # One engine, one epoch path: nothing left to select.
        assert not hasattr(args, "engine") and not hasattr(args, "no_shard")

    def test_loadgen_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["loadgen"])
        assert exit_.value.code == 2
        assert "invalid choice: 'loadgen'" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--smoke", "--withdraw-fraction", "1.0"], "withdraw_fraction"),
            (["--smoke", "--queue", "0"], "queue maxsize must be positive"),
            (["--users", "0"], "num_users must be positive"),
            (["--smoke", "--epoch-ticks", "0"], "max_ticks must be positive"),
        ],
    )
    def test_out_of_range_option_is_a_usage_error(self, options, message, capsys):
        assert main(["serve", *options]) == 2
        out = capsys.readouterr().out
        (line,) = out.splitlines()
        assert line.startswith("rit serve: ") and message in line


class TestServeAttack:
    def test_collusion_is_detected_behind_the_differential(
        self, tmp_path, capsys
    ):
        assert main([*COLLUSION_ARGV, "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "differential check OK" in out
        detection = re.search(
            r"sentinel: collusion injected at epoch 5, detected at epoch "
            r"(\d+) \(\+(\d+)\), \d+ alert\(s\) \[([^\]]*)\]$",
            out,
            re.MULTILINE,
        )
        assert detection is not None, out
        assert int(detection.group(1)) >= 5
        assert int(detection.group(2)) <= DEFAULT_DETECTION_BUDGET
        # The §4-A price cartel is flagged by the mean-ask drift detector,
        # and no other detector fired after the onset.
        assert "price_drift=" in detection.group(3)
        (run,) = tmp_path.iterdir()
        schedule = json.loads((run / "meta.json").read_text())["attack"]
        assert schedule["kind"] == "collusion"
        assert schedule["onset_epoch"] == 5
        assert schedule["seed"] == 202
        assert schedule["epoch_max_events"] == 32

    def test_serve_prints_the_sentinel_gate_detection(self, capsys):
        # The gate's first injection, served by ``rit serve`` at the same
        # seeds: both drivers build one stream and report one detection.
        section, _ = run_sentinel_report(smoke=True)
        base, spec = CLEAN_SCENARIOS[0], ATTACK_SCENARIOS[0]
        argv = [
            "serve", "--users", str(base["users"]),
            "--types", str(base["types"]),
            "--tasks-per-type", str(base["tasks_per_type"]),
            "--seed", str(base["seed"]),
            "--epoch-events", str(base["epoch_max_events"]),
            "--withdraw-fraction", "0", "--graph", base["graph"],
            "--attack", spec["kind"],
            "--attack-epoch", str(spec["onset_epoch"]),
            "--attack-seed", str(spec["attack_seed"]),
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "sentinel: " + render_detection(section["attacks"][0]) in lines

    def test_unrelated_alerts_do_not_count_as_a_detection(self, capsys):
        # The stream's tail withdrawals fire withdrawal_spike at epoch 12;
        # the sybil chain injected at epoch 3 (before warm-up) is unseen.
        argv = ["serve", "--graph", "forest-fire", "--attack", "sybil",
                "--attack-epoch", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (
            "sentinel: sybil injected at epoch 3, NOT detected, 2 alert(s), "
            "unrelated [withdrawal_spike=2]\n"
        ) in out

    def test_graph_and_attack_name_the_run(self, tmp_path, capsys):
        clean = ["serve", "--smoke"]
        argvs = [
            clean,
            [*clean, "--graph", "forest-fire"],
            [*clean, "--attack", "sybil", "--attack-epoch", "3"],
            [*clean, "--attack", "sybil", "--attack-epoch", "3",
             "--attack-seed", "9"],
        ]
        for argv in argvs:
            assert main([*argv, "--ledger", str(tmp_path)]) == 0
        capsys.readouterr()
        # Four distinct run ids: no configuration reruns into another's
        # ledger directory.
        assert len(list(tmp_path.iterdir())) == len(argvs)

    def test_bad_onset_is_a_usage_error(self, capsys):
        argv = ["serve", "--smoke", "--attack", "churn", "--attack-epoch", "-1"]
        assert main(argv) == 2
        assert "rit serve: onset_epoch must be >= 0" in capsys.readouterr().out

    def test_alerts_endpoint_is_enabled_with_an_attack(self, capsys):
        code = main(["serve", "--smoke", "--attack", "sybil",
                     "--attack-epoch", "3", "--metrics-port", "0",
                     "--probe-metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sentinel: sybil injected at epoch 3" in out
        assert "metrics probe OK" in out


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
