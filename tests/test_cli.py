"""Tests for the command-line front-end."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "fig6a"])
        assert args.command == "experiment"
        assert args.id == "fig6a"
        assert args.scale is None
        assert args.save is None

    def test_experiment_all(self):
        args = build_parser().parse_args(["experiment", "all", "--scale", "smoke"])
        assert args.id == "all"
        assert args.scale == "smoke"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_bounds_defaults(self):
        args = build_parser().parse_args(["bounds"])
        assert args.h == 0.8
        assert args.kmax == 20

    def test_demo_options(self):
        args = build_parser().parse_args(
            ["demo", "--users", "50", "--tasks-per-type", "5", "--seed", "1"]
        )
        assert (args.users, args.tasks_per_type, args.seed) == (50, 5, 1)

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_challenges(self, capsys):
        assert main(["challenges"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "Fig. 3" in out
        assert out.count("DEVIATION WINS") == 2

    def test_bounds(self, capsys):
        assert main(["bounds", "--tasks", "100", "5000"]) == 0
        out = capsys.readouterr().out
        assert "lemma budget" in out
        assert "5000" in out

    def test_demo(self, capsys):
        code = main(
            ["demo", "--users", "200", "--tasks-per-type", "10",
             "--types", "4", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed: True" in out
        assert "tasks allocated: 40" in out

    def test_experiment_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("RIT_SCALE", "smoke")
        assert main(["experiment", "fig6b", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "fig6b" in out
        assert "RIT" in out

    def test_experiment_save(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RIT_SCALE", "smoke")
        path = tmp_path / "out.json"
        assert main(["experiment", "fig7b", "--seed", "4", "--save", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["experiment_id"] == "fig7b"
        assert payload["series"]

    def test_experiment_store_and_baseline(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RIT_SCALE", "smoke")
        store = str(tmp_path / "store")
        assert main(
            ["experiment", "fig7b", "--seed", "4", "--store", store,
             "--tag", "base"]
        ) == 0
        # Same seed -> identical result -> no drift, exit 0.
        assert main(
            ["experiment", "fig7b", "--seed", "4", "--store", store,
             "--baseline", "base"]
        ) == 0
        out = capsys.readouterr().out
        assert "no drift" in out
        # Different seed + tiny tolerance -> drift, exit 1.
        assert main(
            ["experiment", "fig7b", "--seed", "99", "--store", store,
             "--baseline", "base", "--tolerance", "0.0001"]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_experiment_chart_flag(self, monkeypatch, capsys):
        monkeypatch.setenv("RIT_SCALE", "smoke")
        assert main(["experiment", "fig6b", "--seed", "4", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "* RIT" in out  # chart legend

    def test_report_command(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RIT_SCALE", "smoke")
        out_path = tmp_path / "report.md"
        assert main(
            ["report", "--seed", "4", "--figures", "fig7b", "--no-charts",
             "--out", str(out_path)]
        ) == 0
        assert out_path.exists()
        assert "shape checks passed" in out_path.read_text()

    def test_experiment_all_runs_each_sweep_once(self, monkeypatch, capsys):
        from repro.simulation import experiments as exp

        sweeps = []
        run_sweep = exp._sweep_figures

        def counting_sweep(*args, **kwargs):
            sweeps.append(kwargs["suffix"])
            return run_sweep(*args, **kwargs)

        monkeypatch.setattr(exp, "_sweep_figures", counting_sweep)
        assert main(["experiment", "all", "--scale", "smoke", "--seed", "1"]) == 0
        assert sorted(sweeps) == ["a", "b"]
        out = capsys.readouterr().out
        figures = ("fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "fig9")
        assert [line.split(":")[0] for line in out.splitlines()
                if line.startswith("== ")] == [f"== {fig}" for fig in figures]

    def test_experiment_scale_flag_overrides_env(self, monkeypatch, capsys):
        monkeypatch.setenv("RIT_SCALE", "paper")  # would be hours if honored
        assert main(["experiment", "fig8b", "--scale", "smoke", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "'scale': 'smoke'" in out


class TestDemoExplain:
    def test_demo_explain(self, capsys):
        assert main(
            ["demo", "--users", "150", "--tasks-per-type", "8",
             "--types", "3", "--seed", "5", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert ("COMPLETED" in out) or ("VOID RUN" in out)


class TestAudit:
    def test_audit_runs_and_reports(self, capsys):
        code = main(
            ["audit", "--users", "500", "--tasks-per-type", "40",
             "--types", "3", "--seed", "1", "--reps", "6"]
        )
        out = capsys.readouterr().out
        assert "auditing user" in out
        assert "all candidates" in out
        assert code in (0, 2)  # 2 = significant exploit found

    def test_audit_parser_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.max_capacity == 6
        assert args.reps == 20


class TestTrace:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.seed == 0
        assert args.out == "TRACE_RIT.jsonl"
        assert args.metrics == "prometheus"
        assert not args.smoke

    def test_trace_smoke_emits_valid_jsonl(self, tmp_path, capsys):
        from repro.devtools.trace_schema import check_coverage
        from repro.obs import read_jsonl

        out = tmp_path / "trace.jsonl"
        code = main(
            ["trace", "--users", "120", "--types", "3",
             "--tasks-per-type", "8", "--seed", "7",
             "--out", str(out), "--smoke"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "trace smoke OK" in text
        assert "run" in text and "mechanism" in text
        events = read_jsonl(str(out))
        assert check_coverage(events) == []
        header = events[0]
        assert header["seed"] == 7
        assert header["run_id"].startswith("rit-7-")

    def test_same_seed_reruns_identical_modulo_time(self, tmp_path):
        from repro.obs import canonical_events, read_jsonl

        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(
                ["trace", "--users", "120", "--types", "3",
                 "--tasks-per-type", "8", "--seed", "2", "--out", str(path)]
            ) == 0
        first, second = (read_jsonl(str(p)) for p in paths)
        assert canonical_events(first) == canonical_events(second)

    def test_metrics_json_to_file(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(
            ["trace", "--users", "120", "--types", "3",
             "--tasks-per-type", "8", "--out", str(tmp_path / "t.jsonl"),
             "--metrics", "json", "--metrics-out", str(metrics)]
        ) == 0
        payload = json.loads(metrics.read_text())
        assert payload["cra_rounds"]["unit"] == "count"
        assert payload["tasks_allocated"]["value"] == 24

    def test_metrics_out_round_trips_openmetrics(self, tmp_path, capsys):
        from repro.obs import metric_family_name, parse_openmetrics

        argv = ["trace", "--users", "120", "--types", "3",
                "--tasks-per-type", "8", "--out", str(tmp_path / "t.jsonl")]
        exposition = tmp_path / "metrics.txt"
        snapshot = tmp_path / "metrics.json"
        assert main([*argv, "--metrics-out", str(exposition)]) == 0
        assert main([*argv, "--metrics", "json",
                     "--metrics-out", str(snapshot)]) == 0
        families = parse_openmetrics(exposition.read_text())
        counters = json.loads(snapshot.read_text())
        assert counters
        assert set(families) == {
            metric_family_name(name, entry["unit"])
            for name, entry in counters.items()
        }
        for name, entry in counters.items():
            family = families[metric_family_name(name, entry["unit"])]
            (sample,) = family.samples
            if entry["unit"] != "seconds":  # wall time differs per run
                assert sample.value == entry["value"]


class TestArena:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["arena"])
        assert args.command == "arena"
        assert args.mechanisms is None
        assert args.runs == 2
        assert not args.smoke and not args.json

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["arena", "--mechanisms", "vcg"])

    def test_unknown_attack_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["arena", "--attack", "ddos"])

    def test_smoke_json_passes_the_gate(self, capsys):
        from repro.arena.harness import arena_problems

        assert main(["arena", "--smoke", "--json"]) == 0
        section = json.loads(capsys.readouterr().out)
        assert section["config"]["users"] == 220
        assert section["determinism"]["bit_identical"] is True
        assert section["rit_sybil_gain_minimal"] is True
        assert arena_problems(section) == []

    def test_roster_without_rit_exits_one(self, capsys):
        argv = ["arena", "--smoke", "--mechanisms", "glt",
                "--mechanisms", "omg"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "PROBLEMS:" in out
        assert "the arena roster must include 'rit'" in out

    @pytest.mark.parametrize("runs", ["0", "1"])
    def test_runs_below_two_are_refused(self, runs, capsys):
        assert main(["arena", "--smoke", "--runs", runs]) == 2
        assert capsys.readouterr().out == (
            f"rit arena: runs must be at least 2 to check bit-identity, "
            f"got {runs}\n"
        )

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--smoke", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["--smoke", "--attack-seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_option_is_a_usage_error(self, options, message, capsys):
        assert main(["arena", *options]) == 2
        out = capsys.readouterr().out
        (line,) = out.splitlines()
        assert line.startswith("rit arena: ") and message in line

    def test_an_onset_before_any_join_is_a_usage_error(self, capsys):
        argv = ["arena", "--smoke", "--attack", "collusion",
                "--attack-epoch", "0"]
        assert main(argv) == 2
        assert "rit arena: no users joined before epoch 0" in (
            capsys.readouterr().out
        )


@pytest.mark.parametrize(
    "command, flag",
    [
        ("sentinel", "--bench"),
        ("sentinel", "--out"),
        ("arena", "--bench"),
        ("arena", "--out"),
        ("analyze", "--bench"),
        ("analyze", "--bench-out"),
    ],
)
def test_bench_document_flags_are_gone(command, flag, capsys):
    # No command writes a bench document: perfbench is the benchmark.
    with pytest.raises(SystemExit) as exit_:
        main([command, flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
