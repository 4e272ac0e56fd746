"""Command-line front-end: ``rit`` (or ``python -m repro``).

Subcommands
-----------
``rit experiment <id>``   regenerate one paper figure and print its table
                          (ids: fig6a fig6b fig7a fig7b fig8a fig8b fig9, or
                          ``all``); ``--scale`` picks a preset,
                          ``--save PATH`` writes the JSON result.
``rit challenges``        run the §4 design-challenge counterexamples.
``rit bounds``            print the Lemma 6.2 bound / round-budget table
                          for a given configuration.
``rit demo``              run one end-to-end scenario and print a summary.
``rit trace``             run one traced scenario, write the JSONL event log,
                          and print the span tree + metrics snapshot
                          (``--smoke`` validates the trace against the
                          schema for CI).
``rit serve``             run the online epoch-batched mechanism service over
                          a seeded event stream and differential-check every
                          epoch against the offline ``RIT.run`` anchor
                          (``--smoke`` is the tiny CI preset).
``rit loadgen``           drive the service open-loop at scale and report
                          throughput / epoch-latency percentiles
                          (``--bench`` merges the ``service`` and
                          ``service_slo`` sections into
                          ``BENCH_RIT.json``; ``--graph`` picks the social
                          regime, ``--attack`` injects a seeded adversary
                          burst watched by the sentinel plane).
``rit sentinel``          run the live-adversary gate: clean pinned scenarios
                          must stay alert-free, seeded sybil/collusion/churn
                          injections must be flagged within K epochs, and the
                          served outcomes must match the offline replay
                          (``--bench`` merges the ``sentinel`` section into
                          ``BENCH_RIT.json``; ``--smoke`` is the CI preset).
``rit arena``             replay one pinned seeded stream (clean + attacked)
                          through rival mechanisms (RIT, OMG, GLT, the §4
                          reward rules) under identical epoch cuts and print
                          the head-to-head scorecard (``--bench`` merges the
                          ``arena`` section into ``BENCH_RIT.json``;
                          ``--smoke`` is the CI preset).
``rit analyze``           run the static analyzer (file-local RIT001-RIT007,
                          whole-program RIT009-RIT013) against the committed
                          findings baseline (``--bench`` merges the
                          ``analysis`` section into ``BENCH_RIT.json``;
                          also: ``python -m repro.devtools.analysis``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional, Tuple

from repro.simulation import experiments as exp
from repro.simulation.reporting import format_comparison_row, format_result

__all__ = ["main", "build_parser"]

# Mirrors repro.service.loadgen.GRAPH_REGIMES without importing the
# service stack at parser-build time (handlers import lazily).
_GRAPH_REGIME_NAMES = ("twitter", "watts-strogatz", "forest-fire")

# Mirrors repro.arena.registry.MECHANISM_NAMES without importing the
# arena stack at parser-build time (pinned by tests/arena).
_MECHANISM_NAMES = (
    "rit", "omg", "glt", "mit-referral", "lv-moscibroda", "pachira",
)

_EXPERIMENTS = {
    "fig6a": exp.fig6a,
    "fig6b": exp.fig6b,
    "fig7a": exp.fig7a,
    "fig7b": exp.fig7b,
    "fig8a": exp.fig8a,
    "fig8b": exp.fig8b,
    "fig9": exp.fig9,
}

_SCALES = {
    "paper": exp.PAPER_SCALE,
    "default": exp.DEFAULT_SCALE,
    "smoke": exp.SMOKE_SCALE,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rit",
        description="RIT — robust incentive trees for crowdsensing "
        "(ICDCS 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure")
    p_exp.add_argument("id", choices=sorted(_EXPERIMENTS) + ["all"])
    p_exp.add_argument(
        "--scale", choices=sorted(_SCALES), default=None, help="scale preset"
    )
    p_exp.add_argument("--seed", type=int, default=None, help="root RNG seed")
    p_exp.add_argument("--save", default=None, help="write result JSON here")
    p_exp.add_argument(
        "--chart", action="store_true", help="also render an ASCII chart"
    )
    p_exp.add_argument(
        "--store", default=None, help="result-store directory to save into"
    )
    p_exp.add_argument(
        "--tag", default="latest", help="tag for the stored result"
    )
    p_exp.add_argument(
        "--baseline",
        default=None,
        help="stored tag to regression-compare against (requires --store)",
    )
    p_exp.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative drift tolerance for --baseline comparisons",
    )

    p_ch = sub.add_parser("challenges", help="run the §4 counterexamples")

    p_b = sub.add_parser("bounds", help="Lemma 6.2 bounds / round budgets")
    p_b.add_argument("--h", type=float, default=0.8, help="target probability H")
    p_b.add_argument("--types", type=int, default=10, help="number of task types m")
    p_b.add_argument("--kmax", type=int, default=20, help="K_max")
    p_b.add_argument(
        "--tasks",
        type=int,
        nargs="+",
        default=[100, 300, 500, 1000, 3000, 5000],
        help="m_i values to tabulate",
    )

    p_rep = sub.add_parser(
        "report", help="rerun the full reproduction and emit a markdown report"
    )
    p_rep.add_argument(
        "--scale", choices=sorted(_SCALES), default=None, help="scale preset"
    )
    p_rep.add_argument("--seed", type=int, default=None, help="root RNG seed")
    p_rep.add_argument("--out", default=None, help="write the report here")
    p_rep.add_argument(
        "--figures", nargs="+", default=None, help="subset of figure ids"
    )
    p_rep.add_argument(
        "--no-charts", action="store_true", help="skip the ASCII charts"
    )

    p_audit = sub.add_parser(
        "audit",
        help="adversarial robustness probe: search deviations for a winner",
    )
    p_audit.add_argument("--users", type=int, default=1500)
    p_audit.add_argument("--tasks-per-type", type=int, default=150)
    p_audit.add_argument("--types", type=int, default=4)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument(
        "--reps", type=int, default=20, help="paired runs per candidate"
    )
    p_audit.add_argument(
        "--max-capacity", type=int, default=6,
        help="audit a victim with at most this capacity (the guarantee "
        "regime needs K_j << m_i; see EXPERIMENTS.md)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="run a traced scenario and write the JSONL event log",
    )
    p_trace.add_argument("--users", type=int, default=400)
    p_trace.add_argument("--types", type=int, default=4)
    p_trace.add_argument("--tasks-per-type", type=int, default=40)
    p_trace.add_argument(
        "--seed", type=int, default=0, help="root seed (also names the run)"
    )
    p_trace.add_argument(
        "--out", default="TRACE_RIT.jsonl", help="JSONL event-log path"
    )
    p_trace.add_argument(
        "--metrics",
        choices=["prometheus", "json"],
        default="prometheus",
        help="metrics snapshot format",
    )
    p_trace.add_argument(
        "--metrics-out", default=None,
        help="write the metrics snapshot here instead of stdout",
    )
    p_trace.add_argument(
        "--max-depth", type=int, default=None,
        help="truncate the printed span tree below this depth",
    )
    p_trace.add_argument(
        "--smoke", action="store_true",
        help="validate the emitted trace against the schema and the "
        "span/counter coverage gate; nonzero exit on any problem",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the epoch-batched mechanism service over a seeded stream",
    )
    p_serve.add_argument("--users", type=int, default=400)
    p_serve.add_argument("--types", type=int, default=3)
    p_serve.add_argument("--tasks-per-type", type=int, default=12)
    p_serve.add_argument(
        "--seed", type=int, default=0, help="root seed (scenario + epochs)"
    )
    p_serve.add_argument(
        "--epoch-events", type=int, default=64,
        help="close an epoch after this many admitted events",
    )
    p_serve.add_argument(
        "--epoch-ticks", type=int, default=None,
        help="also close an epoch after this many virtual-time ticks",
    )
    p_serve.add_argument(
        "--queue", type=int, default=512, help="ingestion queue capacity"
    )
    p_serve.add_argument(
        "--withdraw-fraction", type=float, default=0.05,
        help="seeded fraction of joined users that withdraw",
    )
    p_serve.add_argument(
        "--ledger", default=None,
        help="directory for the persistent JSONL outcome ledger",
    )
    p_serve.add_argument(
        "--trace-out", default=None,
        help="write the service trace (spans + counters) to this JSONL path",
    )
    p_serve.add_argument(
        "--smoke", action="store_true",
        help="tiny CI preset (<10s): forces a small scenario and gates on "
        "the online-vs-offline differential check",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve /metrics, /healthz, /readyz and /epochs on this port "
        "while the stream drains (0 = ephemeral)",
    )
    p_serve.add_argument(
        "--metrics-host", default="127.0.0.1",
        help="bind address of the metrics endpoint",
    )
    p_serve.add_argument(
        "--probe-metrics", action="store_true",
        help="self-probe the endpoint after the drain: /metrics must "
        "round-trip the OpenMetrics parser, probes must answer; nonzero "
        "exit on any failure (requires --metrics-port)",
    )

    p_top = sub.add_parser(
        "top",
        help="epoch-over-epoch dashboard for a live service or a trace",
    )
    p_top.add_argument(
        "--url", default=None,
        help="base URL of a running rit serve --metrics-port endpoint",
    )
    p_top.add_argument(
        "--trace", default=None,
        help="recorded service trace JSONL to render instead of polling",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls (with --url)",
    )
    p_top.add_argument(
        "--iterations", type=int, default=0,
        help="stop after this many renders (0 = until drained)",
    )
    p_top.add_argument(
        "--once", action="store_true", help="render a single table and exit"
    )

    p_load = sub.add_parser(
        "loadgen",
        help="drive the service open-loop and report throughput/latency",
    )
    p_load.add_argument("--users", type=int, default=26000)
    p_load.add_argument("--types", type=int, default=4)
    p_load.add_argument("--tasks-per-type", type=int, default=50)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--epoch-events", type=int, default=8192)
    p_load.add_argument("--epoch-ticks", type=int, default=None)
    p_load.add_argument("--queue", type=int, default=4096)
    p_load.add_argument("--withdraw-fraction", type=float, default=0.02)
    p_load.add_argument(
        "--min-events", type=int, default=None,
        help="refuse to measure a stream smaller than this "
        "(default 50000 with --bench, else 0)",
    )
    p_load.add_argument(
        "--graph", choices=sorted(_GRAPH_REGIME_NAMES), default="twitter",
        help="social-graph regime the solicitation forest grows over",
    )
    p_load.add_argument(
        "--attack", choices=["sybil", "collusion", "churn"], default=None,
        help="inject a seeded adversary burst and attach the sentinel plane",
    )
    p_load.add_argument(
        "--attack-epoch", type=int, default=4,
        help="epoch index the injected burst lands at (with --attack)",
    )
    p_load.add_argument(
        "--attack-seed", type=int, default=None,
        help="attack RNG seed (defaults to --seed)",
    )
    p_load.add_argument(
        "--bench", action="store_true",
        help="merge the measured ``service`` and ``service_slo`` sections "
        "into the bench doc",
    )
    p_load.add_argument(
        "--out", default="BENCH_RIT.json",
        help="bench document to merge into (with --bench)",
    )

    p_sentinel = sub.add_parser(
        "sentinel",
        help="run the live-adversary gate (clean + injected pinned runs)",
    )
    p_sentinel.add_argument(
        "--smoke", action="store_true",
        help="one clean scenario + one sybil injection (CI preset)",
    )
    p_sentinel.add_argument(
        "--k", type=int, default=None,
        help="detection budget in epochs (default: the pinned K)",
    )
    p_sentinel.add_argument(
        "--json", action="store_true",
        help="print the sentinel section as JSON instead of the table",
    )
    p_sentinel.add_argument(
        "--bench", action="store_true",
        help="merge the ``sentinel`` section into the bench doc",
    )
    p_sentinel.add_argument(
        "--out", default="BENCH_RIT.json",
        help="bench document to merge into (with --bench)",
    )

    p_arena = sub.add_parser(
        "arena",
        help="replay one seeded stream through rival mechanisms head-to-head",
    )
    p_arena.add_argument(
        "--mechanisms", action="append", choices=list(_MECHANISM_NAMES),
        default=None, metavar="NAME",
        help="mechanism roster (repeatable; default: the full registry, "
        f"{', '.join(_MECHANISM_NAMES)})",
    )
    p_arena.add_argument("--seed", type=int, default=None,
                         help="stream root seed (default: the pinned match)")
    p_arena.add_argument("--users", type=int, default=None)
    p_arena.add_argument("--types", type=int, default=None)
    p_arena.add_argument("--tasks-per-type", type=int, default=None)
    p_arena.add_argument(
        "--epoch-events", type=int, default=None,
        help="count-trigger epoch size shared by every mechanism",
    )
    p_arena.add_argument(
        "--attack", choices=["sybil", "collusion", "churn"], default=None,
        help="seeded adversary burst spliced into the attacked stream",
    )
    p_arena.add_argument(
        "--attack-epoch", type=int, default=None,
        help="epoch index the injected burst lands at",
    )
    p_arena.add_argument("--attack-seed", type=int, default=None,
                         help="attack RNG seed")
    p_arena.add_argument(
        "--runs", type=int, default=2,
        help="full replays compared for bit-identity (default 2)",
    )
    p_arena.add_argument(
        "--smoke", action="store_true",
        help="the small pinned CI match (rit/omg/glt/lv-moscibroda)",
    )
    p_arena.add_argument(
        "--json", action="store_true",
        help="print the arena section as JSON instead of the table",
    )
    p_arena.add_argument(
        "--bench", action="store_true",
        help="merge the ``arena`` section into the bench doc",
    )
    p_arena.add_argument(
        "--out", default="BENCH_RIT.json",
        help="bench document to merge into (with --bench)",
    )

    p_analyze = sub.add_parser(
        "analyze",
        help="static analyzer: file-local RIT001-RIT007 and whole-program "
        "RIT009-RIT013, baseline-gated",
    )
    from repro.devtools.analysis.cli import add_arguments as _add_analyze_arguments

    _add_analyze_arguments(p_analyze)

    p_demo = sub.add_parser("demo", help="run one end-to-end scenario")
    p_demo.add_argument("--users", type=int, default=1000)
    p_demo.add_argument("--tasks-per-type", type=int, default=50)
    p_demo.add_argument("--types", type=int, default=10)
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument(
        "--explain", action="store_true",
        help="narrate the run (per-type clearing, top earners/recruiters)",
    )
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale] if args.scale else None
    ids = sorted(_EXPERIMENTS) if args.id == "all" else [args.id]
    store = None
    if args.store:
        from repro.simulation.store import ResultStore

        store = ResultStore(args.store)
    drifted = False
    for exp_id in ids:
        result = _EXPERIMENTS[exp_id](scale, rng=args.seed)
        print(format_result(result))
        if getattr(args, "chart", False):
            from repro.simulation.plotting import render_result

            print()
            print(render_result(result))
        print()
        if args.save:
            path = args.save if len(ids) == 1 else f"{args.save}.{exp_id}.json"
            result.save(path)
            print(f"saved -> {path}")
        if store is not None:
            if args.baseline:
                drifts = store.check_regression(
                    result, args.baseline, tolerance=args.tolerance
                )
                if drifts:
                    drifted = True
                    print(f"REGRESSION vs {args.baseline!r}:")
                    for drift in drifts:
                        print(f"  {drift}")
                else:
                    print(f"no drift vs {args.baseline!r} "
                          f"(tolerance {args.tolerance:.0%})")
            path = store.save(result, args.tag)
            print(f"stored -> {path}")
    return 1 if drifted else 0


def _cmd_challenges(_: argparse.Namespace) -> int:
    for report in (exp.design_challenge_fig2(), exp.design_challenge_fig3()):
        print(report.description)
        print(
            "  "
            + format_comparison_row(
                "utility", report.honest_utility, report.deviant_utility
            )
        )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis.theory import budget_table

    rows = budget_table(args.h, args.types, args.kmax, args.tasks)
    print(f"H={args.h}  m={args.types}  K_max={args.kmax}   (log base 10)")
    print(f"{'m_i':>8}  {'per-round bound':>16}  {'lemma budget':>12}")
    for m_i, bound, budget in rows:
        print(f"{m_i:>8}  {bound:>16.4f}  {budget:>12}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import RIT, Job
    from repro.workloads import paper_scenario
    from repro.workloads.users import UserDistribution

    job = Job.uniform(args.types, args.tasks_per_type)
    scenario = paper_scenario(
        args.users,
        job,
        args.seed,
        distribution=UserDistribution(num_types=args.types),
    )
    mechanism = RIT(h=0.8, round_budget="until-complete")
    outcome = mechanism.run(job, scenario.truthful_asks(), scenario.tree, args.seed)
    print(f"scenario: {scenario.name}  users={scenario.num_users}  |J|={job.size}")
    print(f"tree height: {scenario.tree.max_depth()}")
    print(f"completed: {outcome.completed}")
    print(f"tasks allocated: {outcome.total_allocated}")
    print(f"auction payments: {outcome.total_auction_payment:,.2f}")
    print(f"total payments:   {outcome.total_payment:,.2f}")
    print(
        "solicitation outlay: "
        f"{outcome.total_payment - outcome.total_auction_payment:,.2f}"
    )
    print(f"CRA rounds run: {len(outcome.rounds)}")
    print(f"elapsed: {outcome.elapsed_total * 1000:.1f} ms")
    if args.explain:
        from repro.simulation.explain import explain_outcome

        print()
        print(explain_outcome(
            outcome, job, scenario.truthful_asks(), scenario.tree
        ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.simulation.report import generate_report

    scale = _SCALES[args.scale] if args.scale else None
    text = generate_report(
        scale=scale,
        figures=args.figures,
        rng=args.seed,
        charts=not args.no_charts,
        path=args.out,
    )
    print(text)
    if args.out:
        print(f"(written to {args.out})")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.attacks.search import best_deviation
    from repro.core import RIT, Job
    from repro.workloads import paper_scenario
    from repro.workloads.users import UserDistribution

    job = Job.uniform(args.types, args.tasks_per_type)
    scenario = paper_scenario(
        args.users,
        job,
        args.seed,
        distribution=UserDistribution(num_types=args.types),
        supply_threshold=True,
    )
    mech = RIT(h=0.8, round_budget="until-complete")
    asks = scenario.truthful_asks()
    probe = mech.run(job, asks, scenario.tree, rng=args.seed)
    candidates = [
        uid
        for uid in probe.auction_payments
        if scenario.population[uid].capacity <= args.max_capacity
    ]
    if not candidates:
        print("no winner within the capacity cap on this instance; "
              "re-seed or raise --max-capacity")
        return 1
    victim = max(candidates, key=probe.auction_payment_of)
    user = scenario.population[victim]
    print(f"auditing user {victim}: type τ{user.task_type}, "
          f"K={user.capacity}, cost {user.cost:.3f} "
          f"(truthful auction payment {probe.auction_payment_of(victim):.3f})")
    report = best_deviation(
        mech, job, asks, scenario.tree, victim, user.cost,
        capacity=user.capacity, reps=args.reps, rng=args.seed,
    )
    print(report.summary())
    summary = report.best.comparison.gain_summary(rng=0)
    verdict = (
        "statistically significant — the mechanism IS exploitable here"
        if summary.significant
        else "not statistically significant at 5% — consistent with the "
        "(K_max, H) guarantee"
    )
    print(f"best candidate statistics: {summary} -> {verdict}")
    print("\nall candidates (gain, kind, detail):")
    for candidate in sorted(report.candidates, key=lambda c: -c.gain):
        print(f"  {candidate.gain:+9.4f}  {candidate.kind:12s}  "
              f"{candidate.detail}")
    return 0 if not summary.significant else 2


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core import RIT, Job
    from repro.obs import (
        Tracer,
        config_hash,
        format_metrics_json,
        format_prometheus,
        render_span_tree,
    )
    from repro.workloads import paper_scenario
    from repro.workloads.users import UserDistribution

    seed = int(args.seed)
    config = {
        "scenario": "paper",
        "users": int(args.users),
        "types": int(args.types),
        "tasks_per_type": int(args.tasks_per_type),
        "h": 0.8,
        "round_budget": "until-complete",
    }
    # Derived from the inputs, not wall time / uuid: same-seed reruns get
    # the same run id and a canonically identical event stream.
    run_id = f"rit-{seed}-{config_hash(config)}"
    tracer = Tracer(run_id, seed=seed, config=config)

    job = Job.uniform(args.types, args.tasks_per_type)
    scenario = paper_scenario(
        args.users,
        job,
        seed,
        distribution=UserDistribution(num_types=args.types),
    )
    mechanism = RIT(h=0.8, round_budget="until-complete", tracer=tracer)
    outcome = mechanism.run(job, scenario.truthful_asks(), scenario.tree, seed)

    tracer.write_jsonl(args.out)
    print(f"run {run_id}: completed={outcome.completed}  "
          f"events={len(tracer.events)}  spans+counters -> {args.out}")
    print()
    print(render_span_tree(tracer.events, max_depth=args.max_depth))

    snapshot = tracer.snapshot()
    if args.metrics == "prometheus":
        metrics_text = format_prometheus(snapshot)
    else:
        metrics_text = json.dumps(format_metrics_json(snapshot), indent=2)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(metrics_text + "\n")
        print(f"metrics -> {args.metrics_out}")
    else:
        print()
        print(metrics_text)

    if args.smoke:
        from repro.obs.events import read_jsonl
        from repro.devtools.trace_schema import check_coverage

        problems = check_coverage(read_jsonl(args.out))
        if problems:
            print(f"\ntrace smoke FAILED ({len(problems)} problems):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        counters = sum(1 for e in tracer.events if e["ev"] == "counter")
        print(f"\ntrace smoke OK: schema v{tracer.events[0]['schema_version']}, "
              f"{counters} counter events, coverage gate passed")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.exceptions import ConfigurationError
    from repro.core.rit import RIT
    from repro.core.rng import spawn_seeds
    from repro.obs import Tracer, config_hash
    from repro.service import (
        MechanismService,
        OutcomeLedger,
        ServiceConfig,
        build_scenario,
        differential_check,
        replay_outcomes,
        scenario_event_stream,
    )

    if args.smoke:
        users, types, tasks_per_type = 180, 3, 8
        epoch_events, epoch_ticks = 48, args.epoch_ticks
    else:
        users, types = args.users, args.types
        tasks_per_type = args.tasks_per_type
        epoch_events, epoch_ticks = args.epoch_events, args.epoch_ticks
    seed = int(args.seed)
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(users, types, tasks_per_type, scenario_rng)
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=args.withdraw_fraction
    )
    config = ServiceConfig(
        seed=seed,
        queue_size=args.queue,
        epoch_max_events=epoch_events,
        epoch_max_ticks=epoch_ticks,
    )
    mechanism_params = {
        "rng_policy": "per-type",
        "round_budget": "until-complete",
    }
    run_config = {
        "users": users,
        "types": types,
        "tasks_per_type": tasks_per_type,
        "epoch_max_events": epoch_events,
        "epoch_max_ticks": epoch_ticks,
        **mechanism_params,
    }
    run_id = f"rit-serve-{seed}-{config_hash(run_config)}"
    tracer = (
        Tracer(run_id, seed=seed, config=run_config)
        if args.trace_out
        else None
    )
    ledger = OutcomeLedger(args.ledger, run_id) if args.ledger else None
    service = MechanismService(
        RIT(**mechanism_params),
        scenario.job,
        config,
        tracer=tracer,
        ledger=ledger,
    )
    if args.probe_metrics and args.metrics_port is None:
        print("rit serve: --probe-metrics requires --metrics-port")
        return 2
    probe_problems: List[str] = []
    try:
        if args.metrics_port is None:
            report = service.serve_stream(events)
        else:
            report, probe_problems = _serve_with_metrics(service, events, args)
    except ConfigurationError as err:
        # E.g. a --ledger directory that already holds this run's epochs.
        print(f"rit serve: {err}")
        return 2

    print(f"run {run_id}: users={users}  |J|={scenario.job.size}  "
          f"stream={len(events)} events")
    print(f"ingest: offered={report.offered}  accepted={report.accepted}  "
          f"invalid={report.invalid}  rejected={report.rejected}  "
          f"queue highwater={report.queue_highwater}/{args.queue}")
    print(f"state:  applied={report.applied}  refused={report.refused}")
    print(f"{'epoch':>5}  {'events':>6}  {'users':>6}  {'done':>5}  "
          f"{'payments':>12}  {'latency':>9}")
    for epoch in report.epochs:
        print(
            f"{epoch.index:>5}  {epoch.batch_events:>6}  {epoch.users:>6}  "
            f"{str(epoch.outcome.completed):>5}  "
            f"{epoch.outcome.total_payment:>12,.2f}  "
            f"{epoch.latency_seconds * 1000:>7.1f}ms"
        )
    if ledger is not None:
        print(f"ledger -> {ledger.epochs_path}")
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
        print(f"trace ({len(tracer.events)} events) -> {args.trace_out}")

    replayed = replay_outcomes(
        report.consumed,
        scenario.job,
        RIT(**mechanism_params),
        seed=seed,
        policy=config.policy(),
    )
    problems = differential_check(
        report.outcomes(), [outcome for _, outcome in replayed]
    )
    if problems:
        print(f"\ndifferential check FAILED ({len(problems)} problems):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"\ndifferential check OK: {len(report.epochs)} epochs "
          "bit-identical to the offline RIT.run anchor")
    if probe_problems:
        print(f"\nmetrics probe FAILED ({len(probe_problems)} problems):")
        for problem in probe_problems:
            print(f"  {problem}")
        return 1
    if args.probe_metrics:
        print("metrics probe OK: /metrics round-trips, probes answered")
    return 0


def _serve_with_metrics(service, events, args) -> Tuple[Any, List[str]]:
    """Drain the stream with the HTTP telemetry plane up, then self-probe.

    The endpoint stays bound after the drain so ``--probe-metrics`` (and
    any watching ``rit top``) reads the final state over real TCP before
    shutdown; by then ``/readyz`` must report the drained phase.
    """
    import asyncio
    import json as _json

    from repro.obs.openmetrics import parse_openmetrics
    from repro.service.http import MetricsServer, http_get

    async def _main():
        server = MetricsServer(
            service, host=args.metrics_host, port=args.metrics_port
        )
        await server.start()
        print(f"metrics endpoint: {server.url('/metrics')}")
        problems: List[str] = []
        try:
            producer = asyncio.ensure_future(service.produce(events))
            try:
                report = await service.serve()
            finally:
                if not producer.done():
                    producer.cancel()
                try:
                    await producer
                except asyncio.CancelledError:
                    pass
            if args.probe_metrics:
                status, text = await http_get(server.host, server.port, "/metrics")
                if status != 200:
                    problems.append(f"/metrics answered {status}")
                else:
                    try:
                        families = parse_openmetrics(text)
                        if not families:
                            problems.append("/metrics exposed no families")
                    except ValueError as err:
                        problems.append(f"/metrics failed the parser: {err}")
                status, text = await http_get(server.host, server.port, "/healthz")
                if status != 200 or _json.loads(text).get("status") != "ok":
                    problems.append(f"/healthz answered {status}: {text}")
                status, text = await http_get(server.host, server.port, "/readyz")
                if _json.loads(text).get("phase") != "drained":
                    problems.append(f"/readyz phase not drained: {text}")
                status, text = await http_get(server.host, server.port, "/epochs")
                frames = _json.loads(text).get("frames", [])
                if status != 200 or len(frames) != len(report.epochs):
                    problems.append(
                        f"/epochs answered {status} with {len(frames)} frames, "
                        f"want {len(report.epochs)}"
                    )
        finally:
            await server.stop()
        return report, problems

    return asyncio.run(_main())


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.top import run_top

    return run_top(
        url=args.url,
        trace=args.trace,
        interval=args.interval,
        iterations=args.iterations,
        once=args.once,
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.devtools.bench import merge_bench_sections
    from repro.service.loadgen import run_service_bench

    min_events = args.min_events
    if min_events is None:
        min_events = 50_000 if args.bench else 0
    section = run_service_bench(
        users=args.users,
        types=args.types,
        tasks_per_type=args.tasks_per_type,
        seed=args.seed,
        epoch_max_events=args.epoch_events,
        epoch_max_ticks=args.epoch_ticks,
        queue_size=args.queue,
        withdraw_fraction=args.withdraw_fraction,
        min_events=min_events,
        graph=args.graph,
        attack=args.attack,
        attack_epoch=args.attack_epoch,
        attack_seed=args.attack_seed,
    )
    slo = section.pop("slo")
    sentinel_section = section.pop("sentinel", None)
    events = section["events"]
    latency = section["epoch_latency_seconds"]
    print(f"stream: {events['generated']} events generated, "
          f"{events['offered']} offered "
          f"({events['accepted']} accepted / {events['invalid']} invalid / "
          f"{events['rejected']} rejected / {events['gated']} gated)")
    print(f"state:  {events['applied']} applied, {events['refused']} refused")
    print(f"epochs: {section['epochs']['count']} "
          f"({section['epochs']['completed']} completed, "
          f"{section['epochs']['voided']} voided)")
    print(f"throughput: {section['events_per_sec']:,.0f} events/s "
          f"over {section['elapsed_seconds']:.2f}s")
    print(f"epoch latency: p50 {latency['p50'] * 1000:.1f} ms  "
          f"p95 {latency['p95'] * 1000:.1f} ms")
    print(f"queue: highwater {section['queue']['highwater']}"
          f"/{section['queue']['capacity']}")
    for label in ("ingest", "epoch"):
        block = slo[label]
        print(f"slo {label}: p50 {block['p50'] * 1000:.2f} ms  "
              f"p95 {block['p95'] * 1000:.2f} ms  "
              f"p99 {block['p99'] * 1000:.2f} ms  "
              f"(n={block['count']})")
    if sentinel_section is not None:
        entry = sentinel_section["attacks"][0]
        detected = entry["detected_epoch"]
        print(f"sentinel: {entry['kind']} injected at epoch "
              f"{entry['onset_epoch']}, "
              + ("NOT detected" if detected is None else
                 f"detected at epoch {detected} "
                 f"(+{entry['epochs_to_detect']})")
              + f", {entry['alerts_total']} alert(s)")
    if args.bench:
        # The sentinel fragment of an --attack run is printed above, never
        # merged: the ``sentinel`` section is ``rit sentinel --bench``'s.
        return merge_bench_sections(
            args.out, {"service": section, "service_slo": slo}
        )
    return 0


def _cmd_sentinel(args: argparse.Namespace) -> int:
    from repro.devtools.bench import merge_bench_sections
    from repro.sentinel.harness import (
        DEFAULT_DETECTION_BUDGET,
        render_sentinel_report,
        run_sentinel_report,
    )

    k = args.k if args.k is not None else DEFAULT_DETECTION_BUDGET
    section, problems = run_sentinel_report(smoke=args.smoke, k=k)
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    else:
        print(render_sentinel_report(section))
    if problems:
        print()
        print("PROBLEMS:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    if args.bench:
        return merge_bench_sections(args.out, {"sentinel": section})
    return 0


def _cmd_arena(args: argparse.Namespace) -> int:
    from dataclasses import replace as _replace

    from repro.arena.harness import (
        ARENA_BENCH_PRESET,
        ARENA_SMOKE_PRESET,
        render_arena_report,
        run_arena_report,
    )
    from repro.devtools.bench import merge_bench_sections

    config = ARENA_SMOKE_PRESET if args.smoke else ARENA_BENCH_PRESET
    overrides = {
        "seed": args.seed,
        "users": args.users,
        "types": args.types,
        "tasks_per_type": args.tasks_per_type,
        "epoch_max_events": args.epoch_events,
        "attack": args.attack,
        "attack_epoch": args.attack_epoch,
        "attack_seed": args.attack_seed,
    }
    overrides = {key: val for key, val in overrides.items() if val is not None}
    if args.mechanisms:
        overrides["mechanisms"] = tuple(dict.fromkeys(args.mechanisms))
    if overrides:
        config = _replace(config, **overrides)
    section, problems = run_arena_report(config, runs=max(1, args.runs))
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    else:
        print(render_arena_report(section))
    if problems:
        print()
        print("PROBLEMS:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    if args.bench:
        return merge_bench_sections(args.out, {"arena": section})
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.devtools.analysis.cli import run as run_analyze

    return run_analyze(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "challenges": _cmd_challenges,
        "bounds": _cmd_bounds,
        "demo": _cmd_demo,
        "report": _cmd_report,
        "audit": _cmd_audit,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "loadgen": _cmd_loadgen,
        "sentinel": _cmd_sentinel,
        "arena": _cmd_arena,
        "analyze": _cmd_analyze,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
