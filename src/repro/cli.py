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
                          (``--graph`` picks the social regime, ``--attack``
                          injects a seeded adversary burst watched by the
                          sentinel plane; ``--smoke`` is the tiny CI
                          preset).
``rit sentinel``          run the live-adversary gate: clean pinned scenarios
                          must stay alert-free, each seeded sybil/collusion/
                          churn injection must be flagged by its own
                          detectors within K epochs, and the served outcomes
                          must match the offline replay (``--smoke`` is the
                          CI preset).
``rit arena``             replay one pinned seeded stream (clean + attacked)
                          through rival mechanisms (RIT, OMG, GLT, the §4
                          reward rules) under identical epoch cuts, print
                          the head-to-head scorecard and gate it
                          (``--smoke`` is the CI preset).
``rit analyze``           run the static analyzer (file-local RIT001-RIT007,
                          whole-program RIT009-RIT013) against the committed
                          findings baseline (also:
                          ``python -m repro.devtools.analysis``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["main", "build_parser"]

# Mirror repro.simulation.report.FIGURE_SHAPES and
# repro.simulation.SCALES without importing numpy and the simulation
# stack at parser-build time (handlers import lazily; pinned by
# tests/test_cli.py).
_FIGURE_IDS = ("fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "fig9")
_SCALE_NAMES = ("default", "paper", "smoke")

# Mirrors repro.service.loadgen.GRAPH_REGIMES without importing the
# service stack at parser-build time (handlers import lazily).
_GRAPH_REGIME_NAMES = ("twitter", "watts-strogatz", "forest-fire")

# Mirrors repro.arena.registry.MECHANISM_NAMES without importing the
# arena stack at parser-build time (pinned by tests/arena).
_MECHANISM_NAMES = (
    "rit", "omg", "glt", "mit-referral", "lv-moscibroda", "pachira",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rit",
        description="RIT — robust incentive trees for crowdsensing "
        "(ICDCS 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure")
    p_exp.add_argument("id", choices=list(_FIGURE_IDS) + ["all"])
    p_exp.add_argument(
        "--scale", choices=_SCALE_NAMES, default=None, help="scale preset"
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
        "--scale", choices=_SCALE_NAMES, default=None, help="scale preset"
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
        "--graph", choices=sorted(_GRAPH_REGIME_NAMES), default="twitter",
        help="social-graph regime the solicitation forest grows over",
    )
    p_serve.add_argument(
        "--attack", choices=["sybil", "collusion", "churn"], default=None,
        help="inject a seeded adversary burst and attach the sentinel plane",
    )
    p_serve.add_argument(
        "--attack-epoch", type=int, default=4,
        help="epoch index the injected burst lands at (with --attack)",
    )
    p_serve.add_argument(
        "--attack-seed", type=int, default=None,
        help="attack RNG seed (defaults to --seed)",
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
        help="full replays compared for bit-identity (at least 2; default 2)",
    )
    p_arena.add_argument(
        "--smoke", action="store_true",
        help="the small pinned CI match (rit/omg/glt/lv-moscibroda)",
    )
    p_arena.add_argument(
        "--json", action="store_true",
        help="print the arena section as JSON instead of the table",
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
    from repro.simulation import experiments as exp
    from repro.simulation.report import FIGURE_SHAPES
    from repro.simulation.reporting import format_result

    scale = exp.SCALES[args.scale] if args.scale else None
    ids = list(_FIGURE_IDS) if args.id == "all" else [args.id]
    store = None
    if args.store:
        from repro.simulation.store import ResultStore

        store = ResultStore(args.store)
    # Each shared sweep runs once, however many of its figures are asked.
    results: Dict[str, Any] = {}
    for sweep, figures in exp.SWEEPS:
        if any(fig in ids for fig in figures):
            results.update(sweep(scale, rng=args.seed))
    drifted = False
    for exp_id in ids:
        result = results.get(exp_id)
        if result is None:
            result = FIGURE_SHAPES[exp_id][0](scale, rng=args.seed)
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
    from repro.simulation import experiments as exp
    from repro.simulation.reporting import format_comparison_row

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
    from repro.simulation import experiments as exp
    from repro.simulation.report import generate_report

    scale = exp.SCALES[args.scale] if args.scale else None
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
        format_openmetrics,
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
        metrics_text = format_openmetrics(counters=snapshot)
    else:
        metrics_text = json.dumps(format_metrics_json(snapshot), indent=2) + "\n"
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(metrics_text)
        print(f"metrics -> {args.metrics_out}")
    else:
        print()
        print(metrics_text, end="")

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
    from repro.core.exceptions import AttackError, ConfigurationError
    from repro.core.rit import RIT
    from repro.obs import Tracer, config_hash
    from repro.service import (
        SERVING_RIT,
        MechanismService,
        OutcomeLedger,
        ServiceConfig,
        seeded_stream,
    )

    if args.smoke:
        users, types, tasks_per_type = 180, 3, 8
        epoch_events, epoch_ticks = 48, args.epoch_ticks
    else:
        users, types = args.users, args.types
        tasks_per_type = args.tasks_per_type
        epoch_events, epoch_ticks = args.epoch_events, args.epoch_ticks
    if args.probe_metrics and args.metrics_port is None:
        print("rit serve: --probe-metrics requires --metrics-port")
        return 2
    seed = int(args.seed)
    probe_problems: List[str] = []
    try:
        # Out-of-range options (--users 0, --queue 0, --withdraw-fraction 1,
        # --epoch-ticks 0, a negative --attack-epoch, a --ledger directory
        # that already holds this run's epochs ...) surface here.
        job, events = seeded_stream(
            seed,
            users,
            types,
            tasks_per_type,
            graph=args.graph,
            withdraw_fraction=args.withdraw_fraction,
        )
        schedule: Optional[Dict[str, Any]] = None
        sentinel = None
        if args.attack is not None:
            from repro.sentinel import SentinelPlane, inject_attack

            events, schedule = inject_attack(
                events,
                job,
                kind=args.attack,
                onset_epoch=args.attack_epoch,
                epoch_max_events=epoch_events,
                seed=seed if args.attack_seed is None else args.attack_seed,
            )
            sentinel = SentinelPlane()
        config = ServiceConfig(
            seed=seed,
            queue_size=args.queue,
            epoch_max_events=epoch_events,
            epoch_max_ticks=epoch_ticks,
        )
        run_config = {
            "users": users,
            "types": types,
            "tasks_per_type": tasks_per_type,
            "epoch_max_events": epoch_events,
            "epoch_max_ticks": epoch_ticks,
            "graph": args.graph,
            "attack": schedule,
            **SERVING_RIT,
        }
        run_id = f"rit-serve-{seed}-{config_hash(run_config)}"
        tracer = (
            Tracer(run_id, seed=seed, config=run_config)
            if args.trace_out
            else None
        )
        ledger = OutcomeLedger(args.ledger, run_id) if args.ledger else None
        service = MechanismService(
            RIT(**SERVING_RIT),
            job,
            config,
            tracer=tracer,
            ledger=ledger,
            sentinel=sentinel,
            meta_extra={"attack": schedule} if schedule is not None else None,
        )
        if args.metrics_port is None:
            report = service.serve_stream(events)
        else:
            report, probe_problems = _serve_with_metrics(service, events, args)
    except (AttackError, ConfigurationError) as err:
        print(f"rit serve: {err}")
        return 2

    print(f"run {run_id}: users={users}  |J|={job.size}  "
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
    if sentinel is not None and schedule is not None:
        from repro.sentinel.harness import attack_result_doc, render_detection

        print(f"sentinel: {render_detection(attack_result_doc(sentinel, schedule))}")
    if ledger is not None:
        print(f"ledger -> {ledger.epochs_path}")
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
        print(f"trace ({len(tracer.events)} events) -> {args.trace_out}")

    problems = service.replay_check(report)
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
    shutdown; by then ``/readyz`` must report the drained phase, and
    ``/alerts`` must be enabled exactly when a sentinel plane is attached
    (``--attack``).
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
            report = await service.serve_events(events)
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
                status, text = await http_get(server.host, server.port, "/alerts")
                if status != 200 or _json.loads(text).get("enabled") != (
                    service.sentinel is not None
                ):
                    problems.append(f"/alerts answered {status}: {text}")
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


def _cmd_sentinel(args: argparse.Namespace) -> int:
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
    return 0


def _cmd_arena(args: argparse.Namespace) -> int:
    from dataclasses import replace as _replace

    from repro.arena.harness import (
        ARENA_BENCH_PRESET,
        ARENA_SMOKE_PRESET,
        render_arena_report,
        run_arena_report,
    )
    from repro.core.exceptions import AttackError, ConfigurationError

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
    try:
        section, problems = run_arena_report(config, runs=args.runs)
    except (AttackError, ConfigurationError) as err:
        # E.g. --runs 1 (one replay leaves nothing to compare), or an
        # --attack-epoch that no join precedes.
        print(f"rit arena: {err}")
        return 2
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
        "sentinel": _cmd_sentinel,
        "arena": _cmd_arena,
        "analyze": _cmd_analyze,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
