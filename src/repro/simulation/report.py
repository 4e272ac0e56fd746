"""One-command reproduction report.

:func:`generate_report` reruns every paper figure (plus, optionally, the
extension studies), renders tables and ASCII charts, checks the paper's
shape expectations, and emits a single markdown document — the dynamic
counterpart of the committed EXPERIMENTS.md.  Driven by ``rit report``.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.rng import SeedLike, as_generator, spawn
from repro.obs.tracer import NullTracer, Tracer
from repro.simulation import experiments as exp
from repro.simulation.plotting import render_result
from repro.simulation.reporting import format_result
from repro.simulation.results import ExperimentResult

__all__ = ["ShapeCheck", "FIGURE_SHAPES", "generate_report"]


@dataclass(frozen=True)
class ShapeCheck:
    """A named expectation about a reproduced figure's shape."""

    description: str
    passed: bool


def _check_fig6(result: ExperimentResult, direction: str) -> List[ShapeCheck]:
    rit = result.get("RIT")
    auction = result.get("auction phase")
    trend = rit.endpoint_trend()
    ok_trend = trend < 0 if direction == "decreasing" else trend > 0
    dominated = all(
        rit.value_at(x) >= auction.value_at(x) - 1e-12 for x in rit.xs
    )
    return [
        ShapeCheck(f"average utility is {direction} across the sweep", ok_trend),
        ShapeCheck("RIT utility >= auction-phase utility pointwise", dominated),
    ]


def _check_fig7(result: ExperimentResult) -> List[ShapeCheck]:
    rit = result.get("RIT")
    auction = result.get("auction phase")
    bounded = all(
        auction.value_at(x) - 1e-9
        <= rit.value_at(x)
        <= 2 * auction.value_at(x) + 1e-9
        for x in rit.xs
    )
    return [ShapeCheck("auction total <= RIT total <= 2x auction total", bounded)]


def _check_fig8(result: ExperimentResult) -> List[ShapeCheck]:
    rit = result.get("RIT")
    xs = rit.xs
    ratio = rit.means[-1] / max(rit.means[0], 1e-9)
    linearish = ratio <= 4.0 * (xs[-1] / xs[0])
    return [ShapeCheck("running-time growth stays in a linear envelope", linearish)]


def _check_fig9(result: ExperimentResult) -> List[ShapeCheck]:
    import numpy as np

    honest = result.get("honest (no sybil)").means[0]
    arms = [s for s in result.series if s.name.startswith("ask=")]
    decreasing = all(
        float(np.mean(s.means[-len(s.means) // 3 or 1:]))
        <= float(np.mean(s.means[: len(s.means) // 3 or 1]))
        + 0.1 * max(1.0, abs(s.means[0]))
        for s in arms
    )
    dominant = all(
        honest >= float(np.mean(s.means)) - 0.15 * max(1.0, abs(honest))
        for s in arms
    )
    return [
        ShapeCheck("attacker utility decreases with identity count", decreasing),
        ShapeCheck("honest play is not dominated by any attack arm", dominant),
    ]


#: figure id -> (experiment fn, shape checker)
FIGURE_SHAPES: Dict[str, Tuple[Callable, Callable[[ExperimentResult], List[ShapeCheck]]]] = {
    "fig6a": (exp.fig6a, lambda r: _check_fig6(r, "decreasing")),
    "fig6b": (exp.fig6b, lambda r: _check_fig6(r, "increasing")),
    "fig7a": (exp.fig7a, _check_fig7),
    "fig7b": (exp.fig7b, _check_fig7),
    "fig8a": (exp.fig8a, _check_fig8),
    "fig8b": (exp.fig8b, _check_fig8),
    "fig9": (exp.fig9, _check_fig9),
}


def generate_report(
    *,
    scale: Optional[exp.ExperimentScale] = None,
    figures: Optional[Sequence[str]] = None,
    rng: SeedLike = None,
    charts: bool = True,
    include_challenges: bool = True,
    path: Optional[Union[str, Path]] = None,
    tracer: Optional[NullTracer] = None,
) -> str:
    """Rerun the reproduction and return (and optionally write) a report.

    Parameters
    ----------
    scale:
        Experiment scale (default: the active one — ``RIT_SCALE`` aware).
    figures:
        Figure ids to include (default: all of Figs. 6–9).
    rng:
        Root seed; each figure gets an independent spawned stream.
    charts:
        Include ASCII charts next to the tables.
    include_challenges:
        Append the §4 design-challenge counterexamples.
    path:
        When given, the markdown is also written there.
    tracer:
        Observability sink (see :mod:`repro.obs`).  Figure timings and
        check tallies flow through its counters (``figures_rendered``,
        ``shape_checks_passed``/``failed``, ``figure_seconds/<fig>``); by
        default a private recording tracer is used just for the
        bookkeeping the report itself prints.
    """
    chosen = list(figures) if figures is not None else list(FIGURE_SHAPES)
    for fig in chosen:
        if fig not in FIGURE_SHAPES:
            raise KeyError(f"unknown figure {fig!r}; known: {sorted(FIGURE_SHAPES)}")
    resolved = exp.active_scale(scale)
    gen = as_generator(rng)
    obs = tracer if tracer is not None else Tracer(
        "report", config={"figures": chosen, "scale": resolved.name}
    )
    clock = obs.clock

    lines: List[str] = []
    lines.append("# RIT reproduction report")
    lines.append("")
    lines.append(
        f"*scale:* `{resolved.name}` — *host:* {platform.machine()} / "
        f"Python {platform.python_version()} — *generated:* one run per figure"
    )
    lines.append("")

    # Figures sharing a sweep are computed together (one sweep instead of
    # three) — a 3x saving that matters at paper scale.  Per-figure
    # timings and check tallies live in the tracer's counters, not in
    # hand-rolled dicts.
    precomputed: Dict[str, ExperimentResult] = {}
    for group_fn, members in exp.SWEEPS:
        wanted = [fig for fig in members if fig in chosen]
        if len(wanted) > 1:
            group_rng = spawn(gen, 1)[0]
            start = clock()
            group = group_fn(resolved, rng=group_rng)
            elapsed = (clock() - start) / len(wanted)
            for fig in wanted:
                precomputed[fig] = group[fig]
                obs.count(f"figure_seconds/{fig}", elapsed, unit="seconds")

    all_checks: List[Tuple[str, ShapeCheck]] = []
    for fig in chosen:
        fn, checker = FIGURE_SHAPES[fig]
        if fig in precomputed:
            result = precomputed[fig]
        else:
            fig_rng = spawn(gen, 1)[0]
            with obs.span("figure", fig=fig):
                start = clock()
                result = fn(resolved, rng=fig_rng)
                obs.count(
                    f"figure_seconds/{fig}", clock() - start, unit="seconds"
                )
        obs.count("figures_rendered")
        elapsed = obs.value(f"figure_seconds/{fig}", 0.0)
        checks = checker(result)
        for check in checks:
            obs.count(
                "shape_checks_passed" if check.passed else "shape_checks_failed"
            )
        all_checks.extend((fig, c) for c in checks)

        lines.append(f"## {fig} — {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(format_result(result))
        lines.append("```")
        if charts:
            lines.append("")
            lines.append("```")
            lines.append(render_result(result))
            lines.append("```")
        lines.append("")
        for check in checks:
            mark = "x" if check.passed else " "
            lines.append(f"- [{mark}] {check.description}")
        lines.append(f"- regenerated in {elapsed:.1f}s")
        lines.append("")

    if include_challenges:
        lines.append("## §4 design challenges")
        lines.append("")
        for report in (exp.design_challenge_fig2(), exp.design_challenge_fig3()):
            verdict = "violated (as the paper shows)" if report.violated else "NOT violated"
            lines.append(
                f"- {report.description}: honest {report.honest_utility:.3f} "
                f"vs deviant {report.deviant_utility:.3f} — {verdict}"
            )
            obs.count(
                "shape_checks_passed" if report.violated else "shape_checks_failed"
            )
            all_checks.append(
                ("design", ShapeCheck(report.description, report.violated))
            )
        lines.append("")

    passed = sum(1 for _, c in all_checks if c.passed)
    lines.append("## Summary")
    lines.append("")
    lines.append(f"**{passed}/{len(all_checks)} shape checks passed.**")
    failed = [(fig, c) for fig, c in all_checks if not c.passed]
    for fig, check in failed:
        lines.append(f"- FAILED [{fig}] {check.description}")
    text = "\n".join(lines) + "\n"

    if path is not None:
        Path(path).write_text(text)
    return text
