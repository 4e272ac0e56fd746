"""Simulation harness: runners, metrics, experiments, reporting."""

from repro.simulation.experiments import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SCALES,
    SMOKE_SCALE,
    SWEEPS,
    ExperimentScale,
    active_scale,
    design_challenge_fig2,
    design_challenge_fig3,
    fig6a,
    fig6b,
    fig7a,
    fig7b,
    fig8a,
    fig8b,
    fig9,
    tasks_sweep_figures,
    users_sweep_figures,
)
from repro.simulation.explain import explain_outcome
from repro.simulation.extensions import (
    coalition_sweep,
    h_sweep,
    recruitment_sweep,
    supply_sweep,
    tree_shape_sweep,
)
from repro.simulation.parallel import run_repetitions_parallel
from repro.simulation.plotting import ascii_chart, render_result
from repro.simulation.report import generate_report
from repro.simulation.reporting import format_comparison_row, format_result, print_result
from repro.simulation.results import ExperimentResult, Series, SeriesPoint, aggregate
from repro.simulation.runner import RunMeasurement, run_repetitions
from repro.simulation.store import ResultStore, SeriesDrift, compare_results

__all__ = [
    "explain_outcome",
    "h_sweep",
    "coalition_sweep",
    "tree_shape_sweep",
    "supply_sweep",
    "recruitment_sweep",
    "ascii_chart",
    "render_result",
    "generate_report",
    "ExperimentScale",
    "PAPER_SCALE",
    "DEFAULT_SCALE",
    "SMOKE_SCALE",
    "SCALES",
    "active_scale",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "fig9",
    "users_sweep_figures",
    "tasks_sweep_figures",
    "SWEEPS",
    "design_challenge_fig2",
    "design_challenge_fig3",
    "ExperimentResult",
    "Series",
    "SeriesPoint",
    "aggregate",
    "RunMeasurement",
    "run_repetitions",
    "run_repetitions_parallel",
    "ResultStore",
    "SeriesDrift",
    "compare_results",
    "format_result",
    "format_comparison_row",
    "print_result",
]
