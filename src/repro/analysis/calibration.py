"""Dataset-substitution calibration.

DESIGN.md claims the synthetic twitter-like generator is a valid stand-in
for the SNAP ego-Twitter graph because the incentive tree only consumes
the graph through the spanning forest, whose shape is governed by the
degree distribution's heavy tail.  This module quantifies that claim:

* :func:`hill_tail_exponent` — the Hill estimator of the degree
  distribution's tail index (power laws have small indices, ~1-3; thin
  tails diverge);
* :func:`degree_gini` — inequality of the out-degree distribution
  (follower graphs are highly unequal);
* :func:`calibration_report` — side-by-side summary of a graph against
  the ego-Twitter reference statistics, usable to validate either the
  shipped generator or a user-supplied SNAP file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.socialnet.generators import TWITTER_MEAN_OUT_DEGREE
from repro.socialnet.graph import SocialGraph

__all__ = ["hill_tail_exponent", "degree_gini", "CalibrationReport", "calibration_report"]


def hill_tail_exponent(degrees: Sequence[int], *, top_fraction: float = 0.1) -> float:
    """Hill estimator of the tail index over the top ``top_fraction``.

    Smaller values = heavier tails.  Returns ``inf`` when the tail is
    degenerate (all top-order statistics equal).
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ConfigurationError(
            f"top_fraction must be in (0, 1], got {top_fraction}"
        )
    arr = np.asarray([d for d in degrees if d > 0], dtype=np.float64)
    if arr.size < 10:
        raise ConfigurationError(
            f"need at least 10 positive degrees, got {arr.size}"
        )
    arr.sort()
    k = max(2, int(arr.size * top_fraction))
    tail = arr[-k:]
    threshold = tail[0]
    logs = np.log(tail / threshold)
    mean_log = logs.mean()
    if mean_log <= 0:
        return float("inf")
    return float(1.0 / mean_log)


def degree_gini(degrees: Sequence[int]) -> float:
    """Gini coefficient of the degree distribution (0 = equal, →1 = hubs)."""
    arr = np.sort(np.asarray(degrees, dtype=np.float64))
    if arr.size == 0:
        raise ConfigurationError("no degrees to summarize")
    total = arr.sum()
    if total == 0:
        return 0.0
    index = np.arange(1, arr.size + 1)
    return float((2.0 * (index * arr).sum() / (arr.size * total)) - (arr.size + 1) / arr.size)


@dataclass(frozen=True)
class CalibrationReport:
    """Graph statistics next to the ego-Twitter reference profile."""

    num_nodes: int
    mean_out_degree: float
    max_out_degree: int
    tail_exponent: float
    gini: float
    reference_mean_out_degree: float = TWITTER_MEAN_OUT_DEGREE

    @property
    def mean_degree_ratio(self) -> float:
        """Generated mean degree relative to the reference (1.0 = match)."""
        return self.mean_out_degree / self.reference_mean_out_degree

    @property
    def heavy_tailed(self) -> bool:
        """Heuristic: hub-dominated like a follower graph?

        Power-law-ish tail (index below ~3.5) together with high degree
        inequality (Gini above 0.4).
        """
        return self.tail_exponent < 3.5 and self.gini > 0.4

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"nodes={self.num_nodes} mean_out={self.mean_out_degree:.2f} "
            f"(ref {self.reference_mean_out_degree:.2f}) "
            f"max_out={self.max_out_degree} tail={self.tail_exponent:.2f} "
            f"gini={self.gini:.2f} heavy_tailed={self.heavy_tailed}"
        )


def calibration_report(graph: SocialGraph) -> CalibrationReport:
    """Summarize a graph for comparison against the ego-Twitter profile."""
    degrees = graph.out_degrees().tolist()
    stats = graph.stats()
    return CalibrationReport(
        num_nodes=stats.num_nodes,
        mean_out_degree=stats.mean_out_degree,
        max_out_degree=stats.max_out_degree,
        tail_exponent=hill_tail_exponent(degrees),
        gini=degree_gini(degrees),
    )
