"""Result store: persist, load and regression-compare experiment runs.

A reproduction is only useful if it can be *re*-reproduced: the store
gives experiment results a stable on-disk layout
(``<root>/<experiment_id>/<tag>.json``) and a comparator that flags
drifts between two runs of the same figure — the tool behind
"did the refactor change the numbers?".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from repro.core.exceptions import ConfigurationError
from repro.obs.events import RUN_ID_RE
from repro.simulation.results import ExperimentResult, Series

__all__ = ["ResultStore", "SeriesDrift", "compare_results"]


@dataclass(frozen=True)
class SeriesDrift:
    """Largest relative deviation between two versions of one series."""

    series: str
    x: float
    old_mean: float
    new_mean: float

    @property
    def relative(self) -> float:
        scale = max(abs(self.old_mean), abs(self.new_mean), 1e-12)
        return abs(self.new_mean - self.old_mean) / scale

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.series} @ x={self.x:g}: {self.old_mean:.6g} -> "
            f"{self.new_mean:.6g} ({self.relative:.1%})"
        )


def compare_results(
    old: ExperimentResult,
    new: ExperimentResult,
    *,
    tolerance: float = 0.25,
) -> List[SeriesDrift]:
    """Drifts beyond ``tolerance`` (relative) between two runs.

    Series and x-values present in only one of the results are reported
    as full drifts (old/new mean 0 on the missing side).  Randomized
    experiments need generous tolerances unless seeds match.
    """
    if old.experiment_id != new.experiment_id:
        raise ConfigurationError(
            f"comparing different experiments: {old.experiment_id!r} vs "
            f"{new.experiment_id!r}"
        )
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    drifts: List[SeriesDrift] = []
    old_series = {s.name: s for s in old.series}
    new_series = {s.name: s for s in new.series}
    for name in sorted(set(old_series) | set(new_series)):
        a = old_series.get(name)
        b = new_series.get(name)
        xs = sorted(
            {p.x for p in (a.points if a else [])}
            | {p.x for p in (b.points if b else [])}
        )
        for x in xs:
            try:
                old_mean = a.value_at(x) if a else 0.0
            except ConfigurationError:
                old_mean = 0.0
            try:
                new_mean = b.value_at(x) if b else 0.0
            except ConfigurationError:
                new_mean = 0.0
            drift = SeriesDrift(series=name, x=x, old_mean=old_mean, new_mean=new_mean)
            if drift.relative > tolerance:
                drifts.append(drift)
    return drifts


class ResultStore:
    """Directory-backed store of :class:`ExperimentResult` objects."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, experiment_id: str, tag: str) -> Path:
        for label, value in (("experiment_id", experiment_id), ("tag", tag)):
            if not RUN_ID_RE.match(value):
                raise ConfigurationError(
                    f"{label} {value!r} must match {RUN_ID_RE.pattern}"
                )
        return self.root / experiment_id / f"{tag}.json"

    def save(self, result: ExperimentResult, tag: str) -> Path:
        """Persist under ``<root>/<experiment_id>/<tag>.json``."""
        path = self._path(result.experiment_id, tag)
        path.parent.mkdir(parents=True, exist_ok=True)
        result.save(path)
        return path

    def load(self, experiment_id: str, tag: str) -> ExperimentResult:
        path = self._path(experiment_id, tag)
        if not path.exists():
            raise ConfigurationError(f"no stored result at {path}")
        return ExperimentResult.load(path)

    def tags(self, experiment_id: str) -> List[str]:
        """Stored tags for one experiment, sorted."""
        directory = self.root / experiment_id
        if not directory.is_dir():
            return []
        return sorted(p.stem for p in directory.glob("*.json"))

    def latest(self, experiment_id: str) -> ExperimentResult:
        """The most recently written result for one experiment.

        Recency is file modification time (ties broken by tag name, so the
        answer is deterministic even when a test writes two tags within
        one clock quantum).  Raises
        :class:`~repro.core.exceptions.ConfigurationError` when the
        experiment has no stored results — callers that want a soft probe
        should check :meth:`tags` first.
        """
        directory = self.root / experiment_id
        paths = sorted(directory.glob("*.json")) if directory.is_dir() else []
        if not paths:
            raise ConfigurationError(
                f"no stored results for experiment {experiment_id!r} under {self.root}"
            )
        newest = max(paths, key=lambda p: (p.stat().st_mtime_ns, p.stem))
        return ExperimentResult.load(newest)

    def experiments(self) -> List[str]:
        """All experiment ids with at least one stored result."""
        return sorted(
            p.name for p in self.root.iterdir() if p.is_dir() and any(p.glob("*.json"))
        )

    def check_regression(
        self,
        result: ExperimentResult,
        baseline_tag: str,
        *,
        tolerance: float = 0.25,
    ) -> List[SeriesDrift]:
        """Compare a fresh result against a stored baseline."""
        baseline = self.load(result.experiment_id, baseline_tag)
        return compare_results(baseline, result, tolerance=tolerance)
