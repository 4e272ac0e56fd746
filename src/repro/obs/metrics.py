"""Deterministic histograms and gauges: the live-metrics contract.

The service telemetry plane (:mod:`repro.service.telemetry`), the trace
layer (``distribution`` events in :mod:`repro.obs.tracer`) and the
OpenMetrics endpoint all share one registry of *metric specs*.  Two
properties make the recorded distributions reproducible and mergeable:

fixed bucket boundaries
    Every histogram's buckets come from a named family in
    :data:`BUCKET_FAMILIES` — precomputed log-scale boundaries built from
    exact powers of two (or exact 1/16 steps for ratios), never computed
    at a call site.  Two runs, or two workers, that observe the
    same values therefore produce bit-identical bucket counts, and any
    two histograms of the same family merge by integer addition.  Lint
    rule RIT007 bans instrumented modules from constructing ad-hoc
    boundaries inline.

exact streaming extremes
    Alongside the bucket counts each histogram tracks exact ``count``,
    ``sum``, ``min`` and ``max``.  Derived quantiles interpolate inside
    the owning bucket and clamp to the exact extremes, so ``quantile(0)``
    and ``quantile(1)`` are always true observations.

Metric *kinds*:

* ``"histogram"`` — bucketed distribution (latencies, depths);
* ``"gauge"`` — a last-write-wins scalar (per-epoch win rates, referral
  depth).  Gauges have no bucket family.

``volatile=True`` marks metrics whose observed values are measured (wall
time, scheduler-dependent queue depths): their values are stripped from
the canonical trace stream exactly like ``"seconds"``-unit counters.
Non-volatile metrics (win rates, referral depths) are pure functions of
the seeded run and stay in the canonical stream.

This module is imported by :mod:`repro.obs.tracer` and therefore imports
only the standard library; :meth:`Histogram.observe_many` loads numpy on
its first long batch.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BUCKET_FAMILIES",
    "METRIC_CATALOG",
    "METRIC_FAMILIES",
    "MetricSpec",
    "Histogram",
    "bucket_boundaries",
    "bucket_index",
    "describe_metric",
    "new_histogram",
]


def _pow2_boundaries(lo_exp: int, hi_exp: int) -> Tuple[float, ...]:
    """Exact power-of-two boundaries ``2**lo_exp .. 2**hi_exp`` inclusive."""
    return tuple(float(2.0 ** k) for k in range(lo_exp, hi_exp + 1))


#: Named bucket families: family → ascending upper-bound boundaries.
#: A value ``v`` lands in the first bucket whose boundary is ``>= v``;
#: values above the last boundary land in the implicit overflow bucket
#: (rendered as ``le="+Inf"``).  All boundaries are exactly representable
#: binary floats, so bucket assignment is bit-stable across platforms.
BUCKET_FAMILIES: Dict[str, Tuple[float, ...]] = {
    # ~1 µs .. 64 s in factor-of-2 steps: admission latencies sit at the
    # bottom, epoch executions at the top.
    "latency_seconds": _pow2_boundaries(-20, 6),
    # Queue occupancies / event counts: 1 .. 2^20.
    "depth": _pow2_boundaries(0, 20),
    # Ratios in [0, 1] in exact 1/16 steps.
    "ratio": tuple(i / 16.0 for i in range(0, 17)),
}


@dataclass(frozen=True)
class MetricSpec:
    """Contract of one metric: kind, unit, bucket family, volatility."""

    kind: str  # "histogram" | "gauge"
    unit: str  # "seconds" | "count" | "ratio"
    family: Optional[str]  # BUCKET_FAMILIES key; None for gauges
    volatile: bool  # measured (stripped from canonical traces)?
    description: str

    def __post_init__(self) -> None:
        if self.kind not in ("histogram", "gauge"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "histogram" and self.family not in BUCKET_FAMILIES:
            raise ValueError(
                f"histogram family {self.family!r} is not a registered "
                f"bucket family {sorted(BUCKET_FAMILIES)}"
            )
        if self.kind == "gauge" and self.family is not None:
            raise ValueError("gauges carry no bucket family")
        if self.unit == "seconds" and not self.volatile:
            raise ValueError("seconds-unit metrics are measured: volatile")


#: Exact metric names → spec.  The registry *is* the bucket-boundary
#: contract: emitters look buckets up here (RIT007) and the trace schema
#: validator recomputes bucket indices against it.
METRIC_CATALOG: Dict[str, MetricSpec] = {
    "ingest_admit_seconds": MetricSpec(
        "histogram", "seconds", "latency_seconds", True,
        "frontend admission latency per offered event (validate + enqueue)",
    ),
    "epoch_close_to_outcome_seconds": MetricSpec(
        "histogram", "seconds", "latency_seconds", True,
        "epoch close to its appended ledger record (snapshot and pool "
        "build + RIT.run + ledger append)",
    ),
    "arena_epoch_seconds": MetricSpec(
        "histogram", "seconds", "latency_seconds", True,
        "one mechanism's wall time per epoch inside an arena replay",
    ),
    "ingest_queue_depth": MetricSpec(
        "histogram", "count", "depth", True,
        "ingestion-queue occupancy sampled at each enqueue (scheduler-"
        "dependent, hence volatile)",
    ),
    "epoch_batch_events": MetricSpec(
        "histogram", "count", "depth", False,
        "admitted events per closed epoch batch",
    ),
    "referral_depth_max": MetricSpec(
        "gauge", "count", None, False,
        "deepest solicitation chain in the epoch's incentive tree",
    ),
    "referral_depth_mean": MetricSpec(
        "gauge", "ratio", None, False,
        "mean solicitation depth over the epoch's participants",
    ),
    "epoch_participants": MetricSpec(
        "gauge", "count", None, False,
        "participants in the cumulative state at epoch close",
    ),
    "sentinel/reputation_mean": MetricSpec(
        "gauge", "ratio", None, False,
        "mean beta-reputation trust score over observed participants",
    ),
    "sentinel/reputation_min": MetricSpec(
        "gauge", "ratio", None, False,
        "lowest beta-reputation trust score among observed participants",
    ),
    "sentinel/flagged_users": MetricSpec(
        "gauge", "count", None, False,
        "participants whose beta-reputation score sits below the "
        "configured floor",
    ),
}

#: Prefix families for dynamically-named metrics: prefix → spec.
#: ``win_rate/depth<k>`` is the per-subtree-level win-rate surface the
#: online attack detectors will watch (sybil subtrees shift it).
METRIC_FAMILIES: Dict[str, MetricSpec] = {
    "win_rate/": MetricSpec(
        "gauge", "ratio", None, False,
        "fraction of participants at a referral depth who won >= 1 task "
        "in the epoch",
    ),
}


def describe_metric(name: str) -> Optional[MetricSpec]:
    """Spec for a metric name (exact entry or prefix family), else None."""
    spec = METRIC_CATALOG.get(name)
    if spec is not None:
        return spec
    for prefix, family_spec in METRIC_FAMILIES.items():
        if name.startswith(prefix):
            return family_spec
    return None


def bucket_boundaries(family: str) -> Tuple[float, ...]:
    """The fixed boundaries of a registered bucket family."""
    try:
        return BUCKET_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown bucket family {family!r}; registered: "
            f"{sorted(BUCKET_FAMILIES)}"
        ) from None


def bucket_index(boundaries: Sequence[float], value: float) -> int:
    """Index of the bucket owning ``value``.

    Buckets are ``(prev, boundary]`` upper-bound style; index
    ``len(boundaries)`` is the overflow bucket (``+Inf``).
    """
    return bisect_left(boundaries, value)


#: Batches at least this long count their buckets in numpy
#: (:func:`_bucket_counts`); shorter ones bisect value by value, which is
#: cheaper than building the arrays.
_BULK_MIN_VALUES = 128


def _bucket_counts(
    boundaries: Sequence[float], values: Sequence[float]
) -> Optional[List[int]]:
    """How many ``values`` land in each bucket, or None for a batch that is
    not all ints and floats.

    One ``searchsorted`` and one ``bincount`` give the counts
    :func:`bucket_index` gives value by value.  Two cases need care.  An
    int past ``2**53`` that numpy stores as a float may round, but every
    registered boundary is smaller than ``2**53`` in magnitude, so the
    rounded value stays beyond every boundary on its side.
    ``bisect_left`` puts NaN in bucket 0 (NaN compares false with every
    boundary), while ``searchsorted`` sorts it last, so NaN is moved back.
    """
    import numpy as np

    samples = np.array(values)
    kind = samples.dtype.kind
    if kind != "f" and kind != "i":
        return None
    index = np.searchsorted(boundaries, samples)
    if kind == "f":
        index[np.isnan(samples)] = 0
    added: List[int] = np.bincount(index, minlength=len(boundaries) + 1).tolist()
    return added


class Histogram:
    """Fixed-boundary histogram with exact streaming count/sum/min/max.

    All mutation happens through :meth:`observe`, :meth:`observe_many`
    and :meth:`merge`; the bucket layout is frozen at construction from a
    registered family, so histograms of the same metric are always
    structurally compatible.
    """

    __slots__ = (
        "name", "unit", "family", "boundaries", "counts",
        "count", "total", "vmin", "vmax",
    )

    def __init__(self, name: str, unit: str, family: str) -> None:
        self.name = name
        self.unit = unit
        self.family = family
        self.boundaries = bucket_boundaries(family)
        self.counts: List[int] = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> int:
        """Record one observation; returns the owning bucket index."""
        index = bucket_index(self.boundaries, value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        return index

    def observe_many(self, values: Sequence[float]) -> None:
        """Record ``values`` in order: the state of one :meth:`observe` each.

        Bucket counts and ``count`` add up; ``sum`` adds the values left
        to right onto the running total, the float sequential ``+=``
        gives; ``min``/``max`` compare as :meth:`observe` does and so keep
        the first extreme object (an ``int`` stays an ``int``).
        """
        if not values:
            return
        counts, boundaries = self.counts, self.boundaries
        added = (
            _bucket_counts(boundaries, values)
            if len(values) >= _BULK_MIN_VALUES
            else None
        )
        if added is None:
            for value in values:
                counts[bisect_left(boundaries, value)] += 1
        else:
            for index, number in enumerate(added):
                counts[index] += number
        self.count += len(values)
        self.total = reduce(add, values, self.total)
        if self.vmin is None:
            self.vmin, self.vmax = min(values), max(values)
        else:
            self.vmin = min(chain((self.vmin,), values))
            self.vmax = max(chain((self.vmax,), values))

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram of the same metric into this one.

        Bucket counts add exactly (integers over identical boundaries),
        so merge order never changes the result — workers can be
        absorbed in any grouping.
        """
        if other.family != self.family or other.unit != self.unit:
            raise ValueError(
                f"cannot merge histogram {other.name!r} "
                f"({other.family}/{other.unit}) into {self.name!r} "
                f"({self.family}/{self.unit})"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.vmin is not None and (self.vmin is None or other.vmin < self.vmin):
            self.vmin = other.vmin
        if other.vmax is not None and (self.vmax is None or other.vmax > self.vmax):
            self.vmax = other.vmax

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #

    def quantile(self, q: float) -> float:
        """Derived quantile (nearest-rank over buckets, interpolated).

        Finds the bucket holding the ``ceil(q * count)``-th observation
        and interpolates linearly across it by rank, clamping to the
        exact streaming min/max so ``quantile(0.0) == min`` and
        ``quantile(1.0) == max``.  Returns 0.0 for an empty histogram
        (keeps SLO documents schema-valid on degenerate runs).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0 or self.vmin is None or self.vmax is None:
            return 0.0
        if q == 0.0:
            return self.vmin
        if q == 1.0:
            return self.vmax
        rank = max(1, -(-int(q * self.count * 1_000_000) // 1_000_000))
        # rank = ceil(q * count) computed in exact integer arithmetic for
        # the common q values (0.5, 0.95, 0.99 are exact in micro-units).
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lo = self.boundaries[index - 1] if index > 0 else 0.0
                hi = (
                    self.boundaries[index]
                    if index < len(self.boundaries)
                    else self.vmax
                )
                fraction = (rank - seen) / bucket_count
                value = lo + (hi - lo) * fraction
                return min(max(value, self.vmin), self.vmax)
            seen += bucket_count
        return self.vmax

    def summary(
        self, quantiles: Sequence[float] = (0.50, 0.95, 0.99)
    ) -> Dict[str, Any]:
        """``{count, sum, min, max, p50, p95, p99}`` (floats; 0.0 when empty)."""
        doc: Dict[str, Any] = {
            "count": self.count,
            "sum": float(self.total),
            "min": float(self.vmin) if self.vmin is not None else 0.0,
            "max": float(self.vmax) if self.vmax is not None else 0.0,
        }
        for q in quantiles:
            doc[f"p{round(q * 100):02d}"] = float(self.quantile(q))
        return doc

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready state (bucket counts + exact extremes)."""
        return {
            "name": self.name,
            "unit": self.unit,
            "family": self.family,
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Histogram":
        hist = cls(str(doc["name"]), str(doc["unit"]), str(doc["family"]))
        counts = list(doc["counts"])
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram {hist.name!r}: {len(counts)} buckets in the "
                f"document, family {hist.family!r} defines {len(hist.counts)}"
            )
        hist.counts = [int(c) for c in counts]
        hist.count = int(doc["count"])
        hist.total = float(doc["sum"])
        hist.vmin = None if doc["min"] is None else float(doc["min"])
        hist.vmax = None if doc["max"] is None else float(doc["max"])
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name!r}, n={self.count}, "
            f"min={self.vmin}, max={self.vmax})"
        )


def new_histogram(name: str) -> Histogram:
    """Build the cataloged histogram for ``name`` (spec-checked)."""
    spec = describe_metric(name)
    if spec is None:
        raise ValueError(f"metric {name!r} is not in METRIC_CATALOG")
    if spec.kind != "histogram" or spec.family is None:
        raise ValueError(f"metric {name!r} is a {spec.kind}, not a histogram")
    return Histogram(name, spec.unit, spec.family)
