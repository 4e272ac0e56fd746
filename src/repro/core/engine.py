"""Incremental sorted auction engine — the RIT/CRA hot path.

The reference implementation of RIT's auction phase re-materializes the
per-type unit-ask pool (``np.repeat``) and re-runs a full stable
``argsort`` over all units *every CRA round*, making the phase
``O(rounds · U log U)`` in the number of unit asks ``U``.  This module
restores the paper's ``O(N·|J|)`` shape by doing the expensive work once:

* each :class:`SortedTypePool` sorts its participants by ask value **once**
  at construction (stable, preserving the user-id tie-break order that
  CRA's correctness depends on — see :mod:`repro.core.cra`);
* the pool keeps the prefix sums of its remaining capacities in that
  sorted order, recomputed once per round when winners consume capacity,
  so the supply count ``z_s`` is a ``searchsorted`` plus one lookup, and
  the smallest-``n_s`` selection cuts the sorted order at one more
  ``searchsorted`` instead of a fresh ``argsort``.

:func:`pools_from_arrays` splits a flattened ask profile into one pool per
task type.  An :class:`~repro.core.columnar.AskProfile` builds its pools
with it once, keeps them read-only and hands each run a
:meth:`~SortedTypePool.fork`; the epoch workers build theirs from the
snapshot's columns.

RNG-compatibility contract
--------------------------
:func:`cra_presorted` consumes the *bit-identical* random stream of the
reference :func:`repro.core.cra.cra` run over
``np.repeat(values, remaining)``: the grid offset first, then one uniform
per alive unit in the original (user-id) order, then — on the same
branches — the Bernoulli keep draws over the ``n_s`` smallest units and
the winner subsample.  Differential tests
(``tests/core/test_engine.py``) assert that every :class:`CRAResult`
field matches the reference exactly, seed by seed, and the test oracle
``tests/core/reference_rit.py`` runs whole mechanisms on the reference.

Stage timing
------------
Passing a :class:`repro.obs.StageTimers` accumulates monotonic-clock
seconds for the ``sample`` / ``consensus`` / ``select`` stages (plus
``consume``, which the caller times around capacity updates) — all read
through the timers' injected clock, never ``time.*`` directly (lint rule
RIT007).  :class:`repro.core.rit.RIT` surfaces the totals on
:attr:`repro.core.outcome.MechanismOutcome.stage_timings`.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import consensus
from repro.core.cra import CRAResult, _empty_result
from repro.core.exceptions import ConfigurationError, ModelError
from repro.core.rng import SeedLike, as_generator
from repro.obs.timers import STAGE_NAMES, StageTimers
from repro.obs.tracer import NullTracer

__all__ = [
    "STAGE_NAMES",
    "StageTimers",
    "SortedTypePool",
    "cra_presorted",
    "pools_from_arrays",
]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` per ``(s, c)`` pair, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(np.arange(counts.shape[0]), counts)
    offsets = np.cumsum(counts) - counts
    return starts[reps] + (np.arange(total, dtype=np.int64) - offsets[reps])


def _prefix_sums(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, …]``: entry ``k`` sums the first ``k`` counts."""
    sums = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=sums[1:])
    return sums


class SortedTypePool:
    """Per-type ask pool: sorted once, capacity state maintained per round.

    Equivalent to re-running :func:`repro.core.extract.extract` with the
    current remaining capacities each round, but the only per-round
    ``O(N)`` work is cumulative sums of the per-user remaining counts —
    everything value-ordered is resolved against the construction-time
    sort.

    The *unit pool* of a round is the virtual array
    ``np.repeat(values, remaining)`` (original user order); per-round unit
    indices used by :func:`cra_presorted` index into it (map them to users
    with :meth:`unit_user_positions`).  Consuming a unit shrinks the pool,
    so unit indices are only meaningful within the round that produced
    them.
    """

    __slots__ = (
        "uids",
        "values",
        "remaining",
        "_sorted_users",
        "_sorted_values",
        "_prefix",
        "_bounds",
    )

    def __init__(
        self, uids: np.ndarray, values: np.ndarray, capacities: np.ndarray
    ) -> None:
        self.uids = np.asarray(uids, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.remaining = np.asarray(capacities, dtype=np.int64).copy()
        if not self.uids.shape == self.values.shape == self.remaining.shape:
            raise ConfigurationError(
                "uids, values and capacities must have identical shapes"
            )
        if self.remaining.size and self.remaining.min() < 0:
            raise ConfigurationError("capacities must be non-negative")
        # Stable sort by ask value; ties stay in original (user-id) order,
        # matching the stable unit-level argsort of the reference CRA.
        order = np.argsort(self.values, kind="stable")
        self._sorted_users = order
        self._sorted_values = self.values[order]
        #: ``_prefix[k]``: alive units held by the ``k`` cheapest users.
        self._prefix = _prefix_sums(self.remaining[order])
        #: This round's :meth:`round_bounds`, computed on first use.
        self._bounds: Optional[np.ndarray] = None

    def fork(self) -> "SortedTypePool":
        """A pool over the same asks and value order, with its own capacities.

        The fork shares every array but ``remaining``, which it copies.
        :meth:`consume_positions` replaces the prefix sums and round
        bounds instead of writing into them, so consuming the fork never
        touches this pool.
        """
        pool = copy.copy(self)
        pool.remaining = self.remaining.copy()
        return pool

    def freeze(self) -> None:
        """Mark every array read-only: runs then consume forks of the pool."""
        for arr in (
            self.uids,
            self.values,
            self.remaining,
            self._sorted_users,
            self._sorted_values,
            self._prefix,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Capacity state
    # ------------------------------------------------------------------ #

    def total_remaining(self) -> int:
        """Alive units across all participants (``O(1)``)."""
        return int(self._prefix[-1])

    # Covered by the caller's per-stage timers ('consume'); a span per
    # round-level batch would swamp the event log.
    def consume_positions(self, positions: np.ndarray) -> None:  # rit: noqa[RIT013]
        """Consume one unit per entry of ``positions`` (original-order index).

        One vectorized decrement, then one ``O(N)`` recomputation of the
        value-ordered prefix sums for the next round; the next round's
        :meth:`round_bounds` are computed when first asked for.
        """
        if positions.size == 0:
            return
        np.subtract.at(self.remaining, positions, 1)
        if self.remaining[positions].min() < 0:
            np.add.at(self.remaining, positions, 1)  # restore before raising
            raise ModelError(
                "consume would drive a remaining capacity negative"
            )
        self._prefix = _prefix_sums(self.remaining[self._sorted_users])
        self._bounds = None

    # ------------------------------------------------------------------ #
    # Round views
    # ------------------------------------------------------------------ #

    def unit_asks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialized ``(α, λ)`` — the round's pool as the reference
        :func:`repro.core.cra.cra` reads it (test oracles only)."""
        reps = self.remaining
        return np.repeat(self.values, reps), np.repeat(self.uids, reps)

    def round_bounds(self) -> np.ndarray:
        """Inclusive prefix sums of ``remaining`` in original user order.

        ``bounds[i]`` is one past the last unit index owned by user ``i``
        in this round's unit pool.  Computed once per round: the result is
        kept until :meth:`consume_positions` changes the capacities.
        """
        bounds = self._bounds
        if bounds is None:
            bounds = self._bounds = np.cumsum(self.remaining)
        return bounds

    def unit_user_positions(
        self, unit_indices: np.ndarray, bounds: np.ndarray
    ) -> np.ndarray:
        """Original user positions owning the given per-round unit indices."""
        return np.searchsorted(bounds, unit_indices, side="right")

    def alive_at_most(self, value: float) -> int:
        """``z_s`` — alive units with ask value at most ``value``."""
        k = np.searchsorted(self._sorted_values, value, side="right")
        return int(self._prefix[k])

    # Covered by the caller's per-stage timers ('select').
    def smallest_units(  # rit: noqa[RIT013]
        self, count: int, bounds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``count`` cheapest alive units, as the reference selects them.

        Returns ``(unit_indices, unit_values)`` in (value, unit-position)
        order — exactly ``argsort(unit_pool, kind="stable")[:count]`` of
        the reference, without materializing or sorting the pool.
        """
        if count <= 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        # The first ``end`` sorted users hold the ``count`` cheapest units;
        # the last of them gives only the units up to the cutoff.
        end = int(np.searchsorted(self._prefix, count))
        taken = self._sorted_users[:end]
        counts = self.remaining[taken]
        counts[-1] -= int(self._prefix[end]) - count
        starts = bounds[taken] - self.remaining[taken]
        return _ranges(starts, counts), np.repeat(self.values[taken], counts)


def pools_from_arrays(
    uid_arr: np.ndarray,
    type_arr: np.ndarray,
    val_arr: np.ndarray,
    cap_arr: np.ndarray,
) -> Dict[int, SortedTypePool]:
    """Split flattened ask arrays into per-type presorted pools.

    Selection by ``flatnonzero`` keeps each pool in the profile's order
    (see :func:`repro.core.extract.extract` for why order is
    load-bearing)."""
    return {
        int(tau): SortedTypePool(
            uid_arr[sel], val_arr[sel], cap_arr[sel]
        )
        for tau in np.unique(type_arr)
        for sel in (np.flatnonzero(type_arr == tau),)
    }


def cra_presorted(
    pool: SortedTypePool,
    q: int,
    m_i: int,
    rng: SeedLike = None,
    *,
    sample_rate_scale: float = 1.0,
    timers: Optional[StageTimers] = None,
    tracer: Optional[NullTracer] = None,
) -> CRAResult:
    """Run one CRA round (Algorithm 1) against a presorted pool.

    Drop-in fast path for :func:`repro.core.cra.cra` over the pool's
    current unit asks: same draws off ``rng`` (see the module docstring's
    RNG-compatibility contract), same :class:`CRAResult` bit for bit.
    Winner indices refer to this round's unit pool; translate them with
    :meth:`SortedTypePool.unit_user_positions` *before* consuming capacity.

    ``timers`` accumulates per-stage seconds on its injected clock;
    ``tracer`` (when enabled) receives the sample-stage counters — both
    are optional and add no per-unit work when omitted.
    """
    if q <= 0:
        raise ConfigurationError(f"q must be >= 1, got {q}")
    if m_i <= 0:
        raise ConfigurationError(f"m_i must be >= 1, got {m_i}")
    if sample_rate_scale <= 0:
        raise ConfigurationError(
            f"sample_rate_scale must be > 0, got {sample_rate_scale}"
        )
    gen = as_generator(rng)
    cap = q + m_i
    clock = timers.clock if timers is not None else None
    tracing = tracer is not None and tracer.enabled

    # Sample stage (lines 2-4): offset plus one uniform per alive unit, in
    # original unit-pool order — the draws the reference makes.
    t0 = clock() if clock is not None else 0.0
    offset = float(gen.uniform(0.0, 1.0))
    rate = min(1.0, sample_rate_scale / cap)
    mask = gen.random(pool.total_remaining()) < rate
    sample = np.flatnonzero(mask)
    if tracing:
        tracer.count("sample_units_drawn", int(sample.size))
    if sample.size == 0:
        if clock is not None:
            timers.sample += clock() - t0
        if tracing:
            tracer.count("empty_samples")
        return _empty_result(offset, sample)
    bounds = pool.round_bounds()
    s = float(pool.values[pool.unit_user_positions(sample, bounds)].min())
    t1 = clock() if clock is not None else 0.0

    # Consensus stage (line 5): z_s from the prefix sums over the
    # presorted values instead of a linear scan.
    z_s = pool.alive_at_most(s)
    n_s_real = consensus.round_down_to_grid(float(z_s), offset)
    n_s = int(math.floor(n_s_real))
    if clock is not None:
        t2 = clock()
        timers.sample += t1 - t0
        timers.consensus += t2 - t1
    else:
        t2 = 0.0
    if n_s <= 0:
        return _empty_result(offset, sample)

    # Select stage (lines 6-19): the cheapest alive units, cut from the
    # sorted order.
    chosen, chosen_values = pool.smallest_units(n_s, bounds)
    overflow = False
    if n_s > cap:
        keep = gen.random(chosen.shape[0]) < (cap / (2.0 * n_s))
        chosen = chosen[keep]
        chosen_values = chosen_values[keep]
        if chosen.size == 0:
            if clock is not None:
                timers.select += clock() - t2
            return _empty_result(offset, sample)
    if chosen.size > cap:
        # ``chosen`` is already in (value, unit-position) order, so the
        # reference's stable re-sort before trimming is the identity.
        s = float(chosen_values[cap])
        chosen = chosen[:cap]
        overflow = True
    if chosen.size > q:
        chosen = gen.choice(chosen, size=q, replace=False)
    winners = np.sort(chosen.astype(np.int64))
    if clock is not None:
        timers.select += clock() - t2
    return CRAResult(
        winners=winners,
        price=s,
        sample_indices=sample,
        n_s=n_s,
        offset=offset,
        overflow_trimmed=overflow,
    )
