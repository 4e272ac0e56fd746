"""Incremental sorted auction engine — the RIT/CRA hot path.

The reference implementation of RIT's auction phase re-materializes the
per-type unit-ask pool (``np.repeat``) and re-runs a full stable
``argsort`` over all units *every CRA round*, making the phase
``O(rounds · U log U)`` in the number of unit asks ``U``.  This module
restores the paper's ``O(N·|J|)`` shape by doing the expensive work once:

* each :class:`SortedTypePool` sorts its participants by ask value **once**
  at construction (stable, preserving the user-id tie-break order that
  CRA's correctness depends on — see :mod:`repro.core.cra`);
* the pool takes the prefix sums of its capacities once, at construction,
  in that sorted order and in user order, and keeps the units consumed
  since as two small sorted arrays; every read is a construction-time sum
  less a ``searchsorted`` count of consumed units, so the supply count
  ``z_s``, the smallest-``n_s`` cut of the sorted order and each user's
  unit block cost a few ``searchsorted`` calls instead of a fresh
  ``argsort`` or a pass over the type's users.  A round's cost then
  follows the users it reads and the units it allocates, not the pool.

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
the winner subsample.  The stream is the reference's; the engine only
evaluates fewer of its uniforms.  Lines 2–3 need just the smallest
sampled value and whether the sample is empty, so on a ``PCG64`` stream
and a large pool :meth:`SortedTypePool.sample_price` jumps the bit
generator (``advance``) from user to user in value order, drawing each
one's units, stops at the first user holding a sampled unit, then leaves
the generator where the per-unit draw leaves it — its buffered 32-bit
half included.  The sample itself is drawn again from the saved state
only when :attr:`CRAResult.sample_indices` is read.
Differential tests (``tests/core/test_engine.py``) assert that every
:class:`CRAResult` field and the generator's full state after each round
match the reference exactly, seed by seed, on both paths, and the test
oracle ``tests/core/reference_rit.py`` runs whole mechanisms on the
reference.

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
import functools
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import consensus
from repro.core.cra import CRAResult, SampleSource, _empty_result
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
    "sorted_unique",
]


#: Expected sample size (alive units × sample rate) from which
#: :meth:`SortedTypePool.sample_price` probes instead of drawing one
#: uniform per alive unit.  The per-unit draw costs about 6 ns per unit,
#: while the probe's cost follows the ``1/rate`` units it reads, not the
#: pool, so the two cross at a fixed expected sample.  Measured on a
#: 2-vCPU VM, 600 interleaved rounds per size, capacities uniform on
#: 1..20 as in the paper's population: at rate 1/100 the probe averaged
#: 62–96 µs from 6k to 100k units (199 µs at 1M), the per-unit draw
#: 69 µs at 12.1k units, 96 µs at 17.5k, 132 µs at 20.7k and 514 µs at
#: 100k; at rate 1/200 the probe averaged 117–204 µs, the per-unit draw
#: 125 µs at 23.6k units and 175 µs at 29.9k.  The means cross at an
#: expected sample of about 130–170.  Whole runs cross a little higher.
#: ``RIT.run`` on ``paper_scenario`` at 4 types × 50 tasks, 500
#: interleaved runs per size: probing from an expected sample of 150 made
#: runs 1–2% slower at 6k users, whose first rounds expect 157 sampled
#: units, and 11% faster at 8k users (210).  From 200, the 6k runs stayed
#: within 1.5% of the per-unit draw and the 8k runs kept the gain.
_PROBE_MIN_SAMPLE = 200


def _unit_sample(gen: np.random.Generator, units: int, rate: float) -> np.ndarray:
    """Lines 2–3 unit by unit: one uniform per alive unit, in unit-pool
    order; the indices of the units drawn below ``rate``."""
    return np.flatnonzero(gen.random(units) < rate)


def _redrawn_sample(state: dict, units: int, rate: float) -> np.ndarray:
    """:func:`_unit_sample` from a saved ``PCG64`` state, on a private
    generator: the deferred sample of a probed round."""
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = state
    return _unit_sample(gen, units, rate)


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
    """Per-type ask pool: sorted once, capacity state kept as consumed units.

    Equivalent to re-running :func:`repro.core.extract.extract` with the
    current remaining capacities each round, but a round's cost follows
    the users it reads and the units it allocates, not the pool: the
    capacity sums are taken once, at construction, in value order and in
    user order, and every read subtracts the units consumed since, kept
    as two small sorted arrays (their positions and their ranks in the
    value order).

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
        "_unit_ends",
        "_ranks",
        "_consumed_positions",
        "_consumed_ranks",
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
        #: ``_prefix[k]``: units the ``k`` cheapest users held at construction.
        self._prefix = _prefix_sums(self.remaining[order])
        #: ``_unit_ends[i]``: one past user ``i``'s last unit at construction.
        self._unit_ends = self.remaining.cumsum()
        #: ``_ranks[i]``: user ``i``'s index in the value order.
        self._ranks = np.empty_like(order)
        self._ranks[order] = np.arange(order.shape[0])
        #: One entry per consumed unit: its owner's position, and that
        #: owner's rank, each ascending.  Replaced, never written.
        self._consumed_positions = np.empty(0, dtype=np.int64)
        self._consumed_ranks = np.empty(0, dtype=np.int64)
        #: This round's :meth:`round_bounds`, when the round computed them.
        self._bounds: Optional[np.ndarray] = None

    def fork(self) -> "SortedTypePool":
        """A pool over the same asks and value order, with its own capacities.

        The fork shares every array but ``remaining``, which it copies.
        :meth:`consume_positions` replaces the consumed-unit arrays and
        round bounds instead of writing into them, so consuming the fork
        never touches this pool.
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
            self._unit_ends,
            self._ranks,
            self._consumed_positions,
            self._consumed_ranks,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Capacity state
    # ------------------------------------------------------------------ #

    def total_remaining(self) -> int:
        """Alive units across all participants (``O(1)``)."""
        return int(self._prefix[-1]) - self._consumed_ranks.shape[0]

    # Covered by the caller's per-stage timers ('consume'); a span per
    # round-level batch would swamp the event log.
    def consume_positions(self, positions: np.ndarray) -> None:  # rit: noqa[RIT013]
        """Consume one unit per entry of ``positions`` (original-order index).

        One vectorized decrement, then the batch is merged into the sorted
        consumed-unit arrays: ``O(len(positions))`` plus the units
        consumed so far, never ``O(N)``.
        """
        if positions.size == 0:
            return
        np.subtract.at(self.remaining, positions, 1)
        if self.remaining[positions].min() < 0:
            np.add.at(self.remaining, positions, 1)  # restore before raising
            raise ModelError(
                "consume would drive a remaining capacity negative"
            )
        self._consumed_positions = _merged(
            self._consumed_positions, positions
        )
        self._consumed_ranks = _merged(
            self._consumed_ranks, self._ranks[positions]
        )
        self._bounds = None

    # Lookups call ``ndarray.searchsorted``: on arrays this small, the
    # dispatch of ``np.searchsorted`` costs more than the search.

    def _rank_cut(self, count: int) -> Tuple[int, int]:
        """``(k, alive)``: the fewest cheapest users ``k`` that hold at least
        ``count`` alive units, and the ``alive`` units they hold, for
        ``count`` up to the pool's alive units.

        Each guess is a lower bound: search the construction-time sums for
        ``count`` plus the units consumed below the guess, until the guess
        stops moving.
        """
        prefix, consumed = self._prefix, self._consumed_ranks
        k = int(prefix.searchsorted(count))
        below = 0
        if consumed.shape[0]:
            while True:
                below = int(consumed.searchsorted(k))
                nxt = int(prefix.searchsorted(count + below))
                if nxt == k:
                    break
                k = nxt
        return k, int(prefix[k]) - below

    def _unit_bounds(self, users: np.ndarray) -> np.ndarray:
        """This round's unit bounds (one past the last unit) of ``users``."""
        bounds = self._bounds
        if bounds is not None:
            return bounds[users]
        return self._unit_ends[users] - self._consumed_positions.searchsorted(
            users, side="right"
        )

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
        in this round's unit pool.  Only the per-unit draw computes them:
        it reads every unit anyway, so one ``O(N)`` cumulative sum costs
        less there than a lookup per sampled unit.  Before any unit is
        consumed they are the construction-time ends.  The result is kept
        until :meth:`consume_positions` changes the capacities, and the
        round's other lookups read it.
        """
        bounds = self._bounds
        if bounds is None:
            bounds = self._bounds = (
                self.remaining.cumsum()
                if self._consumed_ranks.shape[0]
                else self._unit_ends
            )
        return bounds

    # Covered by the caller's per-stage timers ('sample', 'consume').
    def unit_user_positions(  # rit: noqa[RIT013]
        self, unit_indices: np.ndarray
    ) -> np.ndarray:
        """Original user positions owning the given per-round unit indices.

        From the round's bounds when it computed them; otherwise each owner
        is the first user whose construction-time end exceeds the unit
        index plus the units consumed up to that user, found by the same
        fixed point as :meth:`_rank_cut`, for every index at once.
        """
        bounds = self._bounds
        if bounds is not None:
            return bounds.searchsorted(unit_indices, side="right")
        ends, consumed = self._unit_ends, self._consumed_positions
        owners = ends.searchsorted(unit_indices, side="right")
        if consumed.shape[0]:
            while True:
                below = consumed.searchsorted(owners, side="right")
                nxt = ends.searchsorted(unit_indices + below, side="right")
                if (nxt == owners).all():
                    break
                owners = nxt
        return owners

    def alive_at_most(self, value: float) -> int:
        """``z_s`` — alive units with ask value at most ``value``."""
        k = int(self._sorted_values.searchsorted(value, side="right"))
        return int(self._prefix[k]) - int(self._consumed_ranks.searchsorted(k))

    def sample_price(
        self, gen: np.random.Generator, rate: float
    ) -> Tuple[float, SampleSource]:
        """Algorithm 1 lines 2–3 on this round's pool: ``(s, sample)``.

        Every alive unit enters the sample when its uniform — the next one
        off ``gen``, in unit-pool order — falls below ``rate``; ``s`` is
        the smallest sampled value, ``nan`` when the sample is empty.
        ``gen`` ends exactly where drawing every unit's uniform leaves it.

        A pool whose expected sample is below :data:`_PROBE_MIN_SAMPLE`
        (one compare, made before ``gen.bit_generator`` is read), or a bit
        generator other than ``PCG64``, draws every uniform.  Otherwise
        :meth:`_probe_price` reads only the cheapest users' uniforms, and
        the sample is deferred.
        """
        units = self.total_remaining()
        if units * rate >= _PROBE_MIN_SAMPLE:
            bits = gen.bit_generator
            if type(bits) is np.random.PCG64:
                return self._probe_price(gen, bits, units, rate)
        return self._drawn_price(_unit_sample(gen, units, rate))

    def _drawn_price(self, sample: np.ndarray) -> Tuple[float, SampleSource]:
        """``(s, sample)`` of a sample drawn unit by unit; the round's
        bounds, computed here, serve its later lookups too."""
        if sample.size == 0:
            return math.nan, sample
        self.round_bounds()
        owners = self.unit_user_positions(sample)
        return float(self.values[owners].min()), sample

    def _probe_price(
        self,
        gen: np.random.Generator,
        bits: np.random.PCG64,
        units: int,
        rate: float,
    ) -> Tuple[float, SampleSource]:
        """:meth:`sample_price` by jumping ahead to the cheapest users' units.

        Users are visited one at a time in value order, jumping the
        generator to each one's unit block (backwards too) and drawing its
        units; the first user holding a sampled unit decides ``s``, since
        no unvisited unit is cheaper.  The unit starts are looked up in
        batches of users: the first holds about ``1/rate`` alive units
        (one expected hit), each later batch twice as many.  Once a
        quarter of the units has been read without a hit, every unit is
        drawn from the saved state instead; only there can the sample be
        empty.
        """
        saved = bits.state
        order = self._sorted_users
        last = order.shape[0]
        visited = 0  # users read so far, a prefix of the value order
        read = 0  # the alive units they hold
        pos = 0  # draws past ``saved`` that ``gen`` stands at
        batch = math.ceil(1.0 / rate)
        while 4 * read < units:
            end = (
                last if read + batch >= units
                else self._rank_cut(read + batch)[0]
            )
            users = order[visited:end]
            counts = self.remaining[users]
            starts = self._unit_bounds(users) - counts
            for user, start, count in zip(
                users.tolist(), starts.tolist(), counts.tolist()
            ):
                if not count:
                    continue
                if start != pos:
                    bits.advance(start - pos)  # negative deltas wrap back
                pos = start + count
                if min(gen.random(count).tolist()) < rate:
                    # Where the per-unit draw ends.  ``advance`` clears
                    # PCG64's buffered 32-bit half (``Generator.choice``
                    # leaves one, or a spent one behind); put it back.
                    bits.advance(units - pos)
                    if saved["has_uint32"] or saved["uinteger"]:
                        state = bits.state
                        state["has_uint32"] = saved["has_uint32"]
                        state["uinteger"] = saved["uinteger"]
                        bits.state = state
                    sample = functools.partial(
                        _redrawn_sample, saved, units, rate
                    )
                    return float(self.values[user]), sample
                read += count
            visited = end
            batch *= 2
        bits.state = saved
        return self._drawn_price(_unit_sample(gen, units, rate))

    # Covered by the caller's per-stage timers ('select').
    def smallest_units(  # rit: noqa[RIT013]
        self, count: int
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
        end, alive = self._rank_cut(count)
        taken = self._sorted_users[:end]
        counts = self.remaining[taken]
        starts = self._unit_bounds(taken) - counts
        counts[-1] -= alive - count
        return _ranges(starts, counts), np.repeat(self.values[taken], counts)


def _merged(ascending: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """A new ascending array of ``ascending``'s entries and ``batch``'s."""
    merged = np.concatenate((ascending, batch))
    merged.sort()
    return merged


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending (``np.unique``'s result).

    A sort and a neighbour mask: ``np.unique`` (and ``np.union1d``) import
    ``numpy.ma`` on their first call in a process, about 15 ms.
    """
    ordered = np.sort(values)
    keep = np.ones(ordered.shape, dtype=np.bool_)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


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
        for tau in sorted_unique(type_arr)
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
    are optional and add no per-unit work when omitted.  The counters read
    :attr:`CRAResult.sample_indices` after every stage timer has stopped,
    so a traced round pays for its deferred sample outside the stages and
    never draws from ``rng`` for it.
    """
    if q <= 0:
        raise ConfigurationError(f"q must be >= 1, got {q}")
    if m_i <= 0:
        raise ConfigurationError(f"m_i must be >= 1, got {m_i}")
    if sample_rate_scale <= 0:
        raise ConfigurationError(
            f"sample_rate_scale must be > 0, got {sample_rate_scale}"
        )
    result = _cra_round(
        pool, q, m_i, as_generator(rng), sample_rate_scale, timers
    )
    if tracer is not None and tracer.enabled:
        sampled = int(result.sample_indices.size)
        tracer.count("sample_units_drawn", sampled)
        if sampled == 0:
            tracer.count("empty_samples")
    return result


def _cra_round(
    pool: SortedTypePool,
    q: int,
    m_i: int,
    gen: np.random.Generator,
    sample_rate_scale: float,
    timers: Optional[StageTimers],
) -> CRAResult:
    """:func:`cra_presorted` past its argument checks, stage by stage."""
    cap = q + m_i
    clock = timers.clock if timers is not None else None

    # Sample stage (lines 2-4): the offset, then the smallest sampled value
    # off the reference's one-uniform-per-alive-unit stream.
    t0 = clock() if clock is not None else 0.0
    offset = float(gen.uniform(0.0, 1.0))
    s, sample = pool.sample_price(gen, min(1.0, sample_rate_scale / cap))
    if math.isnan(s):
        if clock is not None:
            timers.sample += clock() - t0
        return _empty_result(offset, sample)
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
    chosen, chosen_values = pool.smallest_units(n_s)
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
        sample=sample,
        n_s=n_s,
        offset=offset,
        overflow_trimmed=overflow,
    )
