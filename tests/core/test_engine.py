"""Differential tests: sorted auction engine vs the reference CRA.

The engine's contract (see :mod:`repro.core.engine`) is *bit-identical*
equivalence with :func:`repro.core.cra.cra` run over the materialized unit
pool — identical RNG stream, identical :class:`CRAResult` on every field.
These tests drive both paths with the same seeds across tie-heavy values,
sample-rate scales, overflow and empty-sample regimes, single- and
multi-round, and check the pool's capacity bookkeeping and its prefix-sum
queries down to exhaustion.  Pools above the jump-ahead probe's crossover
(:class:`TestJumpAheadProbe`) also check the generator's full state,
buffered 32-bit half included, after every round.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine
from repro.core.cra import cra
from repro.core.engine import (
    SortedTypePool,
    StageTimers,
    cra_presorted,
    sorted_unique,
)
from repro.core.exceptions import ConfigurationError, ModelError
from repro.core.rit import RIT
from repro.core.types import Ask, Job
from repro.obs import Tracer
from repro.tree.incentive_tree import ROOT, IncentiveTree
from tests.core.reference_rit import ReferenceRIT


def make_pool(values, capacities, uids=None):
    values = np.asarray(values, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.int64)
    if uids is None:
        uids = 100 + np.arange(values.size)
    return SortedTypePool(np.asarray(uids, dtype=np.int64), values, capacities)


def reference_pool(pool):
    """The unit-ask vector the reference CRA would see this round."""
    return np.repeat(pool.values, pool.remaining)


def assert_results_equal(fast, ref, context=""):
    assert np.array_equal(fast.winners, ref.winners), context
    assert np.array_equal(fast.sample_indices, ref.sample_indices), context
    if math.isnan(ref.price):
        assert math.isnan(fast.price), context
    else:
        assert fast.price == ref.price, context
    assert fast.n_s == ref.n_s, context
    assert fast.offset == ref.offset, context
    assert fast.overflow_trimmed == ref.overflow_trimmed, context


def random_instance(gen, *, tie_heavy):
    n = int(gen.integers(1, 15))
    if tie_heavy:
        values = gen.choice([0.5, 1.0, 2.0], size=n)
    else:
        values = gen.uniform(0.05, 10.0, size=n)
    capacities = gen.integers(0, 6, size=n)
    q = int(gen.integers(1, 12))
    m_i = int(gen.integers(1, 12))
    return values, capacities, q, m_i


class TestSortedUnique:
    @given(values=st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique(self, values):
        values = np.array(values, dtype=np.int64)
        got, want = sorted_unique(values), np.unique(values)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_leaves_its_input_alone(self):
        values = np.array([3, 1, 3, 2], dtype=np.int64)
        np.testing.assert_array_equal(sorted_unique(values), [1, 2, 3])
        np.testing.assert_array_equal(values, [3, 1, 3, 2])


class TestPoolValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            SortedTypePool(
                np.arange(3), np.zeros(3), np.ones(2, dtype=np.int64)
            )

    def test_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            make_pool([1.0, 2.0], [1, -1])


class TestPoolViews:
    def test_unit_asks_matches_repeat(self):
        pool = make_pool([3.0, 1.0, 2.0], [2, 0, 3])
        values, owners = pool.unit_asks()
        assert np.array_equal(values, [3.0, 3.0, 2.0, 2.0, 2.0])
        assert np.array_equal(owners, [100, 100, 102, 102, 102])

    def test_alive_at_most_matches_linear_count(self):
        gen = np.random.default_rng(3)
        pool = make_pool(
            gen.choice([0.5, 1.0, 2.0], size=12), gen.integers(0, 4, size=12)
        )
        units = reference_pool(pool)
        for threshold in (0.25, 0.5, 1.0, 1.5, 2.0, 9.0):
            assert pool.alive_at_most(threshold) == int(
                np.count_nonzero(units <= threshold)
            )

    def test_smallest_units_matches_stable_argsort(self):
        gen = np.random.default_rng(4)
        for trial in range(30):
            values = gen.choice([0.5, 1.0, 1.0, 2.0], size=8)
            caps = gen.integers(0, 4, size=8)
            pool = make_pool(values, caps)
            units = reference_pool(pool)
            if units.size == 0:
                continue
            bounds = pool.round_bounds()
            count = int(gen.integers(1, units.size + 1))
            expected = np.argsort(units, kind="stable")[:count]
            got, got_values = pool.smallest_units(count, bounds)
            assert np.array_equal(got, expected), trial
            assert np.array_equal(got_values, units[expected]), trial

    def test_smallest_units_zero_count(self):
        pool = make_pool([1.0], [2])
        indices, values = pool.smallest_units(0, pool.round_bounds())
        assert indices.size == 0 and values.size == 0


class TestConsume:
    def test_consume_decrements_and_tracks(self):
        pool = make_pool([2.0, 1.0], [2, 1])
        assert pool.total_remaining() == 3
        pool.consume_positions(np.array([0, 1]))
        assert pool.total_remaining() == 1
        assert np.array_equal(pool.remaining, [1, 0])
        assert pool.alive_at_most(2.0) == 1

    def test_consume_many_with_repeats(self):
        pool = make_pool([2.0, 1.0, 3.0], [3, 1, 2])
        pool.consume_positions(np.array([0, 0, 2]))
        assert np.array_equal(pool.remaining, [1, 1, 1])
        assert pool.total_remaining() == 3

    def test_consume_positions_overdraw_restores_state(self):
        pool = make_pool([2.0, 1.0], [2, 1])
        with pytest.raises(ModelError):
            pool.consume_positions(np.array([1, 1]))
        # The failed batch must leave capacities untouched.
        assert np.array_equal(pool.remaining, [2, 1])
        assert pool.total_remaining() == 3

    def test_consume_to_exhaustion_invariants(self):
        gen = np.random.default_rng(11)
        caps = gen.integers(0, 5, size=9)
        pool = make_pool(gen.uniform(0.1, 5.0, size=9), caps)
        shadow = caps.copy()
        while pool.total_remaining() > 0:
            alive = np.flatnonzero(shadow > 0)
            batch = gen.choice(alive, size=min(3, alive.size), replace=False)
            pool.consume_positions(batch)
            shadow[batch] -= 1
            assert np.array_equal(pool.remaining, shadow)
            assert pool.total_remaining() == int(shadow.sum())
            units = reference_pool(pool)
            assert pool.alive_at_most(np.inf) == units.size
            if units.size:
                got, _ = pool.smallest_units(units.size, pool.round_bounds())
                assert np.array_equal(
                    got, np.argsort(units, kind="stable")
                )
        assert np.array_equal(pool.remaining, np.zeros_like(caps))


class TestRoundBounds:
    def test_computed_once_per_capacity_state(self):
        pool = make_pool([2.0, 1.0, 3.0], [2, 1, 2])
        first = pool.round_bounds()
        assert first is pool.round_bounds()
        assert np.array_equal(first, [2, 3, 5])
        pool.consume_positions(np.empty(0, dtype=np.int64))
        assert pool.round_bounds() is first
        pool.consume_positions(np.array([0, 2]))
        assert np.array_equal(first, [2, 3, 5])  # replaced, never written
        assert np.array_equal(pool.round_bounds(), [1, 2, 3])
        fork = pool.fork()
        fork.consume_positions(np.array([1]))
        assert np.array_equal(fork.round_bounds(), [1, 1, 2])
        assert np.array_equal(pool.round_bounds(), [1, 2, 3])

    def test_a_shard_computes_them_at_most_once_per_round(self):
        from repro.core.rit import RIT

        computed = []

        class CountingPool(SortedTypePool):
            __slots__ = ()

            def round_bounds(self):
                if self._bounds is None:
                    computed.append(self.total_remaining())
                return super().round_bounds()

        gen = np.random.default_rng(4)
        pool = CountingPool(
            np.arange(300), gen.uniform(0.1, 9.0, 300), gen.integers(1, 5, 300)
        )
        shard = RIT(round_budget="until-complete").run_type_shard(
            0, 40, pool, 5, 1, np.random.default_rng(9)
        )
        assert shard.covered
        assert 0 < len(computed) <= len(shard.rounds)
        assert len(set(computed)) == len(computed)


def check_queries(pool, values, remaining):
    """Every query of ``pool`` against the materialized unit pool."""
    units = np.repeat(values, remaining)
    assert np.array_equal(pool.remaining, remaining)
    assert pool.total_remaining() == units.size
    distinct = np.unique(values)
    probes = [np.inf]
    if distinct.size:
        # Below, at and between every distinct value.
        probes += [distinct[0] - 1.0, *distinct]
        probes += list((distinct[:-1] + distinct[1:]) / 2.0)
    for probe in probes:
        assert pool.alive_at_most(probe) == np.count_nonzero(units <= probe)
    order = np.argsort(units, kind="stable")
    bounds = pool.round_bounds()
    for count in range(1, units.size + 1):
        got, got_values = pool.smallest_units(count, bounds)
        assert np.array_equal(got, order[:count]), count
        assert np.array_equal(got_values, units[order[:count]]), count


class TestPrefixSumProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.5, 1.0, 2.0]),
                    st.floats(min_value=0.05, max_value=10.0),
                ),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=16,
        ),
        data=st.data(),
    )
    def test_queries_track_consumption_to_exhaustion(self, rows, data):
        values = np.array([v for v, _ in rows], dtype=np.float64)
        caps = np.array([c for _, c in rows], dtype=np.int64)
        pool = make_pool(values, caps)
        shadow = caps.copy()
        # Consume every unit, in a drawn order, in drawn batch sizes; a
        # batch may take several units of one user, as a round can.
        owners = data.draw(
            st.permutations(np.repeat(np.arange(caps.size), caps).tolist())
        )
        check_queries(pool, values, shadow)
        while owners:
            size = data.draw(st.integers(min_value=1, max_value=8))
            batch = np.array(owners[:size], dtype=np.int64)
            owners = owners[size:]
            pool.consume_positions(batch)
            np.subtract.at(shadow, batch, 1)
            check_queries(pool, values, shadow)
        assert pool.total_remaining() == 0


class TestCRAPresortedValidation:
    def test_rejects_bad_arguments(self):
        pool = make_pool([1.0], [1])
        with pytest.raises(ConfigurationError):
            cra_presorted(pool, 0, 1)
        with pytest.raises(ConfigurationError):
            cra_presorted(pool, 1, 0)
        with pytest.raises(ConfigurationError):
            cra_presorted(pool, 1, 1, sample_rate_scale=0.0)


class TestDifferential:
    def test_empty_pool_matches_reference(self):
        pool = make_pool([1.0, 2.0], [0, 0])
        fast = cra_presorted(pool, 3, 3, np.random.default_rng(0))
        ref = cra(reference_pool(pool), 3, 3, np.random.default_rng(0))
        assert_results_equal(fast, ref)
        assert fast.num_winners == 0

    @pytest.mark.parametrize("tie_heavy", [False, True])
    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    def test_single_round_equivalence(self, tie_heavy, scale):
        gen = np.random.default_rng(hash((tie_heavy, scale)) % 2**32)
        for trial in range(60):
            values, caps, q, m_i = random_instance(gen, tie_heavy=tie_heavy)
            pool = make_pool(values, caps)
            seed = int(gen.integers(0, 2**31))
            fast = cra_presorted(
                pool,
                q,
                m_i,
                np.random.default_rng(seed),
                sample_rate_scale=scale,
            )
            ref = cra(
                reference_pool(pool),
                q,
                m_i,
                np.random.default_rng(seed),
                sample_rate_scale=scale,
            )
            assert_results_equal(fast, ref, context=f"trial {trial}")

    def test_multi_round_with_consumption(self):
        gen = np.random.default_rng(17)
        for trial in range(25):
            values, caps, q, m_i = random_instance(gen, tie_heavy=True)
            pool = make_pool(values, caps)
            shadow = caps.astype(np.int64).copy()
            for round_index in range(12):
                if pool.total_remaining() == 0 or q == 0:
                    break
                seed = int(gen.integers(0, 2**31))
                fast = cra_presorted(pool, q, m_i, np.random.default_rng(seed))
                units = np.repeat(
                    np.asarray(values, dtype=np.float64), shadow
                )
                ref = cra(units, q, m_i, np.random.default_rng(seed))
                assert_results_equal(
                    fast, ref, context=f"trial {trial} round {round_index}"
                )
                owners = np.repeat(np.arange(shadow.size), shadow)
                positions = owners[ref.winners]
                pool.consume_positions(positions)
                np.subtract.at(shadow, positions, 1)
                assert np.array_equal(pool.remaining, shadow)
                q -= ref.num_winners

    def test_stage_timers_accumulate(self):
        timers = StageTimers()
        pool = make_pool(
            np.random.default_rng(0).uniform(0.1, 5.0, size=40),
            np.full(40, 2),
        )
        cra_presorted(pool, 10, 10, np.random.default_rng(1), timers=timers)
        totals = timers.as_dict()
        assert set(totals) == {"sample", "consensus", "select", "consume"}
        assert totals["sample"] > 0.0
        # consume is timed by the caller (RIT), not by cra_presorted.
        assert totals["consume"] == 0.0


def probe_sized_asks(gen, users, *, tie_heavy=False):
    """``users`` asks averaging four units each, some with capacity zero."""
    if tie_heavy:
        values = gen.choice([0.5, 1.0, 2.0], size=users)
    else:
        values = gen.uniform(0.05, 10.0, size=users)
    return values, gen.integers(0, 9, size=users)


def full_state(gen):
    """The bit generator's whole state, buffered 32-bit half included, in
    a form ``==`` compares (MT19937 keeps an array)."""
    return json.dumps(
        gen.bit_generator.state, sort_keys=True, default=lambda a: a.tolist()
    )


def rounds_against_reference(
    values, caps, m_i, fast_gen, ref_gen, *, scale=1.0, rounds=8
):
    """Clear up to ``rounds`` rounds on the engine and on the reference.

    After each round the two generators' full states must agree (checked
    before any sample is read), then every :class:`CRAResult` field.
    Returns the engine's results.
    """
    pool = make_pool(values, caps)
    shadow = np.asarray(caps, dtype=np.int64).copy()
    q = m_i
    results = []
    for round_index in range(rounds):
        if q <= 0 or pool.total_remaining() == 0:
            break
        fast = cra_presorted(pool, q, m_i, fast_gen, sample_rate_scale=scale)
        ref = cra(
            np.repeat(values, shadow), q, m_i, ref_gen, sample_rate_scale=scale
        )
        context = f"round {round_index}"
        assert full_state(fast_gen) == full_state(ref_gen), context
        assert_results_equal(fast, ref, context)
        positions = np.repeat(np.arange(shadow.size), shadow)[ref.winners]
        pool.consume_positions(positions)
        np.subtract.at(shadow, positions, 1)
        q -= ref.num_winners
        results.append(fast)
    return results


def probed(result):
    """Whether the round took the jump-ahead probe (its sample is deferred)."""
    return callable(result.sample)


class TestJumpAheadProbe:
    """Pools above the probe's crossover, against the reference ``cra``.

    Pools hold 3,000–5,000 users of about four units each and
    ``q + m_i <= 40``, so every expected sample stays above
    :data:`repro.core.engine._PROBE_MIN_SAMPLE` (200), at
    ``sample_rate_scale`` 0.5 too.
    """

    @pytest.mark.parametrize("tie_heavy", [False, True])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 4.0])
    def test_rounds_match_the_reference(self, tie_heavy, scale):
        gen = np.random.default_rng(int(scale * 8) + tie_heavy)
        results = []
        for _ in range(5):
            values, caps = probe_sized_asks(gen, 5000, tie_heavy=tie_heavy)
            m_i = int(gen.integers(5, 21))
            seed = int(gen.integers(0, 2**31))
            results += rounds_against_reference(
                values,
                caps,
                m_i,
                np.random.default_rng(seed),
                np.random.default_rng(seed),
                scale=scale,
            )
        assert len(results) > 5  # some pool needed several rounds
        assert all(map(probed, results))
        # The deferred sample is drawn once, then kept.
        assert results[0].sample_indices is results[0].sample_indices

    def test_zero_capacity_users_among_the_cheapest(self):
        gen = np.random.default_rng(5)
        values, caps = probe_sized_asks(gen, 3000)
        caps[np.argsort(values)[:300]] = 0  # the cheapest tenth hold nothing
        caps[::7] = 0
        results = rounds_against_reference(
            values, caps, 12, np.random.default_rng(6), np.random.default_rng(6)
        )
        assert results and all(map(probed, results))

    def test_a_buffered_half_survives_the_jump(self):
        # One generator across types, as under rng_policy="stream": a
        # round's winner subsample (Generator.choice) can leave PCG64's
        # 32-bit half buffered, and the next type's probe jumps the
        # generator, which drops it.
        gen = np.random.default_rng(8)
        fast_gen, ref_gen = np.random.default_rng(9), np.random.default_rng(9)
        buffered = 0
        for _ in range(6):
            values, caps = probe_sized_asks(gen, 3000)
            buffered += fast_gen.bit_generator.state["has_uint32"]
            results = rounds_against_reference(
                values, caps, int(gen.integers(5, 21)), fast_gen, ref_gen
            )
            assert probed(results[0])
        assert buffered >= 2

    def test_empty_sample_through_the_fallback(self, monkeypatch):
        # Above the crossover an empty sample has probability below
        # e^-200.  With the crossover at one expected sampled unit, the
        # probe reads half the pool in its first batch and falls back to
        # the per-unit draw about a third of the time.
        monkeypatch.setattr(engine, "_PROBE_MIN_SAMPLE", 1)
        gen = np.random.default_rng(10)
        values, caps = probe_sized_asks(gen, 30)
        units = int(caps.sum())
        m_i = units // 4  # about two expected sampled units
        outcomes = []
        for seed in range(40):
            (fast,) = rounds_against_reference(
                values,
                caps,
                m_i,
                np.random.default_rng(seed),
                np.random.default_rng(seed),
                rounds=1,
            )
            outcomes.append(
                "probe" if probed(fast)
                else "empty" if fast.sample_indices.size == 0
                else "fallback"
            )
        assert {"probe", "empty", "fallback"} <= set(outcomes)

    def test_bit_generators_without_advance_draw_every_unit(self):
        gen = np.random.default_rng(11)
        values, caps = probe_sized_asks(gen, 3000)
        results = rounds_against_reference(
            values,
            caps,
            12,
            np.random.Generator(np.random.MT19937(12)),
            np.random.Generator(np.random.MT19937(12)),
        )
        assert results and not any(map(probed, results))

    def test_tracing_counts_the_sample_off_the_run(self, monkeypatch):
        # The traced counter reads the deferred sample: a redraw on a
        # private generator, after every stage timer has stopped.  A
        # redraw that jumps the stage clock by 1000 shows where it ran.
        ticks = [0.0]

        def clock():
            ticks[0] += 1.0
            return ticks[0]

        redraw = engine._redrawn_sample

        def slow_redraw(*args):
            ticks[0] += 1000.0
            return redraw(*args)

        monkeypatch.setattr(engine, "_redrawn_sample", slow_redraw)
        values, caps = probe_sized_asks(np.random.default_rng(14), 3000)
        pool = make_pool(values, caps)
        fast_gen, ref_gen = np.random.default_rng(15), np.random.default_rng(15)
        fast_tracer, ref_tracer = Tracer("engine"), Tracer("reference")
        timers = StageTimers(clock=clock)
        fast = cra_presorted(
            pool, 12, 12, fast_gen, timers=timers, tracer=fast_tracer
        )
        ref = cra(reference_pool(pool), 12, 12, ref_gen, tracer=ref_tracer)
        assert probed(fast)
        assert ticks[0] > 1000.0  # the counter drew the sample
        assert max(timers.as_dict().values()) < 1000.0
        assert full_state(fast_gen) == full_state(ref_gen)
        drawn = fast_tracer.value("sample_units_drawn")
        assert drawn == ref_tracer.value("sample_units_drawn") > 0
        assert drawn == ref.sample_indices.size

    def test_stream_run_matches_the_oracle(self, monkeypatch):
        entered = []
        probe = SortedTypePool._probe_price

        def spy(pool, gen, bits, units, rate):
            entered.append(bits.state["has_uint32"])
            return probe(pool, gen, bits, units, rate)

        monkeypatch.setattr(SortedTypePool, "_probe_price", spy)
        gen = np.random.default_rng(13)
        job = Job([12, 9, 15, 10])
        tree = IncentiveTree()
        asks = {}
        for uid in range(6000):
            tree.attach(uid, ROOT if uid < 50 else int(gen.integers(0, uid)))
            asks[uid] = Ask(
                task_type=int(gen.integers(0, 4)),
                capacity=int(gen.integers(1, 9)),
                value=float(gen.uniform(0.05, 10.0)),
            )
        for seed in range(3):
            runs = {}
            for name, mech in (
                ("engine", RIT(rng_policy="stream", round_budget="until-complete")),
                ("oracle", ReferenceRIT(rng_policy="stream", round_budget="until-complete")),
            ):
                run_gen = np.random.default_rng(seed)
                runs[name] = (mech.run(job, asks, tree, run_gen), run_gen)
            (fast, fast_gen), (ref, ref_gen) = runs["engine"], runs["oracle"]
            assert full_state(fast_gen) == full_state(ref_gen)
            assert fast.completed and ref.completed
            assert fast.allocation == ref.allocation
            assert fast.auction_payments == ref.auction_payments
            assert fast.payments == ref.payments
            assert [r.price for r in fast.rounds] == [r.price for r in ref.rounds]
        assert 0 in entered and 1 in entered
