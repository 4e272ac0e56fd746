"""Differential tests: sorted auction engine vs the reference CRA.

The engine's contract (see :mod:`repro.core.engine`) is *bit-identical*
equivalence with :func:`repro.core.cra.cra` run over the materialized unit
pool — identical RNG stream, identical :class:`CRAResult` on every field.
These tests drive both paths with the same seeds across tie-heavy values,
sample-rate scales, overflow and empty-sample regimes, single- and
multi-round, and check the pool's capacity bookkeeping and its prefix-sum
queries down to exhaustion.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cra import cra
from repro.core.engine import SortedTypePool, StageTimers, cra_presorted
from repro.core.exceptions import ConfigurationError, ModelError


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
