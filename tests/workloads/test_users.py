"""Tests for the user population generators."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, ModelError
from repro.core.types import Population
from repro.workloads.users import PAPER_USERS, UserDistribution, generate_population


class TestUserDistribution:
    def test_paper_profile(self):
        assert PAPER_USERS.num_types == 10
        assert PAPER_USERS.max_capacity == 20
        assert PAPER_USERS.max_cost == 10.0

    def test_sample_size_and_ids(self):
        pop = PAPER_USERS.sample(100, rng=0)
        assert len(pop) == 100
        assert pop.ids == list(range(100))

    def test_profiles_within_ranges(self):
        pop = PAPER_USERS.sample(500, rng=1)
        for user in pop:
            assert 0 <= user.task_type < 10
            assert 1 <= user.capacity <= 20
            assert 0.0 < user.cost <= 10.0

    def test_determinism(self):
        a = PAPER_USERS.sample(50, rng=42)
        b = PAPER_USERS.sample(50, rng=42)
        assert [u.cost for u in a] == [u.cost for u in b]

    def test_types_are_roughly_uniform(self):
        pop = PAPER_USERS.sample(5000, rng=2)
        counts = np.bincount([u.task_type for u in pop], minlength=10)
        assert counts.min() > 350  # expected 500 each

    def test_capacities_cover_full_range(self):
        pop = PAPER_USERS.sample(2000, rng=3)
        caps = {u.capacity for u in pop}
        assert 1 in caps and 20 in caps

    def test_zero_users(self):
        assert len(PAPER_USERS.sample(0, rng=0)) == 0

    def test_negative_users_rejected(self):
        with pytest.raises(ConfigurationError):
            PAPER_USERS.sample(-1, rng=0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UserDistribution(num_types=0)
        with pytest.raises(ConfigurationError):
            UserDistribution(max_capacity=0)
        with pytest.raises(ConfigurationError):
            UserDistribution(max_cost=0.0)

    def test_custom_distribution(self):
        dist = UserDistribution(num_types=3, max_capacity=5, max_cost=2.0)
        pop = dist.sample(200, rng=4)
        assert all(u.task_type < 3 for u in pop)
        assert all(u.capacity <= 5 for u in pop)
        assert all(u.cost <= 2.0 for u in pop)

    def test_generate_population_wrapper(self):
        pop = generate_population(10, rng=0)
        assert len(pop) == 10

    @pytest.mark.parametrize("num_users", [0, 1, 700])
    def test_profile_from_drawn_columns_equals_the_object_pass(self, num_users):
        """The sampled columns give the profile a pass over the ``User`` objects gives."""
        pop = UserDistribution(num_types=4).sample(num_users, rng=9)
        from_columns = pop.truthful_asks()
        from_users = Population(list(pop)).truthful_asks()
        for name in ("uids", "types", "ask_values", "caps"):
            got, want = getattr(from_columns, name), getattr(from_users, name)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        assert dict(from_columns) == dict(from_users)

    def test_from_columns_rejects_unequal_lengths(self):
        with pytest.raises(ModelError):
            Population.from_columns(np.array([0, 1]), np.array([1]), np.array([1.0, 2.0]))
