"""User population generators (paper §7-A).

The paper's evaluation setup: ``m = 10`` task types; each user's type
``t_j`` uniform over the types; capacity ``k_j`` uniform over ``(0, 20]``
(integers 1..20); ask/cost value uniform over ``(0, 10]``.  Costs are the
users' private values — under truthful play the submitted ask equals the
cost, which is how every figure of the paper is generated.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.core.exceptions import ConfigurationError
from repro.core.rng import SeedLike, as_generator
from repro.core.types import Population

__all__ = ["UserDistribution", "PAPER_USERS", "generate_population"]


@dataclass(frozen=True)
class UserDistribution:
    """Parametric distribution of user profiles.

    Attributes
    ----------
    num_types:
        ``m`` — users pick a type uniformly among these.
    max_capacity:
        Capacities are uniform integers in ``1 … max_capacity``
        (the paper's ``k_j ~ U(0, 20]``).
    max_cost:
        Costs are uniform reals in ``(0, max_cost]``
        (the paper's ``a_j ~ U(0, 10]``).
    """

    num_types: int = 10
    max_capacity: int = 20
    max_cost: float = 10.0

    def __post_init__(self) -> None:
        if self.num_types <= 0:
            raise ConfigurationError(f"num_types must be positive, got {self.num_types}")
        if self.max_capacity <= 0:
            raise ConfigurationError(
                f"max_capacity must be positive, got {self.max_capacity}"
            )
        if not self.max_cost > 0:
            raise ConfigurationError(f"max_cost must be positive, got {self.max_cost}")

    def sample(self, num_users: int, rng: SeedLike = None) -> Population:
        """Draw ``num_users`` i.i.d. user profiles."""
        if num_users < 0:
            raise ConfigurationError(f"num_users must be >= 0, got {num_users}")
        gen = as_generator(rng)
        types = gen.integers(0, self.num_types, size=num_users)
        caps = gen.integers(1, self.max_capacity + 1, size=num_users)
        # U(0, max]: draw U[0, max) and reflect the open/closed ends; zero
        # cost is excluded by the model, so resample exact zeros.
        costs = self.max_cost * (1.0 - gen.random(num_users))
        return Population.from_columns(types, caps, costs)


#: The exact §7-A profile.
PAPER_USERS = UserDistribution(num_types=10, max_capacity=20, max_cost=10.0)


def generate_population(
    num_users: int,
    rng: SeedLike = None,
    *,
    distribution: UserDistribution = PAPER_USERS,
) -> Population:
    """Convenience wrapper over :meth:`UserDistribution.sample`."""
    return distribution.sample(num_users, rng)
