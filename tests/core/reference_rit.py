"""Test oracle: RIT with every CRA round cleared by the reference ``cra``.

:class:`ReferenceRIT` keeps ``RIT.run``'s profile handling, shard loop
and payments and replaces only the per-type round loop.  Each round
materializes the pool's unit asks (``np.repeat`` in profile order, as
Algorithm 2 extracts them) and clears them with
:func:`repro.core.cra.cra`, which re-sorts the whole unit pool every
round — the direct transcription of Algorithm 1.  The production engine
(:func:`repro.core.engine.cra_presorted`) must reproduce it seed for seed.

The oracle records no stage timings and emits no ``cra``/``round`` spans.
"""

import functools
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.cra import cra
from repro.core.engine import SortedTypePool, StageTimers
from repro.core.outcome import RoundRecord, TypeShardResult
from repro.core.rit import ENGINES, RIT
from repro.core.rng import SeedLike, as_generator


class ReferenceRIT(RIT):
    """RIT whose rounds re-extract and re-sort the unit pool (test oracle)."""

    def run_type_shard(
        self,
        tau: int,
        m_i: int,
        group: Optional[SortedTypePool],
        k_max: int,
        num_types: int,
        rng: SeedLike,
        *,
        timers: Optional[StageTimers] = None,
    ) -> TypeShardResult:
        gen = as_generator(rng)
        allocation: Dict[int, int] = {}
        auction_payments: Dict[int, float] = {}
        rounds_log: List[RoundRecord] = []
        budget = self.budget_for(m_i, k_max, num_types)
        q = m_i
        rounds = 0
        while rounds < budget and q > 0:
            if group is None or group.total_remaining() == 0:
                break
            values, owners = group.unit_asks()
            result = cra(
                values, q, m_i, gen, sample_rate_scale=self.sample_rate_scale
            )
            rounds_log.append(
                RoundRecord(
                    task_type=tau,
                    round_index=rounds,
                    q_before=q,
                    num_winners=result.num_winners,
                    price=result.price,
                    n_s=result.n_s,
                    overflow_trimmed=result.overflow_trimmed,
                )
            )
            for uid in owners[result.winners].tolist():
                allocation[uid] = allocation.get(uid, 0) + 1
                auction_payments[uid] = (
                    auction_payments.get(uid, 0.0) + result.price
                )
            # Unit index -> owner position in the pool, for the consume.
            positions = np.repeat(
                np.arange(group.uids.shape[0]), group.remaining
            )
            group.consume_positions(positions[result.winners])
            q -= result.num_winners
            rounds += 1
        return TypeShardResult(
            task_type=int(tau),
            covered=q == 0,
            allocation=allocation,
            auction_payments=auction_payments,
            rounds=tuple(rounds_log),
        )


#: Every mechanism a differential compares, by name: the production engine
#: under each name ``engine=`` accepts, and the oracle.  Each builder takes
#: ``RIT``'s keyword arguments.
MECHANISMS: Dict[str, Callable[..., RIT]] = {
    **{name: functools.partial(RIT, engine=name) for name in ENGINES},
    "reference": ReferenceRIT,
}
