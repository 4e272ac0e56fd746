"""Property-based end-to-end tests of RIT on random small instances.

Hypothesis drives random jobs, ask profiles and trees through the full
mechanism and asserts the structural invariants that must hold on *every*
run, regardless of coin flips:

* the outcome is all-or-nothing (void, or every task allocated);
* nobody is allocated beyond its claimed capacity or outside its type;
* auction payments cover winners' asks (per-unit price >= ask value);
* final payments decompose as auction + non-negative referral, bounded by
  twice the auction total;
* a user absent from the winners never receives an auction payment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rit import RIT
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import ROOT, IncentiveTree


@st.composite
def rit_instances(draw):
    """A random small crowdsensing instance plus a seed."""
    num_types = draw(st.integers(min_value=1, max_value=3))
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=num_types,
            max_size=num_types,
        )
    )
    if sum(counts) == 0:
        counts[0] = 1
    job = Job(counts)

    num_users = draw(st.integers(min_value=1, max_value=25))
    tree = IncentiveTree()
    asks = {}
    for uid in range(num_users):
        parent = ROOT if uid == 0 else draw(
            st.sampled_from([ROOT] + list(range(uid)))
        )
        tree.attach(uid, parent)
        asks[uid] = Ask(
            task_type=draw(st.integers(min_value=0, max_value=num_types - 1)),
            capacity=draw(st.integers(min_value=1, max_value=5)),
            value=draw(
                st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
            ),
        )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return job, asks, tree, seed


class TestRITInvariants:
    @given(instance=rit_instances())
    @settings(max_examples=120, deadline=None)
    def test_structural_invariants(self, instance):
        job, asks, tree, seed = instance
        mech = RIT(round_budget="until-complete")
        out = mech.run(job, asks, tree, np.random.default_rng(seed))

        if not out.completed:
            # Void is all-or-nothing.
            assert out.allocation == {}
            assert out.payments == {}
            assert out.auction_payments == {}
            return

        # Per-type coverage is exact.
        per_type = {tau: 0 for tau in job.types()}
        for uid, x in out.allocation.items():
            assert x <= asks[uid].capacity
            per_type[asks[uid].task_type] += x
        for tau in job.types():
            assert per_type[tau] == job.tasks_of(tau)

        # Winners are paid at least their asks (IR at the ask level).
        for uid, x in out.allocation.items():
            assert out.auction_payment_of(uid) >= x * asks[uid].value - 1e-9

        # Non-winners earn no auction payment.
        for uid, pa in out.auction_payments.items():
            assert out.tasks_of(uid) > 0 or pa == 0.0

        # Payment decomposition and the §7-C budget bound.
        for uid in out.payments:
            assert out.payment_of(uid) >= out.auction_payment_of(uid) - 1e-9
        assert out.total_payment <= 2 * out.total_auction_payment + 1e-9

    @given(instance=rit_instances())
    @settings(max_examples=60, deadline=None)
    def test_budget_policies_agree_on_validation(self, instance):
        """Whatever the policy, a completed outcome covers the job and a
        failed one is void — policies differ only in *when* they give up."""
        job, asks, tree, seed = instance
        for policy in ("lemma", "paper", "until-complete"):
            mech = RIT(round_budget=policy)
            out = mech.run(job, asks, tree, np.random.default_rng(seed))
            if out.completed:
                assert out.total_allocated == job.size
            else:
                assert out.total_allocated == 0

    @given(instance=rit_instances())
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, instance):
        job, asks, tree, seed = instance
        mech = RIT(round_budget="until-complete")
        a = mech.run(job, asks, tree, np.random.default_rng(seed))
        b = mech.run(job, asks, tree, np.random.default_rng(seed))
        assert a.allocation == b.allocation
        assert a.auction_payments == b.auction_payments
        assert a.payments == b.payments


class TestExtractConsistency:
    @given(instance=rit_instances())
    @settings(max_examples=60, deadline=None)
    def test_fast_pool_matches_reference_extract(self, instance):
        """RIT's vectorized per-type pools must agree with the reference
        Algorithm 2 implementation at full capacity."""
        from repro.core.extract import extract
        from repro.core.rit import pools_from_arrays, profile_arrays

        job, asks, tree, _ = instance
        pools = pools_from_arrays(*profile_arrays(asks))
        for tau in job.types():
            reference = extract(tau, asks)
            if tau not in pools:
                assert len(reference) == 0
                continue
            values, owners = pools[tau].unit_asks()
            assert values.tolist() == reference.values.tolist()
            assert owners.tolist() == reference.owners.tolist()
