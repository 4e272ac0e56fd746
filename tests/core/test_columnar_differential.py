"""Property-based differential: the production engine against the oracle.

Hypothesis drives randomized populations — including duplicated ask
values (stressing the stable-order contract the RNG stream hinges on)
and withdrawal epochs where users leave and their subtrees are grafted
onto the grandparent, exactly as the service's state machine rewires the
referral forest.  For every instance and every seed the reference oracle
(:class:`tests.core.reference_rit.ReferenceRIT`) and the production
engine under its ``"columnar"`` name must reproduce the default engine's
outcome byte for byte: completion, allocation, prices, per-round logs,
auction and final payments.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rit import RIT
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import ROOT, IncentiveTree
from tests.core.reference_rit import ReferenceRIT


@st.composite
def withdrawal_instances(draw):
    """A random instance, optionally after a few withdrawal epochs."""
    num_types = draw(st.integers(min_value=1, max_value=4))
    tasks = draw(
        st.lists(
            st.integers(min_value=1, max_value=10),
            min_size=num_types,
            max_size=num_types,
        )
    )
    job = Job(tasks)

    num_users = draw(st.integers(min_value=2, max_value=60))
    # A coarse value grid produces many exact ties, so per-type ordering
    # is decided by the *stable* sort — the contract under test.
    tie_values = draw(st.booleans())
    tree = IncentiveTree()
    asks = {}
    for uid in range(num_users):
        parent = ROOT if uid == 0 else draw(
            st.sampled_from([ROOT] + list(range(uid)))
        )
        tree.attach(uid, parent)
        if tie_values:
            value = draw(st.sampled_from([0.5, 1.0, 2.0]))
        else:
            value = draw(
                st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
            )
        asks[uid] = Ask(
            task_type=draw(st.integers(min_value=0, max_value=num_types - 1)),
            capacity=draw(st.integers(min_value=1, max_value=5)),
            value=value,
        )

    # Withdrawal epochs: graft the leaver's children onto its parent and
    # drop the ask — the service's _apply_withdrawal semantics.
    leavers = draw(
        st.lists(
            st.sampled_from(sorted(asks)),
            max_size=min(5, num_users - 1),
            unique=True,
        )
    )
    for uid in leavers:
        if len(asks) == 1:
            break
        tree.reattach_children(uid, tree.parent(uid))
        tree.remove_leaf(uid)
        del asks[uid]

    seed = draw(st.integers(min_value=0, max_value=2**31))
    return job, asks, tree, seed


def run_rounds(outcome):
    return [
        (
            r.task_type,
            r.round_index,
            r.q_before,
            r.num_winners,
            None if math.isnan(r.price) else r.price,
            r.n_s,
            r.overflow_trimmed,
        )
        for r in outcome.rounds
    ]


class TestColumnarDifferential:
    @given(instance=withdrawal_instances())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_sorted(self, instance):
        job, asks, tree, seed = instance
        baseline = RIT(round_budget="until-complete").run(
            job, asks, tree, np.random.default_rng(seed)
        )
        for name, mech in (
            ("oracle", ReferenceRIT(round_budget="until-complete")),
            ("columnar", RIT(round_budget="until-complete", engine="columnar")),
        ):
            out = mech.run(job, asks, tree, np.random.default_rng(seed))
            context = f"seed {seed} {name}"
            assert out.completed == baseline.completed, context
            assert out.allocation == baseline.allocation, context
            assert (
                out.auction_payments == baseline.auction_payments
            ), context
            assert out.payments == baseline.payments, context
            assert run_rounds(out) == run_rounds(baseline), context

    @given(instance=withdrawal_instances())
    @settings(max_examples=20, deadline=None)
    def test_paper_round_budget_agrees_too(self, instance):
        job, asks, tree, seed = instance
        outcomes = {
            name: mech.run(job, asks, tree, np.random.default_rng(seed))
            for name, mech in (
                ("sorted", RIT(round_budget="paper")),
                ("oracle", ReferenceRIT(round_budget="paper")),
            )
        }
        assert outcomes["oracle"].completed == outcomes["sorted"].completed
        assert outcomes["oracle"].allocation == outcomes["sorted"].allocation
        assert outcomes["oracle"].payments == outcomes["sorted"].payments
        assert run_rounds(outcomes["oracle"]) == run_rounds(
            outcomes["sorted"]
        )
