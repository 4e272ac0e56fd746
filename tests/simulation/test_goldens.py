"""Golden-result regression tests.

Smoke-scale experiment results with pinned seeds are committed under
``tests/goldens/``; these tests regenerate them and compare.  Any change
to the mechanism's coin consumption, the workload generators, or the
aggregation pipeline shows up here as a drift — that is the point: such
changes must be *deliberate* (regenerate the goldens when they are).

Determinism rests on numpy's PCG64 stream stability, which numpy
guarantees across releases for the generator methods we use.
"""

from functools import partial
from pathlib import Path

import pytest

from repro.simulation import (
    SMOKE_SCALE,
    coalition_sweep,
    fig6a,
    fig6b,
    fig7a,
    fig7b,
    fig9,
)
from repro.simulation.store import ResultStore, compare_results

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"

#: experiment id -> (builder taking ``rng``, pinned seed).
CASES = {
    "fig6a": (partial(fig6a, SMOKE_SCALE), 1001),
    "fig6b": (partial(fig6b, SMOKE_SCALE), 1002),
    "fig7a": (partial(fig7a, SMOKE_SCALE), 1003),
    "fig7b": (partial(fig7b, SMOKE_SCALE), 1004),
    "fig9": (partial(fig9, SMOKE_SCALE), 1009),
    "ext-coalition-sweep": (
        partial(
            coalition_sweep,
            sizes=(1, 2, 4),
            num_users=600,
            tasks_per_type=100,
            num_types=3,
            reps=5,
            trials=2,
        ),
        1011,
    ),
}


@pytest.mark.parametrize("experiment_id", sorted(CASES))
def test_matches_golden(experiment_id):
    fn, seed = CASES[experiment_id]
    store = ResultStore(GOLDEN_DIR)
    golden = store.load(experiment_id, "golden")
    fresh = fn(rng=seed)
    # Exclude timing series (host-dependent); everything else must match
    # to floating-point noise.
    comparable = [s for s in golden.series if "time" not in s.name]
    golden.series = comparable
    fresh.series = [s for s in fresh.series if "time" not in s.name]
    drifts = compare_results(golden, fresh, tolerance=1e-9)
    assert not drifts, "\n".join(str(d) for d in drifts)


def test_goldens_exist_for_every_case():
    store = ResultStore(GOLDEN_DIR)
    assert set(store.experiments()) >= set(CASES)
