"""The service's correctness anchor: online == offline, bit for bit.

For a fixed root seed and admitted event stream, the service must produce
epoch outcomes *bit-identical* to running the plain offline ``RIT.run``
over the cumulative state at each epoch close — identical payments,
winners, and round diagnostics (which pin the underlying RNG draws).  The
service runs each epoch's ``RIT.run`` over the snapshot's vectorized view
on a worker thread; the replay runs it over the walked tree.  The seeded
scenarios cover count-triggered and tick-triggered epochs, both names
``engine=`` accepts, the reference oracle served and replayed, withdrawal
grafting mid-stream, and both RNG policies; the ``"columnar"``-named
service is additionally anchored against a default-engine offline replay.
"""

import pytest

from repro.core.rit import RIT
from repro.core.rng import spawn_seeds
from repro.service import (
    MechanismService,
    ServiceConfig,
    build_scenario,
    differential_check,
    replay_outcomes,
    scenario_event_stream,
)
from tests.core.reference_rit import MECHANISMS

SCENARIOS = [
    # (seed, users, types, tasks_per_type, epoch_events, epoch_ticks,
    #  withdraw_fraction, engine, rng_policy)
    pytest.param(5, 120, 3, 6, 32, None, 0.0, "sorted", "per-type", id="seed5-count-sorted"),
    pytest.param(9, 200, 4, 8, 24, 40, 0.05, "sorted", "per-type", id="seed9-ticks-sorted"),
    pytest.param(13, 150, 2, 10, 48, 25, 0.1, "reference", "per-type", id="seed13-ticks-reference"),
    pytest.param(17, 180, 3, 7, 28, None, 0.08, "columnar", "per-type", id="seed17-count-columnar"),
    pytest.param(23, 140, 4, 6, 30, 35, 0.12, "columnar", "per-type", id="seed23-ticks-columnar"),
    pytest.param(29, 170, 3, 7, 30, 30, 0.1, "sorted", "stream", id="seed29-ticks-stream"),
]


@pytest.mark.parametrize(
    "seed,users,types,tasks_per_type,epoch_events,epoch_ticks,"
    "withdraw_fraction,engine,rng_policy",
    SCENARIOS,
)
def test_sharded_service_is_bit_identical_to_offline_replay(
    seed, users, types, tasks_per_type, epoch_events, epoch_ticks,
    withdraw_fraction, engine, rng_policy,
):
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(users, types, tasks_per_type, scenario_rng)
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=withdraw_fraction
    )
    config = ServiceConfig(
        seed=seed,
        epoch_max_events=epoch_events,
        epoch_max_ticks=epoch_ticks,
    )
    build = MECHANISMS[engine]
    service = MechanismService(
        build(rng_policy=rng_policy, round_budget="until-complete"),
        scenario.job,
        config,
    )
    report = service.serve_stream(events)
    assert len(report.epochs) >= 3  # a meaningful multi-epoch run
    assert any(epoch.outcome.completed for epoch in report.epochs)

    replayed = replay_outcomes(
        report.consumed,
        scenario.job,
        build(rng_policy=rng_policy, round_budget="until-complete"),
        seed=seed,
        policy=config.policy(),
    )
    problems = differential_check(
        report.outcomes(), [outcome for _, outcome in replayed]
    )
    assert problems == []
    # The replay cut the same batches from the same stream.
    assert [batch.index for batch, _ in replayed] == [
        epoch.index for epoch in report.epochs
    ]
    assert [batch.num_events for batch, _ in replayed] == [
        epoch.batch_events for epoch in report.epochs
    ]


def test_columnar_service_matches_sorted_offline_replay():
    """Cross-name anchor: a service built with ``engine="columnar"`` runs
    the one epoch path, so a default-engine offline replay reproduces it
    bit for bit."""
    seed = 21
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(160, 3, 6, scenario_rng)
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=0.1
    )
    config = ServiceConfig(seed=seed, epoch_max_events=36)
    service = MechanismService(
        RIT(
            engine="columnar",
            rng_policy="per-type",
            round_budget="until-complete",
        ),
        scenario.job,
        config,
    )
    report = service.serve_stream(events)
    assert len(report.epochs) >= 3
    replayed = replay_outcomes(
        report.consumed,
        scenario.job,
        RIT(
            engine="sorted",
            rng_policy="per-type",
            round_budget="until-complete",
        ),
        seed=seed,
        policy=config.policy(),
    )
    problems = differential_check(
        report.outcomes(), [outcome for _, outcome in replayed]
    )
    assert problems == []


def test_differential_check_reports_mismatches():
    scenario_rng, stream_rng = spawn_seeds(5, 2)
    scenario = build_scenario(80, 2, 5, scenario_rng)
    events = scenario_event_stream(scenario, stream_rng)
    mech = RIT(rng_policy="per-type", round_budget="until-complete")
    service = MechanismService(
        mech, scenario.job, ServiceConfig(seed=5, epoch_max_events=40)
    )
    report = service.serve_stream(events)
    replayed = replay_outcomes(
        report.consumed,
        scenario.job,
        RIT(rng_policy="per-type", round_budget="until-complete"),
        seed=6,  # wrong root seed: outcomes must differ
        policy=service.config.policy(),
    )
    problems = differential_check(
        report.outcomes(), [outcome for _, outcome in replayed]
    )
    assert problems != []
