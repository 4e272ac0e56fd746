"""The service telemetry plane (`repro.service.telemetry`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.core.rng import spawn_seeds
from repro.obs import Tracer, canonical_events
from repro.service import (
    WIN_RATE_DEPTH_CAP,
    MechanismService,
    ServiceConfig,
    ServiceTelemetry,
    build_scenario,
    canonical_outcome,
    epoch_gauges,
    scenario_event_stream,
)
from repro.tree.incentive_tree import ROOT, IncentiveTree


def small_run(seed=0, users=100, types=3, tasks_per_type=5, **kwargs):
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(users, types, tasks_per_type, scenario_rng)
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=0.05
    )
    mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
    service = MechanismService(
        mechanism,
        scenario.job,
        ServiceConfig(seed=seed, epoch_max_events=32),
        **kwargs,
    )
    report = service.serve_stream(events)
    return service, report


def chain_tree():
    tree = IncentiveTree()
    tree.attach(1, ROOT)
    tree.attach(2, 1)
    tree.attach(3, 1)
    tree.attach(4, 2)
    return tree


class TestEpochGauges:
    def test_pure_function_of_outcome_and_tree(self):
        tree = chain_tree()
        outcome = MechanismOutcome(allocation={1: 2, 3: 1, 4: 0})
        a = epoch_gauges(outcome, tree.bfs_view())
        b = epoch_gauges(outcome, tree.bfs_view())
        assert a == b
        assert list(a) == sorted(a)  # deterministic name-sorted order

    def test_depth_surface(self):
        tree = chain_tree()  # depths: 1→1, 2→2, 3→2, 4→3
        outcome = MechanismOutcome(allocation={1: 2, 3: 1, 4: 0})
        gauges = epoch_gauges(outcome, tree.bfs_view())
        assert gauges["epoch_participants"] == 4.0
        assert gauges["referral_depth_max"] == 3.0
        assert gauges["referral_depth_mean"] == pytest.approx(8 / 4)
        assert gauges["win_rate/depth1"] == 1.0  # user 1 won
        assert gauges["win_rate/depth2"] == 0.5  # 3 won, 2 did not
        assert gauges["win_rate/depth3"] == 0.0  # zero allocation ≠ win

    def test_empty_tree(self):
        gauges = epoch_gauges(MechanismOutcome(), IncentiveTree().bfs_view())
        assert gauges["epoch_participants"] == 0.0
        assert gauges["referral_depth_max"] == 0.0
        assert gauges["referral_depth_mean"] == 0.0
        assert not any(name.startswith("win_rate/") for name in gauges)

    def test_depth_cap_folds_deep_chains(self):
        tree = IncentiveTree()
        previous = ROOT
        for uid in range(1, 15):  # chain far deeper than the cap
            tree.attach(uid, previous)
            previous = uid
        gauges = epoch_gauges(
            MechanismOutcome(allocation={14: 1}), tree.bfs_view()
        )
        levels = {
            int(name.split("depth")[1])
            for name in gauges
            if name.startswith("win_rate/")
        }
        assert max(levels) == WIN_RATE_DEPTH_CAP
        # The depth-14 winner folded into the cap level's population of 7.
        assert gauges[f"win_rate/depth{WIN_RATE_DEPTH_CAP}"] == pytest.approx(
            1 / 7
        )


def dict_gauges(outcome, tree):
    """The per-node dict computation ``epoch_gauges`` replaced (oracle)."""
    depths = tree.depths()
    gauges = {
        "epoch_participants": float(len(depths)),
        "referral_depth_max": float(max(depths.values(), default=0)),
        "referral_depth_mean": (
            sum(depths.values()) / len(depths) if depths else 0.0
        ),
    }
    winners = {uid for uid, tasks in outcome.allocation.items() if tasks > 0}
    at_depth, won_at_depth = {}, {}
    for uid, depth in depths.items():
        level = min(depth, WIN_RATE_DEPTH_CAP)
        at_depth[level] = at_depth.get(level, 0) + 1
        if uid in winners:
            won_at_depth[level] = won_at_depth.get(level, 0) + 1
    for level, population in at_depth.items():
        gauges[f"win_rate/depth{level}"] = won_at_depth.get(level, 0) / population
    return dict(sorted(gauges.items()))


class TestEpochGaugesMatchDictComputation:
    @given(
        parents=st.lists(
            st.integers(min_value=-1, max_value=40), min_size=0, max_size=40
        ),
        chain=st.integers(min_value=0, max_value=3 * WIN_RATE_DEPTH_CAP),
        tasks=st.lists(st.integers(min_value=0, max_value=2), max_size=90),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_trees(self, parents, chain, tasks):
        tree = IncentiveTree()
        for node, p in enumerate(parents):
            tree.attach(node, ROOT if p < 0 or p >= node else p)
        # A chain hanging off the last node reaches past the depth cap.
        previous = len(parents) - 1 if parents else ROOT
        for node in range(len(parents), len(parents) + chain):
            tree.attach(node, previous)
            previous = node
        # Allocation over tree nodes plus ids that are not in the tree.
        outcome = MechanismOutcome(
            allocation={uid: x for uid, x in enumerate(tasks)}
        )
        got = epoch_gauges(outcome, tree.bfs_view())
        assert got == dict_gauges(outcome, tree)
        assert list(got) == list(dict_gauges(outcome, tree))


class TestServiceTelemetry:
    def test_ring_is_bounded(self):
        telemetry = ServiceTelemetry(ring_size=2)
        tree = chain_tree()
        for index in range(5):
            telemetry.close_epoch(
                index=index,
                batch_events=10,
                users=4,
                latency_seconds=0.01,
                outcome=MechanismOutcome(allocation={1: 1}),
                view=tree.bfs_view(),
            )
        frames = telemetry.recent_frames()
        assert [f["epoch"] for f in frames] == [3, 4]  # oldest evicted
        assert telemetry.epochs_closed == 5

    def test_ring_size_validated(self):
        with pytest.raises(ValueError):
            ServiceTelemetry(ring_size=0)

    def test_slo_summary_shape(self):
        service, report = small_run()
        slo = service.telemetry.slo_summary()
        assert slo["epochs_closed"] == len(report.epochs)
        for key in ("ingest", "epoch", "queue_depth", "batch_events"):
            summary = slo[key]
            assert set(summary) == {
                "count", "sum", "min", "max", "p50", "p95", "p99",
            }
            if summary["count"]:
                assert (
                    summary["min"] <= summary["p50"] <= summary["p95"]
                    <= summary["p99"] <= summary["max"]
                )
        assert slo["epoch"]["count"] == len(report.epochs)
        assert slo["batch_events"]["sum"] == float(report.applied)

    def test_counters_snapshot_names_are_cataloged(self):
        from repro.obs.catalog import describe_counter

        service, _ = small_run()
        snapshot = service.telemetry.counters_snapshot(
            {"service_events_offered": service.frontend.offered}
        )
        for name, entry in snapshot.items():
            assert describe_counter(name) is not None, name
            assert entry["unit"] == "count"

    def test_phase_transitions(self):
        service, _ = small_run()
        assert service.telemetry.phase == "drained"


class TestDifferentialWithTelemetry:
    def test_telemetry_and_tracing_leave_outcomes_bit_identical(self):
        plain_service, plain = small_run(seed=7)
        tracer = Tracer("telemetry-diff", seed=7)
        traced_service, traced = small_run(
            seed=7, tracer=tracer, telemetry=ServiceTelemetry(ring_size=8)
        )
        assert len(plain.epochs) == len(traced.epochs)
        for a, b in zip(plain.epochs, traced.epochs):
            assert canonical_outcome(a.outcome) == canonical_outcome(b.outcome)
        # The traced run recorded the distribution mirror.
        kinds = {e.get("ev") for e in tracer.events}
        assert "distribution" in kinds

    def test_traced_rerun_canonical_stream_is_stable(self):
        streams = []
        for _ in range(2):
            tracer = Tracer("telemetry-rerun", seed=3)
            small_run(seed=3, tracer=tracer)
            streams.append(canonical_events(tracer.events))
        assert streams[0] == streams[1]

    def test_gauges_match_final_epoch_frame(self):
        service, _ = small_run()
        frames = service.telemetry.recent_frames()
        assert frames, "run closed no epochs"
        last = frames[-1]
        for name, value in last["gauges"].items():
            assert service.telemetry.gauges[name]["value"] == value
