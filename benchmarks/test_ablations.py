"""Ablations over RIT's design choices (beyond the paper's figures).

DESIGN.md calls out four load-bearing choices; each gets a benchmark:

* **tree decay γ** — sybil-proofness of the chain attack needs γ <= 1/2;
  the ablation measures a chain attacker's gain at γ ∈ {0.25, 0.5, 0.75}
  and shows the γ = 0.75 variant leaks utility to the attacker.
* **round-budget policy** — completion rate and truthfulness-bound
  trade-off across lemma / paper / until-complete.
* **log base in the Lemma 6.2 bound** — budget tables under log10 (the
  paper's numerics) vs log2 (classical consensus accounting).
* **CRA microbenchmark** — the per-round cost on large unit-ask vectors,
  the quantity behind Fig. 8's linear scaling: the reference ``cra``
  re-sorts every unit, the production ``cra_presorted`` round reads only
  the cheapest users' sample uniforms, and a whole shard of rounds costs
  about the same at every pool size.
* **ingest microbenchmark** — the live per-event path in pieces: the
  frontend's enqueue and take, the same through a full queue whose
  producer and consumer wait for and wake each other, the pipeline step
  that applies and batches each event, and the bulk fold of one queue of
  admission samples into their histogram.
* **epoch-build microbenchmark** — one live epoch's snapshot at the last
  epoch of a ``live-paced``-sized stream, whose pools take the value
  order carried from the epoch before, beside ``pools_from_arrays``
  sorting the same columns from scratch.
* **generation microbenchmark** — the input generation every workload
  runs before its timed phase: a ``twitter_like`` graph of ``live-churn``'s
  size (20k users, mean out-degree 12), built once into CSR, and the
  spanning forest grown over it.
"""

import asyncio
import itertools

import numpy as np
import pytest

from repro.analysis.theory import budget_table
from repro.core.cra import cra
from repro.core.engine import SortedTypePool, cra_presorted, pools_from_arrays
from repro.core.payments import tree_payments
from repro.core.rit import RIT
from repro.core.types import Job
from repro.obs.metrics import new_histogram
from repro.service.epochs import EpochPipeline, EpochPolicy
from repro.service.frontend import IngestFrontend
from repro.service.loadgen import seeded_stream
from repro.service.state import ServiceState
from repro.service.telemetry import ServiceTelemetry
from repro.socialnet.generators import twitter_like
from repro.tree.builder import build_spanning_forest
from repro.tree.incentive_tree import ROOT, IncentiveTree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution


class TestDecayAblation:
    def _chain_gain(self, decay):
        """Payment-level gain of a 3-chain split under a given decay."""
        tree = IncentiveTree()
        tree.attach(1, ROOT)
        tree.attach(2, 1)     # victim
        tree.attach(3, 2)     # recruit of other type
        pays = {2: 4.0, 3: 8.0}
        types = {1: 0, 2: 1, 3: 2}
        honest = tree_payments(tree, pays, types, decay=decay)[2]

        attacked = IncentiveTree()
        attacked.attach(1, ROOT)
        attacked.attach(10, 1)
        attacked.attach(11, 10)
        attacked.attach(12, 11)
        attacked.attach(3, 12)
        pays2 = {10: 4.0, 3: 8.0}
        types2 = {1: 0, 10: 1, 11: 1, 12: 1, 3: 2}
        split = tree_payments(attacked, pays2, types2, decay=decay)
        return sum(split[i] for i in (10, 11, 12)) - honest

    def test_decay_half_is_the_sybil_proof_boundary(self, benchmark):
        gains = benchmark.pedantic(
            lambda: {d: self._chain_gain(d) for d in (0.25, 0.5, 0.75)},
            rounds=1, iterations=1,
        )
        print()
        for decay, gain in gains.items():
            verdict = "safe" if gain <= 1e-9 else "ATTACKER GAINS"
            print(f"  decay={decay}: chain-split gain {gain:+.4f} ({verdict})")
        assert gains[0.25] <= 1e-9
        assert gains[0.5] <= 1e-9
        assert gains[0.75] > 0, "decay > 1/2 must leak utility to chains"


class TestBudgetPolicyAblation:
    def test_completion_vs_guarantee(self, benchmark):
        """At a Fig. 9-like scale, 'lemma' always voids, 'paper' completes
        sometimes, 'until-complete' always completes."""
        job = Job.uniform(5, 30)
        scenario = paper_scenario(
            800, job, rng=42,
            distribution=UserDistribution(num_types=5),
            supply_threshold=True,
        )
        asks = scenario.truthful_asks()

        def measure():
            rates = {}
            for policy in ("lemma", "paper", "until-complete"):
                mech = RIT(h=0.8, round_budget=policy)
                done = sum(
                    mech.run(job, asks, scenario.tree, rng=seed).completed
                    for seed in range(10)
                )
                rates[policy] = done / 10
            return rates

        rates = benchmark.pedantic(measure, rounds=1, iterations=1)
        print()
        for policy, rate in rates.items():
            bound = RIT(h=0.8, round_budget=policy).truthful_probability_bound(job, 20)
            print(f"  {policy:15s}: completion {rate:4.0%}   "
                  f"theoretical truthfulness bound {bound:.3f}")
        assert rates["lemma"] == 0.0
        assert rates["until-complete"] == 1.0
        assert rates["paper"] <= rates["until-complete"]


class TestLogBaseAblation:
    def test_budget_tables(self, benchmark):
        def tables():
            return {
                base: budget_table(0.8, 10, 20, [1000, 3000, 5000], log_base=base)
                for base in (10.0, 2.0)
            }

        result = benchmark.pedantic(tables, rounds=1, iterations=1)
        print()
        for base, rows in result.items():
            label = "log10 (paper numerics)" if base == 10 else "log2 (classical)"
            for m_i, bound, budget in rows:
                print(f"  {label:24s} m_i={m_i:5d}: bound {bound:.4f}, "
                      f"budget {budget}")
        # log2 penalizes the consensus term harder -> smaller budgets.
        for (m10, _, b10), (m2, _, b2) in zip(result[10.0], result[2.0]):
            assert b2 <= b10


class TestQualityAblation:
    def test_quality_awareness_buys_effective_coverage(self, benchmark):
        """The quality-aware extension (repro.quality) vs plain RIT on the
        same scenario: quality-adjusted selection should deliver more
        effective sensing value per task at comparable completion."""
        from repro.quality import QualityAwareRIT, uniform_qualities

        job = Job.uniform(4, 30)
        scenario = paper_scenario(
            600, job, rng=7, distribution=UserDistribution(num_types=4)
        )
        qualities = uniform_qualities(scenario.population, low=0.3, rng=8)
        asks = scenario.truthful_asks()

        def measure():
            plain = RIT(round_budget="until-complete")
            aware = QualityAwareRIT(qualities, RIT(round_budget="until-complete"))
            cov = {"plain": [], "aware": []}
            for seed in range(8):
                p = plain.run(job, asks, scenario.tree, rng=seed)
                a = aware.run(job, asks, scenario.tree, rng=seed)
                if p.completed:
                    cov["plain"].append(
                        sum(x * qualities[uid] for uid, x in p.allocation.items())
                        / p.total_allocated
                    )
                if a.completed:
                    cov["aware"].append(aware.effective_coverage(a) / a.total_allocated)
            return {
                k: sum(v) / len(v) if v else 0.0 for k, v in cov.items()
            }

        result = benchmark.pedantic(measure, rounds=1, iterations=1)
        print()
        print(f"  mean quality per allocated task: plain {result['plain']:.3f}  "
              f"quality-aware {result['aware']:.3f}")
        assert result["aware"] > result["plain"], result


class TestCRAMicrobench:
    @pytest.mark.parametrize("size", [1_000, 10_000, 100_000])
    def test_cra_round_cost(self, benchmark, size):
        gen = np.random.default_rng(0)
        values = gen.uniform(0.1, 10.0, size=size)

        seeds = itertools.count()

        def round_once():
            return cra(values, 500, 500, np.random.default_rng(next(seeds)))

        result = benchmark(round_once)
        assert result.num_winners <= 500

    @pytest.mark.parametrize("units", [10_000, 100_000, 1_000_000])
    def test_presorted_round_cost(self, benchmark, units):
        """The production round at ``q + m_i = 100``, each on a fresh fork.

        Above the jump-ahead crossover (an expected sample of 200 units;
        10k units expect 100 and draw every uniform) the sample stage
        reads only the cheapest users' uniforms, and every unit start and
        cut is read off the pool's construction-time sums, so the round
        costs about the same at every size.
        """
        gen = np.random.default_rng(0)
        users = units // 10  # capacities 1..19, ten units on average
        pool = SortedTypePool(
            np.arange(users),
            gen.uniform(0.1, 10.0, size=users),
            gen.integers(1, 20, size=users),
        )
        seeds = itertools.count()

        def fresh_round():
            return (pool.fork(), 50, 50, np.random.default_rng(next(seeds))), {}

        result = benchmark.pedantic(
            cra_presorted, setup=fresh_round, rounds=200, iterations=1
        )
        assert 0 < result.num_winners <= 50

    @pytest.mark.parametrize("units", [10_000, 100_000, 1_000_000])
    def test_shard_cost(self, benchmark, units):
        """One type's auction phase at ``m_i = 50``, each on a fresh fork.

        ``RIT.run_type_shard`` clears rounds until the type is covered.
        A round subtracts the units consumed so far from the pool's
        construction-time sums instead of summing over the users again,
        so above the jump-ahead crossover the shard costs about the same
        at every size.
        """
        gen = np.random.default_rng(0)
        users = units // 10  # capacities 1..19, ten units on average
        pool = SortedTypePool(
            np.arange(users),
            gen.uniform(0.1, 10.0, size=users),
            gen.integers(1, 20, size=users),
        )
        mech = RIT(round_budget="until-complete")
        seeds = itertools.count()

        def fresh_shard():
            gen = np.random.default_rng(next(seeds))
            return (0, 50, pool.fork(), 5, 1, gen), {}

        shard = benchmark.pedantic(
            mech.run_type_shard, setup=fresh_shard, rounds=100, iterations=1
        )
        assert shard.covered


@pytest.fixture(scope="class")
def churn_head():
    """The job and first 4,096 events of a seeded 2,000-user churn stream.

    The stream's withdrawals follow its joins, so the head ends in the
    first of them.
    """
    job, events = seeded_stream(
        3, 2_000, 4, 50, graph="twitter", withdraw_fraction=0.25
    )
    return job, events[:4_096]


class TestIngestMicrobench:
    """One admitted event's per-event costs, stage by stage."""

    def test_frontend_put_and_take(self, benchmark, churn_head):
        """1,024 ``put`` calls into a queue with room, then 1,024 takes."""
        job, events = churn_head
        events = events[:1_024]
        telemetry = ServiceTelemetry()
        frontend = IngestFrontend(job, maxsize=len(events), telemetry=telemetry)
        loop = asyncio.new_event_loop()

        async def put_all():
            for event in events:
                await frontend.put(event)

        def admit_and_take():
            loop.run_until_complete(put_all())
            taken = 0
            while frontend.get_nowait() is not None:
                taken += 1
            telemetry.admit_seconds.clear()
            telemetry.queue_depths.clear()
            return taken

        try:
            assert benchmark(admit_and_take) == len(events)
        finally:
            loop.close()
        assert frontend.highwater == len(events)

    def test_frontend_full_queue_handoff(self, benchmark, churn_head):
        """4,096 ``put`` calls through a 1,024-event queue that a consumer
        drains with ``get`` and ``get_nowait``, as in ``live-churn``'s
        closed loop: the producer waits whenever the queue fills, the
        consumer whenever it empties, and each wakes the other."""
        job, events = churn_head
        telemetry = ServiceTelemetry()
        loop = asyncio.new_event_loop()

        async def handoff():
            frontend = IngestFrontend(job, maxsize=1_024, telemetry=telemetry)

            async def produce():
                for event in events:
                    await frontend.put(event)
                await frontend.close()

            producer = asyncio.ensure_future(produce())
            taken = 0
            event = await frontend.get()
            while event is not None:
                while event is not None:
                    taken += 1
                    event = frontend.get_nowait()
                event = await frontend.get()
            await producer
            telemetry.admit_seconds.clear()
            telemetry.queue_depths.clear()
            return taken, frontend.highwater

        def one_handoff():
            return loop.run_until_complete(handoff())

        try:
            result = benchmark(one_handoff)
        finally:
            loop.close()
        assert result == (len(events), 1_024)

    def test_pipeline_step(self, benchmark, churn_head):
        """``EpochPipeline.step`` over the head at ``live-churn``'s policy."""
        job, events = churn_head

        def step_all():
            pipeline = EpochPipeline(job, EpochPolicy(max_events=4_096))
            step = pipeline.step
            closed = 0
            for event in events:
                refused, snapshots = step(event)
                assert refused is None
                closed += len(snapshots)
            return closed

        assert benchmark(step_all) == 1

    def test_histogram_fold(self, benchmark):
        """``Histogram.observe_many`` over one queue of admission samples."""
        samples = np.random.default_rng(0).exponential(1e-5, size=1_024).tolist()
        hist = new_histogram("ingest_admit_seconds")
        benchmark(hist.observe_many, samples)
        assert hist.count > 0 and hist.count % len(samples) == 0


@pytest.fixture(scope="class")
def paced_stream():
    """The job and events of a seeded stream of ``live-paced``'s shape:
    6,000 users, 4 types of 50 tasks, no withdrawals."""
    return seeded_stream(3, 6_000, 4, 50, graph="twitter", withdraw_fraction=0.0)


def _applied(job, events):
    state = ServiceState(job)
    for event in events:
        state.apply(event)
    return state


class TestEpochBuildMicrobench:
    """The snapshot that closes ``live-paced``'s last 192-event epoch."""

    def test_snapshot_with_carried_pools(self, benchmark, paced_stream):
        """Columns, view and pools; the pools merge the epoch's arrivals
        into the order the previous snapshot kept."""
        job, events = paced_stream
        head, last = events[:-192], events[-192:]

        def at_the_last_epoch():
            state = _applied(job, head)
            state.snapshot()  # the order carried into the last epoch
            for event in last:
                state.apply(event)
            return (state,), {}

        snapshot = benchmark.pedantic(
            ServiceState.snapshot, setup=at_the_last_epoch, rounds=20, iterations=1
        )
        fresh = pools_from_arrays(
            snapshot.uids, snapshot.types, snapshot.values, snapshot.caps
        )
        carried = snapshot.asks.pools()
        assert list(carried) == list(fresh) == [0, 1, 2, 3]
        for tau, pool in fresh.items():
            assert np.array_equal(carried[tau]._sorted_users, pool._sorted_users)

    def test_pools_from_scratch(self, benchmark, paced_stream):
        """``pools_from_arrays`` over the same snapshot's columns: a stable
        value sort per type."""
        job, events = paced_stream
        snapshot = _applied(job, events).snapshot()
        pools = benchmark(
            pools_from_arrays,
            snapshot.uids,
            snapshot.types,
            snapshot.values,
            snapshot.caps,
        )
        assert sum(len(pool.uids) for pool in pools.values()) == len(snapshot)


def _churn_graph():
    return twitter_like(20_000, rng=3, mean_out_degree=12.0)


@pytest.fixture(scope="class")
def churn_graph():
    """A twitter-like graph of ``live-churn``'s size, built once per class."""
    return _churn_graph()


class TestGenerationMicrobench:
    """A 20k-user twitter-like graph and its spanning forest."""

    def test_twitter_like_graph(self, benchmark):
        """Preferential attachment into two edge columns, then one CSR build."""
        graph = benchmark.pedantic(_churn_graph, rounds=3, iterations=1)
        assert graph.num_nodes == 20_000
        assert graph.stats().mean_out_degree == pytest.approx(12.0, rel=0.1)

    def test_spanning_forest(self, benchmark, churn_graph):
        """The level-synchronous BFS over the graph's successor rows."""
        tree = benchmark.pedantic(
            build_spanning_forest, args=(churn_graph,), rounds=5, iterations=1
        )
        assert len(tree) == churn_graph.num_nodes


class TestSampleRateAblation:
    def test_larger_samples_cut_prices_and_completion_stays(self, benchmark):
        """DESIGN.md's last ablation: scaling CRA's sample probability.
        Bigger samples push the price candidate (the sampled minimum)
        down, lowering platform spend — the flip side is a larger E_s
        manipulation surface (Lemma 6.2's sample term scales with it)."""
        job = Job.uniform(4, 60)
        scenario = paper_scenario(
            800, job, rng=11, distribution=UserDistribution(num_types=4)
        )
        asks = scenario.truthful_asks()

        def measure():
            spend = {}
            for scale in (0.5, 1.0, 2.0, 4.0):
                mech = RIT(round_budget="until-complete",
                           sample_rate_scale=scale)
                totals = []
                for seed in range(8):
                    out = mech.run(job, asks, scenario.tree, rng=seed)
                    if out.completed:
                        totals.append(out.total_auction_payment)
                spend[scale] = sum(totals) / len(totals) if totals else float("nan")
            return spend

        spend = benchmark.pedantic(measure, rounds=1, iterations=1)
        print()
        for scale, total in spend.items():
            print(f"  sample_rate x{scale}: mean auction spend {total:,.1f}")
        assert spend[4.0] < spend[0.5], spend
