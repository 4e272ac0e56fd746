"""RIT — the Robust Incentive Tree mechanism (Algorithm 3).

RIT runs in two phases:

**Auction phase** (lines 1-21).  For each task type ``τ_i`` with ``m_i``
requested tasks, RIT repeatedly runs :func:`repro.core.cra.cra` over the
unit asks extracted from the *remaining* capacities, allocating tasks and
accumulating per-user auction payments ``p^A_j``, until either all ``m_i``
tasks are allocated or the per-type round budget ``max`` is exhausted.  The
budget (line 7, reconstructed in :func:`repro.core.bounds.max_rounds`)
caps the number of randomized rounds so the whole phase stays
``(K_max, H)``-truthful: per Lemma 6.3, each type must succeed with
probability ``η = H^(1/m)`` and each round is ``K_max``-truthful with
probability at least the Lemma 6.2 bound.

**Payment determination phase** (lines 22-28).  If every task of the job
was allocated, :meth:`RIT.join_shards` computes final payments with
:func:`repro.core.payments.payment_kernel` over the winners' root paths
(everyone else is paid 0); otherwise the outcome is *voided* (x = 0, p = 0
for everyone).

Round-budget policies
---------------------
The paper's own evaluation parameters (Fig. 9: ``m_i ∈ (100, 500]``,
``K_max = 20``) make the printed line-7 formula produce a budget of **zero**
— the Lemma 6.2 bound is weaker than ``η`` there — yet the paper reports
non-void results, so its simulator must have kept auctioning.  We therefore
expose the budget as a policy:

* ``"lemma"`` — the strict reconstructed formula (may be 0 → always void);
* ``"paper"`` *(default)* — ``max(1, lemma)``: the formula, but at least
  one round is always attempted;
* ``"until-complete"`` — keep running rounds until the type is covered,
  supply is exhausted, or a generous safety cap is hit (matches the
  evaluation behaviour; weakest theoretical guarantee).

The theoretical guarantee actually achieved under the chosen policy can be
retrieved with :meth:`RIT.truthful_probability_bound`.

Auction engines
---------------
The multi-round CRA loop has three interchangeable engines (``engine=``):

* ``"sorted"`` *(default)* — the incremental sorted engine of
  :mod:`repro.core.engine`: each per-type pool is sorted once, remaining
  capacity is tracked in a Fenwick tree across rounds, and every round is
  resolved by prefix queries instead of a fresh sort.  Per-stage timings
  are surfaced on :attr:`MechanismOutcome.stage_timings`.
* ``"reference"`` — re-materialize and re-sort the unit pool every round
  (the direct transcription of Algorithm 1).
* ``"columnar"`` — the struct-of-arrays core of
  :mod:`repro.core.columnar`: a frozen per-epoch
  :class:`~repro.core.columnar.ColumnarStore` precomputes the profile
  arrays, per-type stable sort orders and the BFS/CSR tree arrays, so a
  run is pure array work — pools come from
  :meth:`~repro.core.engine.SortedTypePool.from_presorted` and payments
  run over the store's BFS-ordered types.  Callers that
  amortize across runs (the epoch service, ``rit bench``) build the store
  once and pass it via ``run(..., columnar_store=...)``.

All engines consume the identical random stream and produce identical
outcomes for the same seed; differential tests enforce this.  Every engine
reads the ask profile once per run (:func:`profile_arrays`, or the
caller's prebuilt store), validates it from those arrays with
:func:`repro.core.columnar.validate_profile`, and determines payments with
the one kernel :func:`repro.core.payments.payment_kernel` over the tree's
cached :class:`~repro.tree.incentive_tree.BFSView`.

Observability
-------------
Every run emits into the mechanism's :mod:`repro.obs` tracer (default:
the shared no-op ``NULL_TRACER``): a ``mechanism`` span wrapping the run,
one ``cra`` span per task type, one ``round`` span per CRA round, plus
the counters cataloged in :mod:`repro.obs.catalog`.  All clock reads go
through ``tracer.clock`` (lint rule RIT007) and all per-round
instrumentation sits behind a single ``tracer.enabled`` check, so traced
and untraced runs produce bit-identical outcomes and the disabled path
stays at benchmark speed.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.core import bounds
from repro.core.columnar import ColumnarStore, profile_arrays, validate_profile
from repro.core.cra import cra
from repro.core.engine import SortedTypePool, StageTimers, cra_presorted
from repro.core.exceptions import (
    AllocationError,
    ConfigurationError,
    TreeError,
)
from repro.core.mechanism import Mechanism
from repro.core.numeric import PAYMENT_ATOL
from repro.core.outcome import MechanismOutcome, RoundRecord, TypeShardResult
from repro.core.payments import DEFAULT_DECAY, payment_kernel
from repro.core.rng import SeedLike, as_generator, spawn_seeds
from repro.core.types import Ask, Job
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.tree.incentive_tree import BFSView, IncentiveTree

__all__ = [
    "RIT",
    "BUDGET_POLICIES",
    "ENGINES",
    "RNG_POLICIES",
    "profile_arrays",
    "pools_from_arrays",
]

BUDGET_POLICIES = ("lemma", "paper", "until-complete")

ENGINES = ("sorted", "reference", "columnar")

#: How randomness is threaded through the per-type auction loops.
#:
#: * ``"stream"`` *(default)* — one generator is shared sequentially across
#:   all task types (the historical behaviour; all goldens assume it).
#: * ``"per-type"`` — the run seed spawns one child :class:`SeedSequence`
#:   per task type (keyed by type index), and each type's CRA loop draws
#:   from its own generator.  Type auctions then consume *independent*
#:   streams, so they can execute concurrently on different workers and
#:   still reproduce the offline result bit-for-bit — this is the
#:   determinism contract of :mod:`repro.service`.
RNG_POLICIES = ("stream", "per-type")

#: Safety cap multiplier for the "until-complete" policy: the number of
#: rounds is bounded by ``_SAFETY_BASE + _SAFETY_LOG_FACTOR * ceil(log2(m_i+2))``
#: to keep runs finite even on adversarial inputs where rounds make no
#: progress (empty samples, zero consensus estimates).
_SAFETY_BASE = 32
_SAFETY_LOG_FACTOR = 8


class RIT(Mechanism):
    """The Robust Incentive Tree mechanism (Algorithm 3).

    Parameters
    ----------
    h:
        Target truthfulness/sybil-proofness probability ``H ∈ (0, 1)``
        (paper evaluation: 0.8).
    decay:
        Geometric decay base of the referral reward (paper: 1/2; must stay
        at most 1/2 for the chain-attack argument of Lemma 6.4 to hold —
        larger values are admitted only for ablation studies and emit no
        guarantee).
    round_budget:
        One of :data:`BUDGET_POLICIES` (see module docstring).
    log_base:
        Base of the log term in the Lemma 6.2 bound (paper numerics: 10).
    k_max:
        Override for ``K_max``.  By default the platform uses the largest
        *claimed* capacity in the ask profile, which upper-bounds the size
        of any sybil coalition (a user's identities cannot claim more than
        ``K_j`` in total).
    sample_rate_scale:
        Ablation knob forwarded to every CRA round (see
        :func:`repro.core.cra.cra`); 1.0 is the paper's mechanism.
    engine:
        One of :data:`ENGINES` — ``"sorted"`` (incremental sorted engine,
        default), ``"reference"`` (per-round rebuild) or ``"columnar"``
        (struct-of-arrays epoch store); see the module docstring.
        Outcomes are seed-for-seed identical across all three.
    rng_policy:
        One of :data:`RNG_POLICIES` — ``"stream"`` (one generator shared
        sequentially across types, default) or ``"per-type"`` (independent
        spawned stream per task type; required for sharded execution to
        match the offline run).
    tracer:
        Observability sink (see :mod:`repro.obs`); defaults to the shared
        no-op tracer.  Can also be injected after construction with
        :meth:`~repro.core.mechanism.Mechanism.with_tracer`.
    raise_on_failure:
        When True, an incomplete allocation raises
        :class:`~repro.core.exceptions.AllocationError` instead of
        returning a voided outcome.
    """

    name = "RIT"

    def __init__(
        self,
        h: float = 0.8,
        *,
        decay: float = DEFAULT_DECAY,
        round_budget: str = "paper",
        log_base: float = 10.0,
        k_max: Optional[int] = None,
        sample_rate_scale: float = 1.0,
        engine: str = "sorted",
        rng_policy: str = "stream",
        tracer: Optional[NullTracer] = None,
        raise_on_failure: bool = False,
    ) -> None:
        if not 0.0 < h < 1.0:
            raise ConfigurationError(f"H must lie in (0, 1), got {h}")
        if round_budget not in BUDGET_POLICIES:
            raise ConfigurationError(
                f"round_budget must be one of {BUDGET_POLICIES}, got {round_budget!r}"
            )
        if engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if rng_policy not in RNG_POLICIES:
            raise ConfigurationError(
                f"rng_policy must be one of {RNG_POLICIES}, got {rng_policy!r}"
            )
        if not 0.0 < decay < 1.0:
            raise ConfigurationError(f"decay must be in (0, 1), got {decay}")
        if k_max is not None and k_max <= 0:
            raise ConfigurationError(f"k_max override must be positive, got {k_max}")
        if sample_rate_scale <= 0:
            raise ConfigurationError(
                f"sample_rate_scale must be > 0, got {sample_rate_scale}"
            )
        self.sample_rate_scale = float(sample_rate_scale)
        self.engine = engine
        self.rng_policy = rng_policy
        self.h = float(h)
        self.decay = float(decay)
        self.round_budget = round_budget
        self.log_base = float(log_base)
        self.k_max_override = k_max
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.raise_on_failure = bool(raise_on_failure)

    # ------------------------------------------------------------------ #
    # Budget and bounds
    # ------------------------------------------------------------------ #

    # Pure closed-form math at configuration time, not per-run work.
    def budget_for(self, m_i: int, k_max: int, num_types: int) -> int:  # rit: noqa[RIT013]
        """Per-type round budget under the configured policy."""
        if m_i <= 0:
            return 0
        if self.round_budget == "until-complete":
            return _SAFETY_BASE + _SAFETY_LOG_FACTOR * math.ceil(math.log2(m_i + 2))
        lemma = bounds.max_rounds(
            self.h, num_types, k_max, m_i, log_base=self.log_base
        )
        if self.round_budget == "lemma":
            return lemma
        return max(1, lemma)  # "paper"

    # Pure closed-form math at configuration time, not per-run work.
    def truthful_probability_bound(self, job: Job, k_max: int) -> float:  # rit: noqa[RIT013]
        """Lower bound on P[run is K_max-truthful] under this configuration.

        Multiplies the per-round Lemma 6.2 bound across the actual round
        budgets; returns 0.0 when any per-round bound is non-positive (the
        theory then offers no guarantee — typical for "until-complete" on
        small ``m_i``).
        """
        total = 1.0
        for tau in job.types():
            m_i = job.tasks_of(tau)
            if m_i == 0:
                continue
            per_round = bounds.cra_truthful_probability(
                k_max, 0, m_i, log_base=self.log_base
            )
            if per_round <= 0.0:
                return 0.0
            rounds = self.budget_for(m_i, k_max, job.num_types)
            total *= min(1.0, per_round) ** rounds
        return total

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        job: Job,
        asks: Mapping[int, Ask],
        tree: IncentiveTree,
        rng: SeedLike = None,
        *,
        columnar_store: Optional[ColumnarStore] = None,
    ) -> MechanismOutcome:
        gen = as_generator(rng)
        tracer = self.tracer
        tracing = tracer.enabled
        clock = tracer.clock
        # The run's elapsed times include the profile pass and any store
        # build; spans open only once the profile has passed validation.
        t_start = clock()
        store = columnar_store
        type_width: Optional[int] = None
        if store is not None:
            # A caller-provided store (epoch service, bench) was validated
            # when it was built; check it still matches this run's profile.
            if self.engine != "columnar":
                raise ConfigurationError(
                    "columnar_store is only meaningful with engine='columnar'"
                )
            if store.num_users != len(asks):
                raise ConfigurationError(
                    f"columnar store holds {store.num_users} users but the "
                    f"profile has {len(asks)}; rebuild the store per epoch"
                )
        else:
            # The run's one pass over the ask profile; validation, pools,
            # k_max and the payment row width all read these arrays.
            uid_arr, type_arr, val_arr, cap_arr = profile_arrays(asks)
            if self.engine == "columnar":
                store = ColumnarStore(
                    job, uid_arr, type_arr, val_arr, cap_arr, tree
                )
            else:
                validate_profile(job, uid_arr, type_arr, tree.bfs_view())
                type_width = int(type_arr.max(initial=-1)) + 1
        owns_run = False
        run_sid = mech_sid = -1
        if tracing:
            owns_run = tracer.depth == 0
            if owns_run:
                run_sid = tracer.begin("run")
            mech_sid = tracer.begin(
                "mechanism",
                mechanism=self.name,
                engine=self.engine,
                users=len(asks),
                tasks=job.size,
                num_types=job.num_types,
            )
            tracer.count("mechanism_runs")
            if store is not None:
                tracer.count(
                    "columnar_store_bytes", store.nbytes, unit="bytes"
                )

        timers = (
            StageTimers(clock=clock)
            if self.engine in ("sorted", "columnar")
            else None
        )
        shards: List[TypeShardResult] = []

        if asks:
            if store is not None:
                k_max = self.k_max_override or store.k_max
            else:
                k_max = self.k_max_override or int(cap_arr.max())
                by_type = pools_from_arrays(
                    uid_arr, type_arr, val_arr, cap_arr
                )
            per_type = self.rng_policy == "per-type"
            type_seeds = spawn_seeds(gen, job.num_types) if per_type else None
            for tau in job.types():
                m_i = job.tasks_of(tau)
                if m_i == 0:
                    continue
                shard_gen = (
                    as_generator(type_seeds[tau]) if type_seeds is not None else gen
                )
                group = (
                    store.pool(tau) if store is not None else by_type.get(tau)
                )
                shards.append(
                    self.run_type_shard(
                        tau,
                        m_i,
                        group,
                        k_max,
                        job.num_types,
                        shard_gen,
                        timers=timers,
                    )
                )

        t_auction = clock()

        final = self.join_shards(
            job,
            asks,
            tree,
            shards,
            started_at=t_start,
            auction_ended_at=t_auction,
            timers=timers,
            columnar_store=store,
            type_width=type_width,
        )
        if not final.completed and self.raise_on_failure:
            # Algorithm 3 line 27 escalated: unwind spans, then raise.
            if tracing:
                tracer.end(mech_sid)
                if owns_run:
                    tracer.end(run_sid)
            raise AllocationError(
                "auction phase could not allocate every task within the "
                f"round budget (policy={self.round_budget!r})"
            )
        if tracing:
            if timers is not None:
                for stage, seconds in timers.as_dict().items():
                    tracer.count(
                        "stage_seconds/" + stage, seconds, unit="seconds"
                    )
            tracer.end(mech_sid)
            if owns_run:
                tracer.end(run_sid)
        return final

    # ------------------------------------------------------------------ #
    # Sharded execution (auction phase decomposed per task type)
    # ------------------------------------------------------------------ #

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
        """Run the multi-round CRA loop for one task type (Alg. 3 lines 8-21).

        This is one *shard* of the auction phase: it touches only its own
        type's pool and returns a self-contained
        :class:`~repro.core.outcome.TypeShardResult` instead of mutating
        shared run state, so shards may execute concurrently (each with an
        independent ``rng`` stream — see :data:`RNG_POLICIES`) and be
        merged afterwards by :meth:`join_shards`.  ``group`` may be None
        when no user bids for the type (the shard is then trivially
        uncovered unless ``m_i`` is 0, which callers filter out).
        """
        gen = as_generator(rng)
        allocation: Dict[int, int] = {}
        auction_payments: Dict[int, float] = {}
        rounds_log: List[RoundRecord] = []
        budget = self.budget_for(m_i, k_max, num_types)
        # Both presorted engines resolve rounds against the pool's stable
        # value order; "columnar" merely got the order from the epoch store.
        use_presorted = self.engine in ("sorted", "columnar")
        tracer = self.tracer
        tracing = tracer.enabled
        cra_sid = -1
        if tracing:
            cra_sid = tracer.begin(
                "cra", task_type=int(tau), m_i=m_i, budget=budget
            )
        q = m_i
        rounds = 0
        while rounds < budget and q > 0:
            if group is None or group.total_remaining() == 0:
                break  # supply exhausted — no further round can allocate
            round_sid = -1
            if tracing:
                round_sid = tracer.begin("round", round_index=rounds, q=q)
            if use_presorted:
                result = cra_presorted(
                    group,
                    q,
                    m_i,
                    gen,
                    sample_rate_scale=self.sample_rate_scale,
                    timers=timers,
                    tracer=tracer,
                )
                t_consume = timers.clock() if timers is not None else 0.0
                winner_positions = group.unit_user_positions(
                    result.winners, group.round_bounds()
                )
                winner_uids = group.uids[winner_positions]
            else:
                values, owners = group.unit_asks()
                result = cra(
                    values, q, m_i, gen,
                    sample_rate_scale=self.sample_rate_scale,
                    tracer=tracer,
                )
                t_consume = timers.clock() if timers is not None else 0.0
                winner_uids = owners[result.winners]
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
            if use_presorted:
                for uid in winner_uids.tolist():
                    allocation[uid] = allocation.get(uid, 0) + 1
                    auction_payments[uid] = (
                        auction_payments.get(uid, 0.0) + result.price
                    )
                group.consume_positions(winner_positions)
                q -= result.num_winners
            else:
                for uid in winner_uids.tolist():
                    allocation[uid] = allocation.get(uid, 0) + 1
                    auction_payments[uid] = (
                        auction_payments.get(uid, 0.0) + result.price
                    )
                group.consume_many(winner_uids)
                q -= result.num_winners
            if timers is not None:
                timers.consume += timers.clock() - t_consume
            if tracing:
                tracer.count("cra_rounds")
                if result.num_winners:
                    tracer.count("winners_selected", result.num_winners)
                    tracer.count("tasks_allocated", result.num_winners)
                    if use_presorted:
                        tracer.count("fenwick_rebuilds")
                else:
                    tracer.count("zero_winner_rounds")
                if result.overflow_trimmed:
                    tracer.count("overflow_trims")
                tracer.end(round_sid)
            rounds += 1
        covered = q == 0
        if tracing:
            if covered:
                tracer.count("types_covered")
            tracer.end(cra_sid)
        return TypeShardResult(
            task_type=int(tau),
            covered=covered,
            allocation=allocation,
            auction_payments=auction_payments,
            rounds=tuple(rounds_log),
        )

    def join_shards(
        self,
        job: Job,
        asks: Mapping[int, Ask],
        tree: IncentiveTree,
        shards: "List[TypeShardResult]",
        *,
        started_at: float = 0.0,
        auction_ended_at: Optional[float] = None,
        timers: Optional[StageTimers] = None,
        columnar_store: Optional[ColumnarStore] = None,
        type_width: Optional[int] = None,
    ) -> MechanismOutcome:
        """Assemble a full :class:`MechanismOutcome` from per-type shards.

        Shards must be supplied in ascending type order (the order
        :meth:`run` produces) so the merged maps preserve the historical
        insertion order.  The merge is a collision-free union — every user
        bids for exactly one type.  Completion requires every type with a
        positive task count to have a *covered* shard; otherwise the
        outcome is voided (Algorithm 3 line 27).  The payment
        determination phase (lines 22-25) runs here, so sharded callers
        get tree payments and budget splits identical to :meth:`run`.

        Payments cover the winners' root paths only: task types are read
        for those nodes alone, from ``columnar_store`` when given, else
        from ``asks``.  Without a store, ``type_width`` must be the
        profile's highest task type + 1, taken from the caller's
        :func:`profile_arrays` pass; it fixes the payment kernel's row
        width (see :func:`repro.core.payments.payment_kernel`).

        This method never raises on incomplete allocation —
        ``raise_on_failure`` is applied by :meth:`run` after spans unwind.
        """
        tracer = self.tracer
        tracing = tracer.enabled
        clock = tracer.clock
        end = auction_ended_at if auction_ended_at is not None else started_at

        allocation: Dict[int, int] = {}
        auction_payments: Dict[int, float] = {}
        rounds_log: List[RoundRecord] = []
        for shard in shards:
            allocation.update(shard.allocation)
            auction_payments.update(shard.auction_payments)
            rounds_log.extend(shard.rounds)
        covered_types = {s.task_type for s in shards if s.covered}
        completed = all(
            job.tasks_of(tau) == 0 or tau in covered_types
            for tau in job.types()
        )

        outcome = MechanismOutcome(
            allocation=allocation,
            auction_payments=auction_payments,
            payments={},
            completed=completed,
            rounds=rounds_log,
            elapsed_auction=end - started_at,
            stage_timings=timers.as_dict() if timers is not None else {},
        )
        if not completed:
            # Algorithm 3 line 27: void everything.
            if tracing:
                tracer.count("runs_voided")
            return outcome.void(elapsed_total=clock() - started_at)
        # Payment determination phase (lines 22-25).
        types_at: Callable[[np.ndarray], np.ndarray]
        store = columnar_store
        if store is not None:
            view = store.view
            types_at = store.bfs_types.__getitem__
            width = store.type_width
        elif type_width is None:
            raise ConfigurationError(
                "join_shards needs type_width (the profile's highest task "
                "type + 1) when no columnar store is given"
            )
        else:
            view = tree.bfs_view()
            types_at = functools.partial(_ask_types, view, asks)
            width = type_width
        positions, payments = payment_kernel(
            view, auction_payments, types_at, width, self.decay, tracer=tracer
        )
        keep = np.abs(payments) > PAYMENT_ATOL
        kept = dict(
            zip(view.uids[positions[keep]].tolist(), payments[keep].tolist())
        )
        num_nodes = len(view)
        final = outcome.finalize(
            payments=kept, elapsed_total=clock() - started_at
        )
        if tracing:
            tracer.count("runs_completed")
            tracer.count("payment_recipients", len(kept))
            tracer.count("payments_pruned", num_nodes - len(kept))
        return final


def _ask_types(
    view: BFSView, asks: Mapping[int, Ask], positions: np.ndarray
) -> np.ndarray:
    """Task types of the nodes at BFS ``positions``, read from their asks."""
    uids = view.uids[positions].tolist()
    try:
        return np.fromiter(
            (asks[uid].task_type for uid in uids), dtype=np.int64, count=len(uids)
        )
    except KeyError as err:
        raise TreeError(f"node {err.args[0]} has no task type") from None


def pools_from_arrays(
    uid_arr: np.ndarray,
    type_arr: np.ndarray,
    val_arr: np.ndarray,
    cap_arr: np.ndarray,
) -> Dict[int, SortedTypePool]:
    """Split flattened ask arrays into per-type presorted pools.

    Selection by ``flatnonzero`` keeps each pool in the profile's order
    (see :func:`repro.core.extract.extract` for why order is
    load-bearing)."""
    return {
        int(tau): SortedTypePool(
            uid_arr[sel], val_arr[sel], cap_arr[sel]
        )
        for tau in np.unique(type_arr)
        for sel in (np.flatnonzero(type_arr == tau),)
    }
