"""The frozen ``EpochMechanism`` contract the arena replays against.

An *epoch mechanism* is what the arena harness plugs into the shared
epoch pipeline: given the cumulative admitted state at an epoch close
(the same :class:`~repro.service.epochs.EpochSnapshot` inputs the RIT
service hands its workers) and that epoch's pure seed, it returns a
:class:`~repro.core.outcome.MechanismOutcome`.  The contract is
deliberately small so rivals from the related work slot in without
touching the service plane:

* **admission** is not the mechanism's business — the shared
  :class:`~repro.service.epochs.EpochPipeline` state machine admits
  events and cuts epochs identically for every mechanism, which is what
  makes arena scorecards comparable;
* **epoch run** — :meth:`EpochMechanism.run_epoch` must be a pure
  function of ``(job, asks, tree, seed)`` plus whatever *own* state the
  mechanism accumulated from earlier epochs of the same replay
  (:meth:`EpochMechanism.fresh` resets that state between replays);
* **outcome schema** — the standard :class:`MechanismOutcome`
  (allocation, auction payments, final payments, completed flag), so
  utilities and sybil gains are computed by one shared scorer.

``accounting`` declares how per-epoch outcomes compose into one
definitive result:

``cumulative``
    every epoch re-runs over the full cumulative state, so the last
    *completed* epoch is the definitive settlement (RIT, the lottery
    tree, and the §4 reward-rule baselines);
``incremental``
    each epoch decides only that epoch's arrivals and totals are the
    sum across epochs (OMG's online-arrival model).
"""

from __future__ import annotations

import abc
import copy
from typing import Callable, Dict, Mapping, Optional

from repro.baselines.kth_price import KthPriceAuction
from repro.baselines.naive_combo import NaiveComboMechanism
from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.core.rng import SeedLike
from repro.core.types import Ask, Job
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.service.service import SERVING_RIT
from repro.tree.incentive_tree import IncentiveTree

__all__ = [
    "ACCOUNTING_MODES",
    "EpochMechanism",
    "RITEpochMechanism",
    "RewardRuleMechanism",
]

#: How per-epoch outcomes compose into a definitive arena result.
ACCOUNTING_MODES = ("cumulative", "incremental")


class EpochMechanism(abc.ABC):
    """Interface between the arena harness and one rival mechanism."""

    #: Registry name, used in scorecards and ``--mechanisms`` flags.
    mechanism_id: str = "mechanism"

    #: One of :data:`ACCOUNTING_MODES` (see the module docstring).
    accounting: str = "cumulative"

    #: Integer-cent budget the mechanism promises to disburse *exactly*
    #: in every completed epoch, or None when it makes no such promise.
    #: The harness checks the invariant with exact cent arithmetic.
    budget_cents: Optional[int] = None

    #: Observability sink; the shared no-op default keeps tracer-less
    #: replays zero-overhead (same convention as
    #: :class:`repro.core.mechanism.Mechanism`).
    tracer: NullTracer = NULL_TRACER

    def with_tracer(self, tracer: NullTracer) -> "EpochMechanism":
        """A shallow copy of this mechanism emitting into ``tracer``."""
        clone = copy.copy(self)
        clone.tracer = tracer
        return clone

    def fresh(self) -> "EpochMechanism":
        """A clean-state copy, ready to replay a stream from epoch 0.

        Mechanisms with cross-epoch state (``incremental`` accounting)
        must override this to drop that state; the default shallow copy
        is correct for stateless per-epoch mechanisms.
        """
        return copy.copy(self)

    @abc.abstractmethod
    def run_epoch(
        self,
        job: Job,
        asks: Mapping[int, Ask],
        tree: IncentiveTree,
        seed: SeedLike,
        epoch_index: int,
    ) -> MechanismOutcome:
        """Execute one epoch over the cumulative admitted state.

        ``asks``/``tree`` are the frozen snapshot at the epoch close and
        ``seed`` is the pure per-epoch seed
        (:func:`repro.service.epochs.epoch_seed`), so a replay is a pure
        function of ``(stream, root seed)`` for every mechanism.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.mechanism_id!r})"


class RITEpochMechanism(EpochMechanism):
    """RIT behind the arena contract — the incumbent.

    Wraps :class:`repro.core.rit.RIT` exactly as the epoch service runs
    it (:data:`repro.service.service.SERVING_RIT`, voiding instead of
    raising on incomplete epochs), so an arena replay of RIT is
    bit-identical to :func:`repro.service.replay.replay_outcomes` —
    pinned by ``tests/arena/test_protocol.py``.
    """

    mechanism_id = "rit"
    accounting = "cumulative"

    def __init__(self) -> None:
        self._mechanism = RIT(**SERVING_RIT)

    def with_tracer(self, tracer: NullTracer) -> "RITEpochMechanism":
        clone = copy.copy(self)
        clone.tracer = tracer
        clone._mechanism = self._mechanism.with_tracer(tracer)
        return clone

    def run_epoch(
        self,
        job: Job,
        asks: Mapping[int, Ask],
        tree: IncentiveTree,
        seed: SeedLike,
        epoch_index: int,
    ) -> MechanismOutcome:
        return self._mechanism.run(job, asks, tree, seed)


RewardFunction = Callable[[IncentiveTree, Mapping[int, float]], Dict[int, float]]


class RewardRuleMechanism(EpochMechanism):
    """A §4 naive combination promoted behind the arena contract.

    Runs the paper's k-th lowest price auction for the contribution
    layer and feeds the auction payments to ``reward_function`` — i.e.
    exactly the :class:`~repro.baselines.naive_combo.NaiveComboMechanism`
    construction the §4 counterexamples dissect, now addressable from
    the registry (``mit-referral`` / ``lv-moscibroda`` / ``pachira``)
    instead of being hand-wired per example script.
    """

    accounting = "cumulative"

    def __init__(self, mechanism_id: str, reward_function: RewardFunction) -> None:
        self.mechanism_id = mechanism_id
        self.reward_function = reward_function
        self._combo = NaiveComboMechanism(
            auction=KthPriceAuction(), reward_function=reward_function
        )

    def with_tracer(self, tracer: NullTracer) -> "RewardRuleMechanism":
        clone = copy.copy(self)
        clone.tracer = tracer
        clone._combo = self._combo.with_tracer(tracer)  # type: ignore[assignment]
        return clone

    def run_epoch(
        self,
        job: Job,
        asks: Mapping[int, Ask],
        tree: IncentiveTree,
        seed: SeedLike,
        epoch_index: int,
    ) -> MechanismOutcome:
        return self._combo.run(job, asks, tree, seed)
