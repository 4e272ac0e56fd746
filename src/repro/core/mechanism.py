"""Abstract mechanism interface shared by RIT and the baselines.

A *mechanism* maps a crowdsensing scenario — a job, a sealed ask profile,
and the incentive tree recorded during solicitation — to a
:class:`~repro.core.outcome.MechanismOutcome`.  Keeping RIT and every
baseline behind the same interface lets the simulation harness, the attack
evaluator and the property checkers treat them uniformly.
"""

from __future__ import annotations

import abc
import copy
from typing import Mapping, TypeVar

from repro.core.outcome import MechanismOutcome
from repro.core.rng import SeedLike
from repro.core.types import Ask, Job
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.tree.incentive_tree import IncentiveTree

__all__ = ["Mechanism"]

_M = TypeVar("_M", bound="Mechanism")


class Mechanism(abc.ABC):
    """Interface for crowdsensing incentive mechanisms.

    Implementations must be *stateless across runs*: all randomness flows
    through the ``rng`` argument so that scenario comparisons (honest vs
    attacked) can replay identical coin flips.
    """

    #: Human-readable mechanism name, used in reports and benchmarks.
    name: str = "mechanism"

    #: Observability sink (see :mod:`repro.obs`).  The class-level default
    #: is the shared no-op tracer, so uninstrumented mechanisms and
    #: tracer-less runs stay zero-overhead; inject a recording tracer per
    #: run with :meth:`with_tracer`.
    tracer: NullTracer = NULL_TRACER

    def with_tracer(self: _M, tracer: NullTracer) -> _M:
        """A shallow copy of this mechanism emitting into ``tracer``.

        Mechanisms are stateless across runs, so a shallow copy sharing
        every configuration attribute is safe; the original instance is
        left untouched (its runs keep the no-op default).
        """
        clone = copy.copy(self)
        clone.tracer = tracer
        return clone

    @abc.abstractmethod
    def run(
        self,
        job: Job,
        asks: Mapping[int, Ask],
        tree: IncentiveTree,
        rng: SeedLike = None,
    ) -> MechanismOutcome:
        """Execute the mechanism on one scenario.

        Parameters
        ----------
        job:
            The sensing job ``J`` (``m_i`` tasks per type).
        asks:
            Sealed ask profile ``{participant_id: (t, k, a)}``.  Every key
            must be a node of ``tree``.
        tree:
            The incentive tree recorded at the end of solicitation.
        rng:
            Seed or generator for all mechanism-internal randomness.

        Returns
        -------
        MechanismOutcome
            Allocation, auction payments and final payments.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
