"""Name → mechanism factory table behind ``rit arena --mechanisms``.

The registry is the only place that knows how to build each rival with
its arena-default parameters; everything else (harness, CLI, examples)
addresses mechanisms by these names.  Factories return a *new* instance
per call so arena replays never share state across mechanisms or runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.arena.glt import LotteryTreeMechanism
from repro.arena.omg import OMGMechanism
from repro.arena.protocol import EpochMechanism, RewardRuleMechanism, RITEpochMechanism
from repro.baselines import (
    lv_moscibroda_rewards,
    mit_referral_rewards,
    pachira_style_rewards,
)
from repro.core.exceptions import ConfigurationError

__all__ = ["MECHANISM_NAMES", "available_mechanisms", "create_mechanism"]


_FACTORIES: Dict[str, Callable[[], EpochMechanism]] = {
    "rit": RITEpochMechanism,
    "omg": OMGMechanism,
    "glt": LotteryTreeMechanism,
    "mit-referral": lambda: RewardRuleMechanism("mit-referral", mit_referral_rewards),
    "lv-moscibroda": lambda: RewardRuleMechanism("lv-moscibroda", lv_moscibroda_rewards),
    "pachira": lambda: RewardRuleMechanism("pachira", pachira_style_rewards),
}

#: Stable registry order: incumbent first, the two first-class rivals,
#: then the §4 reward-rule baselines.  Scorecards and CLI choices follow
#: this order, so it is part of the determinism contract.
MECHANISM_NAMES: Tuple[str, ...] = (
    "rit",
    "omg",
    "glt",
    "mit-referral",
    "lv-moscibroda",
    "pachira",
)


def available_mechanisms() -> Tuple[str, ...]:
    """Registry names in their stable scorecard order."""
    return MECHANISM_NAMES


def create_mechanism(name: str) -> EpochMechanism:
    """Build a fresh arena mechanism by registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(MECHANISM_NAMES)
        raise ConfigurationError(
            f"unknown mechanism {name!r}; registered mechanisms: {known}"
        ) from None
    return factory()
