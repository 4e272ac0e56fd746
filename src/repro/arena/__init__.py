"""Mechanism zoo + head-to-head arena (see ``docs/arena.md``).

The paper's claim is comparative — RIT is *robust* where naive
auction+tree combinations fail — so this package turns the reproduction
into a comparison platform:

* :mod:`repro.arena.protocol` — the frozen :class:`EpochMechanism`
  contract every rival satisfies, plus adapters wrapping RIT and the
  §4 baseline reward rules;
* :mod:`repro.arena.omg` — OMG's truthful online-arrival mechanism with
  stage-released budgets (arXiv:1306.5677);
* :mod:`repro.arena.glt` — budget-consistent generalized-lottery-tree
  rewards with exact integer-cent apportionment (arXiv:1812.09433);
* :mod:`repro.arena.registry` — the name → mechanism factory table
  behind ``rit arena --mechanisms``;
* :mod:`repro.arena.harness` — replays one seeded loadgen stream (clean
  + attacked) through every registered mechanism under identical epoch
  cuts, emits the deterministic scorecard and gates it
  (:func:`~repro.arena.harness.arena_problems`).
"""

from repro.arena.glt import LotteryTreeMechanism
from repro.arena.harness import (
    ARENA_BENCH_PRESET,
    ARENA_SMOKE_PRESET,
    ArenaConfig,
    arena_problems,
    canonical_scorecard,
    render_arena_report,
    replay_stream,
    run_arena,
    run_arena_report,
    stream_fingerprint,
)
from repro.arena.omg import OMGMechanism
from repro.arena.protocol import (
    ACCOUNTING_MODES,
    EpochMechanism,
    RewardRuleMechanism,
    RITEpochMechanism,
)
from repro.arena.registry import (
    MECHANISM_NAMES,
    available_mechanisms,
    create_mechanism,
)

__all__ = [
    "ACCOUNTING_MODES",
    "ARENA_BENCH_PRESET",
    "ARENA_SMOKE_PRESET",
    "ArenaConfig",
    "EpochMechanism",
    "LotteryTreeMechanism",
    "MECHANISM_NAMES",
    "OMGMechanism",
    "RITEpochMechanism",
    "RewardRuleMechanism",
    "arena_problems",
    "available_mechanisms",
    "canonical_scorecard",
    "create_mechanism",
    "render_arena_report",
    "replay_stream",
    "run_arena",
    "run_arena_report",
    "stream_fingerprint",
]
