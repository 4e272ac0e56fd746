"""Recompute the pinned output digests in ``pins.json``.

The digests come from the *offline* path, not from the service: a live
workload's digest is the hash of ``replay_outcomes`` over the generated
stream, and an offline run's digest is the hash of a plain ``RIT.run``.
A benchmark run then checks the served outputs against them.

Usage, from the repository root::

    python3 perfbench/pin.py --seeds 0-15
    python3 perfbench/pin.py --toy --seeds 0-3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Offline runs pinned per seed; a run past this count is only audited.
OFFLINE_RUNS = 48


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.checks import PINS_PATH, RUN_DIGEST_HEX, load_pins, outcome_digest, stream_digest
    from perfbench.inputs import PRESETS, OfflinePreset, make_inputs, preset_for
    from repro.core.rit import RIT
    from repro.service.epochs import EpochPolicy
    from repro.service.replay import replay_outcomes

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-15"))
    parser.add_argument("--workload", action="append", choices=tuple(PRESETS))
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    pins = load_pins()
    for workload in args.workload or PRESETS:
        preset = preset_for(workload, toy=args.toy)
        table = pins.setdefault(preset.name, {})
        for seed in args.seeds:
            inputs = make_inputs(preset, seed)
            if isinstance(preset, OfflinePreset):
                mechanism = RIT(round_budget="until-complete")
                table[str(seed)] = [
                    outcome_digest(
                        mechanism.run(inputs.job, inputs.asks, inputs.tree, inputs.run_seed(run))
                    )[:RUN_DIGEST_HEX]
                    for run in range(OFFLINE_RUNS)
                ]
            else:
                replayed = replay_outcomes(
                    inputs.events,
                    inputs.job,
                    RIT(rng_policy="per-type", round_budget="until-complete"),
                    seed=seed,
                    policy=EpochPolicy(max_events=preset.epoch_events),
                )
                table[str(seed)] = stream_digest(outcome for _, outcome in replayed)
            print(f"{preset.name} seed {seed}: pinned", flush=True)
        pins[preset.name] = dict(sorted(table.items(), key=lambda item: int(item[0])))
        PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
