"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload live-paced --seed 0 --seconds 15 --trace 0

Prints every metric with its unit, the operations attempted and failed,
the output-check verdict, and as its last line one JSON object.  Exits 2
without a result when the program's sources (``src/``) are missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-scale preset of the workload")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro  # noqa: F401
    except ImportError as err:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    from perfbench.harness import run
    from perfbench.inputs import PRESETS

    return run(parse_args(argv, tuple(PRESETS)))


if __name__ == "__main__":
    sys.exit(main())
