"""A served run never imports ``numpy.ma``.

``np.unique`` and ``np.union1d`` import ``numpy.ma`` on their first call
in a process (about 15 ms), which the first epoch of every service run
used to pay.  The core dedupes with a sort and a neighbour mask instead;
this checks a fresh interpreter end to end.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.core.rit import RIT
    from repro.core.rng import spawn_seeds
    from repro.sentinel.plane import SentinelPlane
    from repro.service import (
        MechanismService, ServiceConfig, build_scenario, scenario_event_stream,
    )

    scenario_rng, stream_rng = spawn_seeds(4, 2)
    scenario = build_scenario(120, 3, 5, scenario_rng)
    mechanism = RIT(
        rng_policy="per-type", round_budget="until-complete",
        raise_on_failure=False,
    )
    outcome = mechanism.run(scenario.job, scenario.truthful_asks(), scenario.tree, 4)
    assert outcome.payments, "the offline run paid nobody"
    events = scenario_event_stream(scenario, stream_rng, withdraw_fraction=0.1)
    report = MechanismService(
        mechanism, scenario.job, ServiceConfig(seed=4, epoch_max_events=32),
        sentinel=SentinelPlane(),
    ).serve_stream(events)
    assert len(report.epochs) > 1
    print("numpy.ma" in sys.modules)
    """
)


def test_run_and_serve_leave_numpy_ma_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
