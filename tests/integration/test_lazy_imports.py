"""Fresh interpreters import only what they use.

* A served run never imports ``numpy.ma``.  ``np.unique`` and
  ``np.union1d`` import it on their first call in a process (about
  15 ms), which the first epoch of every service run used to pay.  The
  core dedupes with a sort and a neighbour mask instead.
* A run served into an :class:`~repro.service.OutcomeLedger` imports no
  ``repro.simulation`` module: the ledger and the result store share a
  run-id grammar that lives in :mod:`repro.obs.events`.
* The static analyzer imports neither numpy nor ``repro.core``, so it can
  report a broken mechanism module as a parse finding.
* ``import repro.cli`` and building its parser import no numpy: every
  ``rit`` subcommand loads only what its handler uses.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    from repro.core.rit import RIT
    from repro.core.rng import spawn_seeds
    from repro.sentinel.plane import SentinelPlane
    from repro.service import (
        MechanismService, OutcomeLedger, ServiceConfig, build_scenario,
        scenario_event_stream,
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
        sentinel=SentinelPlane(), ledger=OutcomeLedger(sys.argv[1], "run-4"),
    ).serve_stream(events)
    assert len(report.epochs) > 1
    print(json.dumps(sorted(
        name for name in sys.modules
        if name == "numpy.ma" or name.startswith("repro.simulation")
    )))
    """
)

ANALYZER_SCRIPT = textwrap.dedent(
    """
    import sys

    import repro.devtools.analysis.cli

    print(sorted(
        name for name in sys.modules
        if name in ("numpy", "repro.core") or name.startswith("numpy.")
    ))
    """
)


CLI_SCRIPT = textwrap.dedent(
    """
    import sys

    import repro.cli

    repro.cli.build_parser()
    print(sorted(
        name for name in sys.modules
        if name == "numpy" or name.startswith(("numpy.", "repro.simulation"))
    ))
    """
)


def _run(argv, *, src=SRC, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def served_imports(tmp_path_factory):
    """Modules of interest that one served run (with a ledger) imported."""
    ledger_root = tmp_path_factory.mktemp("ledger")
    result = _run(["-c", SCRIPT, str(ledger_root)])
    assert result.returncode == 0, result.stderr
    assert (ledger_root / "run-4" / "epochs.jsonl").exists()
    return json.loads(result.stdout)


def test_run_and_serve_leave_numpy_ma_unimported(served_imports):
    assert "numpy.ma" not in served_imports


def test_served_ledger_leaves_simulation_unimported(served_imports):
    assert served_imports == []


def test_analyzer_leaves_numpy_and_core_unimported():
    result = _run(["-c", ANALYZER_SCRIPT])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_parser_leaves_numpy_unimported():
    result = _run(["-c", CLI_SCRIPT])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_analyzer_reports_a_broken_core_module(tmp_path):
    """A syntax error in the mechanism is a finding, not a crash."""
    shutil.copytree(
        SRC / "repro", tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    broken = tmp_path / "repro" / "core" / "bounds.py"
    broken.write_text(broken.read_text(encoding="utf-8") + "\ndef broken(:\n")
    result = _run(
        ["-m", "repro.devtools.analysis", "--no-cache", "--no-baseline",
         str(broken)],
        src=tmp_path,
        cwd=tmp_path,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert "RIT000" in result.stdout
