"""The file-local half of ``rit analyze``: parsing, directives and rules.

Seven rules judge one file at a time (``--list-rules`` describes them):

========  =======================  ==========================================
RIT001    unseeded-randomness      no global/unseeded RNG in mechanism paths
RIT002    raw-float-equality       monetary ==/!= must use repro.core.numeric
RIT003    frozen-instance-         no attribute assignment on frozen core
          mutation                 value objects / outcomes
RIT004    export-drift             __all__ matches the bound public surface
RIT005    hidden-inputs            no wall-clock/env reads in repro.core
RIT006    swallowed-exceptions     no bare/pass-only handlers in core+attacks
RIT007    untraced-diagnostics     tracer-only clocks and output in the
                                   instrumented modules
========  =======================  ==========================================

The analyzer (:mod:`repro.devtools.analysis`) parses each file once, runs
these rules over its :class:`FileContext` and caches the findings next to
the file's module summary.  Suppress a single finding with
``# rit: noqa[RIT00X]`` on the offending line.  See
``docs/static_analysis.md`` for per-rule bad/good examples.
"""

from repro.devtools.lint.context import FileContext, build_context, module_for_path
from repro.devtools.lint.model import Finding, Severity
from repro.devtools.lint.rules import FILE_RULES, Rule

__all__ = [
    "FileContext",
    "build_context",
    "module_for_path",
    "Finding",
    "Severity",
    "FILE_RULES",
    "Rule",
]
