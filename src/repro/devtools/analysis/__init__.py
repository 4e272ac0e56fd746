"""``rit analyze`` — the RIT reproduction's one static-analysis tool.

It parses each file once, runs the file-local rules RIT001–RIT007 over
it (:mod:`repro.devtools.lint`), caches the findings and a module summary
under the file's content hash, links the ``repro.*`` summaries into an
import graph and a conservative name-resolution call graph, and runs
interprocedural dataflow passes:

========  ============================================================
RIT009    blocking call in, or reachable from, a service coroutine
RIT010    ambient RNG taint flowing into mechanism entry points
RIT011    shared mutable module state reachable from worker threads
RIT012    monetary results compared exactly across module boundaries
RIT013    uninstrumented public hot-path functions
========  ============================================================

Layered bottom-up:

``summary``   the per-file step: one parse → summary + file-local findings
``program``   linking: alias resolution, call edges, reachability
``passes``    the five whole-program rules and the one rule table
``cache``     content-hash incremental per-file cache
``baseline``  accepted-findings fingerprints for brownfield adoption
``report``    text / JSON / SARIF reporters
``runner``    one-call orchestration (:func:`analyze_paths`)
``cli``       the ``rit analyze`` front-end
"""

from repro.devtools.analysis.baseline import BASELINE_FILENAME, Baseline
from repro.devtools.analysis.cache import CACHE_FILENAME, SummaryCache
from repro.devtools.analysis.passes import RULES, run_passes
from repro.devtools.analysis.program import Program
from repro.devtools.analysis.runner import AnalysisResult, analyze_paths
from repro.devtools.analysis.summary import FileAnalysis, ModuleSummary, analyze_file

__all__ = [
    "RULES",
    "AnalysisResult",
    "BASELINE_FILENAME",
    "Baseline",
    "CACHE_FILENAME",
    "FileAnalysis",
    "ModuleSummary",
    "Program",
    "SummaryCache",
    "analyze_file",
    "analyze_paths",
    "run_passes",
]
