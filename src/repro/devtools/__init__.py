"""Developer tooling for the RIT reproduction.

``repro.devtools`` hosts machinery that checks the *codebase* rather than
the mechanism: the ``rit analyze`` static analyzer
(:mod:`repro.devtools.analysis`, with its file-local rules in
:mod:`repro.devtools.lint`), which enforces the repository's correctness
invariants — threaded RNG, tolerant monetary comparison, frozen outcomes,
export hygiene, deterministic core, explicit error handling, a
non-blocking event loop — on every source tree it is pointed at; plus
the trace schema.

Nothing in this package is imported by the mechanism code; the analyzer
depends only on the standard library so it can check a broken tree.
"""

from repro.devtools.analysis import AnalysisResult, analyze_paths
from repro.devtools.lint.model import Finding

__all__ = ["AnalysisResult", "Finding", "analyze_paths"]
