"""RIT007 — raw diagnostics and ad-hoc buckets in instrumented modules.

The modules instrumented by :mod:`repro.obs` read time exclusively
through the tracer's injected clock (``tracer.clock`` /
``StageTimers.clock``) and report progress exclusively through spans and
counters.  A direct ``time.*`` call — *including* the monotonic readers
RIT005 permits elsewhere in core — bypasses the injected clock, so traced
and untraced runs would measure different things; a bare ``print(`` is a
diagnostic that escapes the event sink entirely and cannot be replayed or
diffed.  Both must go through the tracer.

Instrumented modules also must not invent histogram bucket boundaries.
The telemetry plane's determinism contract (bit-identical snapshots,
mergeable across runs and workers) holds only because every histogram uses
the fixed boundaries registered in :mod:`repro.obs.metrics`
(``BUCKET_FAMILIES`` / ``bucket_boundaries``).  A locally computed grid
(``np.logspace`` / ``np.geomspace``) or a literal list assigned to a
``*bucket*`` / ``*boundar*`` name silently forks the exposition format
and breaks cross-run comparability, so both are flagged here.

The scope is the instrumented set, module by module (not whole packages):
uninstrumented modules keep the looser RIT005 contract.  The service
state machine and the incentive tree are in it because the live path
runs them on every event and every epoch, and ``repro.service.loadgen``
because every live stream (``rit serve``, the harnesses, the benchmark)
is built there.  Note what is deliberately *outside* the scope:
``repro.service.top`` is an interactive terminal client that
legitimately sleeps between polls, and ``repro.sentinel.harness`` is the
CLI driver for the live-adversary gate.  The arena's
mechanism and replay modules (``repro.arena.protocol`` / ``omg`` /
``glt`` / ``harness``) are *in* scope — scorecard latency is measured on
the tracer clock so reruns stay comparable — while
``repro.arena.registry`` is a pure factory table with nothing to trace.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.context import FileContext
from repro.devtools.lint.imports import ImportMap
from repro.devtools.lint.model import Finding
from repro.devtools.lint.rules.base import Rule

__all__ = ["RawDiagnostics"]

#: Fully-qualified callables that mint a bucket grid on the spot.
_BUCKET_FACTORIES = frozenset({"numpy.logspace", "numpy.geomspace"})


def _is_numeric_sequence(node: ast.AST) -> bool:
    """True for a non-empty list/tuple literal of numeric constants."""
    if not isinstance(node, (ast.List, ast.Tuple)) or not node.elts:
        return False
    for elt in node.elts:
        if isinstance(elt, ast.UnaryOp) and isinstance(
            elt.op, (ast.UAdd, ast.USub)
        ):
            elt = elt.operand
        if not (
            isinstance(elt, ast.Constant)
            and isinstance(elt.value, (int, float))
            and not isinstance(elt.value, bool)
        ):
            return False
    return True


def _bucketish(name: str) -> bool:
    lowered = name.lower()
    return "bucket" in lowered or "boundar" in lowered


class RawDiagnostics(Rule):
    id = "RIT007"
    name = "untraced-diagnostics"
    rationale = (
        "instrumented modules must read time via the tracer's injected "
        "clock, emit diagnostics via spans/counters (never time.* or "
        "print()), and take histogram boundaries from the "
        "repro.obs.metrics registry"
    )
    scopes = (
        "repro.core.rit",
        "repro.core.engine",
        "repro.core.cra",
        "repro.core.payments",
        "repro.tree.incentive_tree",
        "repro.attacks.evaluator",
        "repro.simulation.runner",
        "repro.simulation.parallel",
        "repro.simulation.report",
        "repro.service.frontend",
        "repro.service.state",
        "repro.service.epochs",
        "repro.service.workers",
        "repro.service.service",
        "repro.service.telemetry",
        "repro.service.loadgen",
        "repro.sentinel.attacks",
        "repro.sentinel.detectors",
        "repro.sentinel.plane",
        "repro.sentinel.reputation",
        "repro.arena.protocol",
        "repro.arena.omg",
        "repro.arena.glt",
        "repro.arena.harness",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap.collect(ctx.tree)
        yield from self._visit(ctx, ctx.tree, imports)

    def _visit(
        self, ctx: FileContext, node: ast.AST, imports: ImportMap
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                names = [
                    t.id if isinstance(t, ast.Name) else t.attr
                    for t in targets
                    if isinstance(t, (ast.Name, ast.Attribute))
                ]
                if (
                    child.value is not None
                    and any(_bucketish(n) for n in names)
                    and _is_numeric_sequence(child.value)
                ):
                    yield self.finding(
                        ctx,
                        child,
                        "ad-hoc histogram bucket literal; boundaries must "
                        "come from the repro.obs.metrics registry "
                        "(bucket_boundaries / BUCKET_FAMILIES) so "
                        "snapshots stay mergeable and bit-comparable",
                    )
            if isinstance(child, ast.Call) and isinstance(
                child.func, (ast.Attribute, ast.Name)
            ):
                resolved_call = imports.resolve(child.func)
                if resolved_call in _BUCKET_FACTORIES:
                    yield self.finding(
                        ctx,
                        child,
                        f"'{resolved_call}' mints an ad-hoc bucket grid; "
                        "use repro.obs.metrics.bucket_boundaries / "
                        "new_histogram so every emitter shares the fixed "
                        "registered boundaries",
                    )
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "print"
            ):
                yield self.finding(
                    ctx,
                    child,
                    "print() bypasses the trace sink; emit a span/counter "
                    "via the tracer (or log from an uninstrumented module)",
                )
                # Still walk the arguments — they may hide a time.* read.
            if isinstance(child, (ast.Attribute, ast.Name)):
                resolved = imports.resolve(child)
                if resolved and (
                    resolved == "time" or resolved.startswith("time.")
                ):
                    yield self.finding(
                        ctx,
                        child,
                        f"'{resolved}' bypasses the injected monotonic "
                        "clock; read time via tracer.clock / "
                        "StageTimers.clock instead",
                    )
                    continue  # don't double-report the inner chain
            yield from self._visit(ctx, child, imports)
