"""Interprocedural dataflow passes RIT009–RIT013, and the one rule table.

Each pass consumes a linked :class:`~repro.devtools.analysis.program.Program`
and yields :class:`~repro.devtools.lint.model.Finding` objects, so every
rule shares reporters, sorting, baseline and suppression semantics.  The
division of labour against the file-local rules:

=======  ==================================================================
RIT009   blocking call in a service coroutine's body or in any function
         reachable from one
RIT010   ambient/unseeded RNG in a module *other than* the mechanism entry
         point that reaches it (same-module ambiance is RIT001's job)
RIT011   module-level mutable state read+written by code reachable from
         concurrent worker threads, without a ``# rit: owner=`` marker;
         also validates that declared owners name a known role from
         :data:`OWNER_ROLES` (a typo'd role would silently disable the
         race check)
RIT012   ``==``/``!=`` on the monetary result of a *cross-module* call
         whose local name carries no money word (else RIT002 fires)
RIT013   public hot-path function with no tracer span, neither direct nor
         via any resolvable callee
=======  ==================================================================

Suppression: a ``# rit: noqa[RIT0xx]`` on the reported line works exactly
as for the file-local rules (statement-span expanded at parse time).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.devtools.analysis.program import Program, Reached
from repro.devtools.analysis.summary import ModuleSummary
from repro.devtools.lint.model import Finding, Severity
from repro.devtools.lint.rules import FILE_RULES, Rule
from repro.devtools.lint.rules.rit002_float_eq import MONETARY_WORDS

__all__ = [
    "RULES",
    "HOT_MODULES",
    "CONCURRENT_ROOT_MODULES",
    "CONCURRENT_ROOT_FUNCTIONS",
    "OWNER_ROLES",
    "run_passes",
]

#: Modules whose public functions are mechanism entry points (RIT010).
_ENTRY_PREFIXES = ("repro.core", "repro.service")

#: Modules on the measured hot path (RIT013).
HOT_MODULES = (
    "repro.core.rit",
    "repro.core.engine",
    "repro.core.cra",
    "repro.core.columnar",
    "repro.core.payments",
    "repro.service.workers",
    "repro.service.epochs",
    "repro.service.service",
    "repro.sentinel.plane",
    "repro.arena.omg",
    "repro.arena.glt",
    "repro.arena.harness",
)

#: Minimum body size before RIT013 demands instrumentation.
_HOT_MIN_STATEMENTS = 8

#: Every function in these modules runs on worker threads (RIT011).
CONCURRENT_ROOT_MODULES = ("repro.service.workers",)

#: Specific functions dispatched to worker threads from elsewhere.  The
#: service runs each epoch's ``RIT.run`` on a worker while the loop keeps
#: admitting events.  An ask profile hands each shard a fork of one of
#: its frozen per-type pools (shared read-only arrays, private
#: capacities), and runs over one profile may execute on several
#: threads, so everything reachable from ``pool()`` runs concurrently.
CONCURRENT_ROOT_FUNCTIONS = (
    "repro.core.rit.RIT.run",
    "repro.core.rit.RIT.run_type_shard",
    "repro.core.columnar.AskProfile.pool",
)

#: Recognised single-writer roles for ``# rit: owner=<role>`` markers.
#: ``epoch`` is the frozen-array convention: state built once (per
#: profile, or per epoch snapshot) before any worker thread can observe
#: it, then treated as immutable (``AskProfile`` and ``StateSnapshot``
#: enforce this with ``writeable=False`` arrays; per-run mutable capacity
#: lives in each shard's pool fork).
OWNER_ROLES = ("main-thread", "import-time-only", "epoch")

#: Every rule, id → (name, rationale): what ``--list-rules`` prints,
#: ``--select``/``--ignore`` accept and the SARIF report declares.
RULES: Dict[str, Tuple[str, str]] = {
    **{rule.id: (rule.name, rule.rationale) for rule in FILE_RULES},
    "RIT009": (
        "reachable-blocking",
        "a blocking call in a coroutine, or anywhere in its call graph, "
        "stalls the whole service event loop; blocking work belongs in the "
        "executor thread pool",
    ),
    "RIT010": (
        "rng-taint",
        "ambient RNG reached through a mechanism entry point makes runs "
        "irreproducible even when the entry module itself is clean",
    ),
    "RIT011": (
        "shared-mutable-state",
        "module-level mutable state touched from worker threads races "
        "unless a single owner is declared",
    ),
    "RIT012": (
        "money-compare-boundary",
        "exact equality on monetary values crossing a module boundary "
        "defeats the tolerant-comparison discipline of repro.core.numeric",
    ),
    "RIT013": (
        "missing-obs-span",
        "public hot-path functions without tracer spans are invisible to "
        "the run-scoped metrics layer",
    ),
}


def _chain_text(reached: Dict[str, Reached], qualname: str) -> str:
    return " -> ".join(Program.chain(reached, qualname))


def _finding(
    summary: ModuleSummary,
    rule_id: str,
    line: int,
    col: int,
    message: str,
    severity: Severity = Severity.ERROR,
) -> Finding:
    return Finding(
        path=summary.path,
        line=line,
        column=col,
        rule_id=rule_id,
        message=message,
        severity=severity,
    )


def _emit(
    summary: ModuleSummary, finding: Finding, out: List[Finding]
) -> None:
    if not summary.is_suppressed(finding.line, finding.rule_id):
        out.append(finding)


def _is_money_name(identifier: str) -> bool:
    return any(word in MONETARY_WORDS for word in Rule.words(identifier))


# ---------------------------------------------------------------------- #
# RIT009 — blocking calls in, or reachable from, service coroutines
# ---------------------------------------------------------------------- #


def pass_rit009(program: Program) -> List[Finding]:
    roots = [
        info.qualname
        for info in program.functions_in("repro.service")
        if info.is_async
    ]
    reached = program.reachable(sorted(roots))
    out: List[Finding] = []
    for qualname in sorted(reached):
        info = program.functions[qualname]
        summary = program.summary_for(qualname)
        if summary is None:
            continue
        for op in info.blocking:
            _emit(
                summary,
                _finding(
                    summary,
                    "RIT009",
                    op.line,
                    op.col,
                    f"blocking call '{op.name}' runs on the event loop via "
                    f"{_chain_text(reached, qualname)}; {op.detail}",
                ),
                out,
            )
    return out


# ---------------------------------------------------------------------- #
# RIT010 — ambient RNG taint flowing into mechanism entry points
# ---------------------------------------------------------------------- #


def pass_rit010(program: Program) -> List[Finding]:
    roots = sorted(
        info.qualname
        for info in program.functions_in(*_ENTRY_PREFIXES)
        if info.is_public and not info.nested and info.name != "<module>"
    )
    reached = program.reachable(roots)
    out: List[Finding] = []
    for qualname in sorted(reached):
        node = reached[qualname]
        if node.depth == 0:
            continue
        info = program.functions[qualname]
        if not info.ambient_rng:
            continue
        summary = program.summary_for(qualname)
        root_module = program.function_module.get(node.root)
        if summary is None or summary.module == root_module:
            continue  # same-module ambiance: RIT001's (file-local) job
        for op in info.ambient_rng:
            _emit(
                summary,
                _finding(
                    summary,
                    "RIT010",
                    op.line,
                    op.col,
                    f"ambient RNG '{op.name}' ({op.detail}) taints mechanism "
                    f"entry point '{node.root}' via "
                    f"{_chain_text(reached, qualname)}; thread a "
                    "seeded np.random.Generator through instead",
                ),
                out,
            )
    return out


# ---------------------------------------------------------------------- #
# RIT011 — shared mutable module state reachable from worker threads
# ---------------------------------------------------------------------- #


def pass_rit011(program: Program) -> List[Finding]:
    roots = [
        info.qualname
        for info in program.functions_in(*CONCURRENT_ROOT_MODULES)
        if info.name != "<module>"
    ]
    roots.extend(q for q in CONCURRENT_ROOT_FUNCTIONS if q in program.functions)
    reached = program.reachable(sorted(roots))
    out: List[Finding] = []
    for module in sorted(program.modules):
        summary = program.modules[module]
        for g in summary.mutable_globals:
            if g.owner is None or g.owner in OWNER_ROLES:
                continue
            _emit(
                summary,
                _finding(
                    summary,
                    "RIT011",
                    g.line,
                    g.col,
                    f"ownership marker on '{g.name}' declares unknown role "
                    f"'{g.owner}' (known roles: {', '.join(OWNER_ROLES)}); "
                    "a typo'd role silently disables the race check",
                ),
                out,
            )
        unowned = {
            g.name: g for g in summary.mutable_globals if g.owner is None
        }
        if not unowned:
            continue
        reachable_here = [
            info
            for info in summary.functions
            if info.qualname in reached and info.name != "<module>"
        ]
        read_names = set()
        for info in reachable_here:
            read_names.update(info.global_reads)
        reported = set()
        for info in reachable_here:
            for write in info.global_writes:
                name = write.name
                if name not in unowned or name not in read_names:
                    continue
                if name in reported:
                    continue
                reported.add(name)
                _emit(
                    summary,
                    _finding(
                        summary,
                        "RIT011",
                        write.line,
                        write.col,
                        f"module-level mutable '{name}' is read and written "
                        "by code reachable from concurrent worker threads "
                        f"(via {_chain_text(reached, info.qualname)}); "
                        "add a lock, pass state explicitly, or declare a "
                        "single owner with '# rit: owner=<who>' on its "
                        "definition",
                    ),
                    out,
                )
    return out


# ---------------------------------------------------------------------- #
# RIT012 — monetary values compared exactly across module boundaries
# ---------------------------------------------------------------------- #


def pass_rit012(program: Program) -> List[Finding]:
    out: List[Finding] = []
    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        if not info.money_compares:
            continue
        summary = program.summary_for(qualname)
        if summary is None or summary.module == "repro.core.numeric":
            continue
        for compare in info.money_compares:
            if _is_money_name(compare.callee_name):
                continue  # the local name says "money": RIT002's job
            for callee in program.resolve_target(compare.target):
                callee_info = program.functions.get(callee)
                if callee_info is None or not callee_info.returns_money:
                    continue
                callee_module = program.function_module.get(callee)
                if callee_module == summary.module:
                    continue
                _emit(
                    summary,
                    _finding(
                        summary,
                        "RIT012",
                        compare.line,
                        compare.col,
                        f"exact equality on the monetary result of "
                        f"'{callee}' (defined in {callee_module}); float "
                        "money must be compared with repro.core.numeric "
                        "helpers",
                    ),
                    out,
                )
                break  # one finding per compare site
    return out


# ---------------------------------------------------------------------- #
# RIT013 — uninstrumented public hot-path functions
# ---------------------------------------------------------------------- #


def pass_rit013(program: Program) -> List[Finding]:
    closure = program.tracer_closure()
    out: List[Finding] = []
    for info in program.functions_in(*HOT_MODULES):
        if (
            not info.is_public
            or info.nested
            or info.name == "<module>"
            or info.name.startswith("__")
            or info.statements < _HOT_MIN_STATEMENTS
        ):
            continue
        if info.qualname in closure:
            continue
        summary = program.summary_for(info.qualname)
        if summary is None:
            continue
        _emit(
            summary,
            _finding(
                summary,
                "RIT013",
                info.line,
                info.col,
                f"public hot-path function '{info.qualname}' "
                f"({info.statements} statements) never reaches a tracer "
                "span; wrap the work in tracer.span(...)/count(...) or "
                "justify with a noqa",
                severity=Severity.WARNING,
            ),
            out,
        )
    return out


_PASSES = (pass_rit009, pass_rit010, pass_rit011, pass_rit012, pass_rit013)


def run_passes(program: Program) -> List[Finding]:
    """Run every interprocedural pass; findings come back sorted."""
    findings: List[Finding] = []
    for analysis_pass in _PASSES:
        findings.extend(analysis_pass(program))
    return sorted(findings, key=lambda f: f.sort_key)
