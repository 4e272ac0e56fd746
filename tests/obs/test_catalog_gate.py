"""Catalog-drift self-gate: emitters, docs and catalogs cannot diverge.

Three invariants:

* every counter name passed to ``.count(...)`` anywhere in the source
  and test trees resolves through ``describe_counter`` — an emitter
  cannot invent a counter the schema validator would reject;
* every metric name passed to ``.observe(...)`` resolves through
  ``describe_metric``;
* the counter table committed in ``docs/observability.md`` equals the
  generated ``catalog_markdown_table()`` output exactly.

Call sites are found by parsing each file, so a name on a continuation
line of a multi-line call is checked like any other.
"""

import ast
from pathlib import Path

from repro.obs.catalog import catalog_markdown_table, describe_counter
from repro.obs.metrics import describe_metric

REPO = Path(__file__).resolve().parents[2]


def _names(expr):
    """The name, or literal prefix, each value of ``expr`` can take.

    A literal is checked whole; a computed name (``f"prefix/{x}"`` or
    ``"prefix/" + x``) by its literal prefix, which must resolve as a
    family; both branches of a conditional are checked.  Anything else
    (a variable) cannot be checked statically.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return [expr.value]
    if isinstance(expr, ast.JoinedStr):
        prefix = ""
        for part in expr.values:
            if not isinstance(part, ast.Constant):
                break
            prefix += part.value
        return [prefix]
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        left = expr.left
        if isinstance(left, ast.Constant) and isinstance(left.value, str):
            return [left.value]
        return _names(left)
    if isinstance(expr, ast.IfExp):
        return _names(expr.body) + _names(expr.orelse)
    return []


def call_names(tree, method):
    """[(line, name)] for every ``.<method>(name, ...)`` call in ``tree``.

    Plain ``str.count``/``list.count`` calls are filtered out by requiring
    an underscore or slash in the name (every cataloged name has one).
    """
    hits = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and node.args
        ):
            continue
        for name in _names(node.args[0]):
            if "_" in name or "/" in name:
                hits.append((node.lineno, name))
    return hits


def name_literals(method):
    """{(path, line, name)} for every ``.<method>(...)`` call site under
    src, tests, benchmarks and examples, wherever the name argument sits."""
    hits = []
    for root in ("src", "tests", "benchmarks", "examples"):
        base = REPO / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if "fixtures" in path.parts:
                continue  # rule fixtures deliberately contain bad code
            tree = ast.parse(path.read_text(), filename=str(path))
            rel = str(path.relative_to(REPO))
            hits.extend((rel, line, name) for line, name in call_names(tree, method))
    return hits


def uncataloged(hits, describe):
    """The hits whose name (the last field) ``describe`` does not know."""
    return [hit for hit in hits if describe(hit[-1]) is None]


class TestCatalogGate:
    def test_every_emitted_counter_is_cataloged(self):
        hits = name_literals("count")
        assert hits, "scanner found no .count() call sites"
        missing = uncataloged(hits, describe_counter)
        assert not missing, (
            "counter names outside COUNTER_CATALOG/COUNTER_FAMILIES: "
            f"{missing}"
        )

    def test_every_observed_metric_is_cataloged(self):
        hits = name_literals("observe")
        assert hits, "scanner found no .observe() call sites"
        missing = uncataloged(hits, describe_metric)
        assert not missing, (
            "metric names outside METRIC_CATALOG/METRIC_FAMILIES: "
            f"{missing}"
        )

    def test_docs_table_matches_generated(self):
        doc = (REPO / "docs" / "observability.md").read_text()
        begin = "<!-- COUNTER_CATALOG:begin -->"
        end = "<!-- COUNTER_CATALOG:end -->"
        assert begin in doc and end in doc, "catalog markers missing from doc"
        embedded = doc.split(begin, 1)[1].split(end, 1)[0].strip()
        assert embedded == catalog_markdown_table(), (
            "docs/observability.md counter table drifted from "
            "catalog_markdown_table(); regenerate the block between the "
            "COUNTER_CATALOG markers"
        )

    def test_table_covers_whole_catalog(self):
        table = catalog_markdown_table()
        from repro.obs.catalog import COUNTER_CATALOG, COUNTER_FAMILIES

        for name in COUNTER_CATALOG:
            assert f"`{name}`" in table
        for prefix in COUNTER_FAMILIES:
            assert f"`{prefix}*`" in table

    def test_uncataloged_name_in_a_multi_line_call_fails_the_gate(self):
        tree = ast.parse(
            "tracer.count(\n"
            "    'no_such_counter_total', 1\n"
            ")\n"
            "tracer.count(\n"
            "    'stage_seconds/' + stage, seconds, unit='seconds'\n"
            ")\n"
            "tracer.count('cra_rounds')\n"
            "text.count('a')\n"
            "tracer.observe(\n"
            "    'epoch_batch_events' if closed else 'no_such_metric', n\n"
            ")\n"
        )
        counts = call_names(tree, "count")
        assert sorted(counts) == [
            (1, "no_such_counter_total"),
            (4, "stage_seconds/"),
            (7, "cra_rounds"),
        ]
        assert sorted(uncataloged(counts, describe_counter)) == [
            (1, "no_such_counter_total"),
            (4, "stage_seconds/"),
        ]
        observed = call_names(tree, "observe")
        assert uncataloged(observed, describe_metric) == [(9, "no_such_metric")]
