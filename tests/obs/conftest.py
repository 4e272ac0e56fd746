"""Shared fixtures of the observability tests."""

import pytest

from repro.obs.catalog import COUNTER_CATALOG


@pytest.fixture()
def bytes_counter(monkeypatch):
    """Name of a ``bytes``-unit counter, cataloged for the test's duration.

    No production emitter counts bytes, but the tracer, the schema
    validator and the exporters all support the unit; tests of that
    support count under this name.
    """
    name = "probe_bytes"
    monkeypatch.setitem(COUNTER_CATALOG, name, ("bytes", "test probe footprint"))
    return name
