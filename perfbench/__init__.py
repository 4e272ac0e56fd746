"""Benchmark of the RIT service and offline mechanism (see README.md)."""
