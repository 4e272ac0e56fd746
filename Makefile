# Convenience targets for the RIT reproduction.

PY ?= python

.PHONY: install test lint analyze typecheck check service-dev perfbench-smoke microbench-smoke trace trace-smoke serve serve-smoke metrics-smoke sentinel sentinel-smoke arena arena-smoke experiment-smoke bench-pytest bench-json smoke paper report examples clean

install:
	pip install -e .

test:
	PYTHONPATH=src $(PY) -m pytest tests/

# ruff runs where installed (an optional dev dependency) and is skipped
# otherwise; the RIT rules run under `make analyze`.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping (pip install -e .[dev])"; \
	fi

# Every RIT rule (file-local RIT001-RIT007, whole-program RIT009-RIT013)
# over src tests benchmarks examples, gated strictly against the committed
# analysis_baseline.json.  Warm runs re-parse only changed files
# (.rit_analysis_cache.json, git-ignored).
analyze:
	PYTHONPATH=src $(PY) -m repro.devtools.analysis --ci

typecheck:
	@if $(PY) -c "import mypy" >/dev/null 2>&1; then \
		PYTHONPATH=src $(PY) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e .[dev])"; \
	fi

# Traced demo run: JSONL event log + span tree + metrics snapshot
# (see docs/observability.md for the schema).
trace:
	PYTHONPATH=src $(PY) -m repro trace --out TRACE_RIT.jsonl

# CI gate: run a traced demo scenario and validate the emitted JSONL
# against the trace schema + span/counter coverage.
trace-smoke:
	PYTHONPATH=src $(PY) -m repro trace --smoke --out /tmp/rit_trace_smoke.jsonl

# Online mechanism service over a seeded stream (docs/service.md);
# every epoch is differential-checked against the offline RIT.run anchor.
serve:
	PYTHONPATH=src $(PY) -m repro serve

# CI gate (<10s): tiny seeded stream -> epoch-batched serve (one RIT.run
# per epoch on a worker thread) -> bit-identity differential vs the
# offline replay.
serve-smoke:
	PYTHONPATH=src $(PY) -m repro serve --smoke

# CI gate (<15s): boot the smoke service with the HTTP telemetry plane on
# an ephemeral port and self-probe /metrics (must round-trip the
# OpenMetrics parser), /healthz, /readyz and /epochs over real TCP.
metrics-smoke:
	PYTHONPATH=src $(PY) -m repro serve --smoke --metrics-port 0 --probe-metrics

# Live-adversary gate (docs/sentinel.md): three clean pinned scenarios
# must stay alert-free, each seeded sybil/collusion/churn injection must
# be flagged by its own detectors within K epochs, every run bit-matches
# the offline replay.
sentinel:
	PYTHONPATH=src $(PY) -m repro sentinel

# CI gate (<10s): one clean scenario + one sybil injection.
sentinel-smoke:
	PYTHONPATH=src $(PY) -m repro sentinel --smoke

# Head-to-head mechanism arena (docs/arena.md): the full registry roster
# (RIT, OMG, GLT, the §4 baselines) replayed over one pinned seeded
# stream, clean + attacked, twice — the scorecard must be bit-identical,
# GLT's budget exact to the cent, and RIT minimal on sybil gain.
arena:
	PYTHONPATH=src $(PY) -m repro arena

# CI gate (<30s): the four-mechanism acceptance roster on a smaller
# stream, same gates.
arena-smoke:
	PYTHONPATH=src $(PY) -m repro arena --smoke

# CI gate (~1s): every paper figure (Figs. 6-9) at smoke scale; each
# shared sweep of Figs. 6-8 runs once.
experiment-smoke:
	PYTHONPATH=src $(PY) -m repro experiment all --scale smoke --seed 1

# The full gate new PRs must pass: ruff + every RIT rule + types +
# tier-1 tests + the frontend and service tests in asyncio debug mode +
# the trace schema smoke + the service
# differential smoke + the live telemetry endpoint smoke + the
# live-adversary sentinel smoke + the head-to-head arena smoke + the
# paper-figure smoke + the benchmark's self-tests + one pass of the CRA,
# ingest, epoch-build and generation microbenchmarks.
check: lint analyze typecheck test service-dev trace-smoke serve-smoke metrics-smoke sentinel-smoke arena-smoke experiment-smoke perfbench-smoke microbench-smoke

# CI gate (~3s): the frontend, service and HTTP tests under -X dev, which
# turns on asyncio's debug mode (never-awaited coroutines, unclosed loops
# and transports), with resource and runtime warnings raised as errors.
# A leak found only when the collector runs surfaces inside pytest as an
# unraisable-exception warning, which is raised as an error too.
service-dev:
	PYTHONPATH=src $(PY) -X dev -W error::ResourceWarning -W error::RuntimeWarning -m pytest \
		-W error::pytest.PytestUnraisableExceptionWarning -q \
		tests/service/test_frontend.py tests/service/test_service.py tests/service/test_http.py

# CI gate (~20s): the benchmark's self-tests.  Their toy presets check the
# pinned outcome digests of all three workloads, so a change to child
# order, BFS order or payment summation order fails here.
perfbench-smoke:
	$(PY) -m pytest perfbench/test_perfbench.py -q

# CI gate (~5s): every CRA, ingest, epoch-build and generation
# microbenchmark case run once, untimed, so a change to the SortedTypePool,
# cra_presorted, frontend, pipeline, histogram, snapshot, social-graph or
# spanning-forest API cannot break them unnoticed.
# TestGenerationMicrobench builds a 20k-user twitter-like graph and its
# spanning forest.  TestIngestMicrobench::test_frontend_full_queue_handoff puts
# 4,096 events through a 1,024-event queue that a consumer drains, so the
# frontend's two waits and its hand-written wake-ups run here too.
microbench-smoke:
	PYTHONPATH=src $(PY) -m pytest benchmarks/test_ablations.py -k Microbench --benchmark-disable -q

# Full pytest-benchmark sweep over benchmarks/.
bench-pytest:
	PYTHONPATH=src $(PY) -m pytest benchmarks/ --benchmark-only

bench-json:
	PYTHONPATH=src $(PY) -m pytest benchmarks/ --benchmark-only --benchmark-json=bench_results.json

smoke:
	PYTHONPATH=src RIT_SCALE=smoke $(PY) -m pytest tests/ benchmarks/ --benchmark-only -q

paper:
	PYTHONPATH=src RIT_SCALE=paper $(PY) -m repro report --out paper_scale_report.md

report:
	PYTHONPATH=src $(PY) -m repro report --out report.md

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PY) $$f; echo; done

# Build output, tool caches and benchmark output (all git-ignored); the
# reports of `make report` / `make paper` stay.
clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis \
		.mypy_cache .ruff_cache .coverage .rit_analysis_cache.json \
		.benchmarks bench_results.json perfbench/_work
