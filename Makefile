# Convenience targets for the reproduction.

.PHONY: install test bench bench-full bench-record api-check metrics-doc \
        metrics-check verify report perf perf-compare goldens clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only

# The only run that touches tracked files: each trajectory bench appends
# one provenance-stamped row to its BENCH_<name>.json at the repo root
# (benchmarks/conftest.py::record_run).  Plain `make bench` leaves
# `git status` clean.
bench-record:
	pytest benchmarks/ --benchmark-only --record

# One sweep alone: `make <name>-smoke` runs `pytest -m <name>_smoke`.
# The markers are declared in pyproject.toml and all live under tests/,
# so the plain tier-1 `pytest` run already collects every one of them.
# (A pattern rule, so the names are not in .PHONY: make skips implicit
# rules for phony targets, and no file is ever called `chaos-smoke`.)
#
#   chaos       a seeded 3-AZ/6-node chaos run with full invariant
#               checking, small enough for CI (seconds, not minutes)
#   durability  the 20-seed disk-fault chaos sweep over the durability-
#               honesty and no-acked-persisted-loss invariants
#   obs         flight-recorder dump + full-lifecycle trace check on an
#               injected chaos failure (and a clean run's tracer counters)
#   overload    seeded flash-crowd / slow-node sweeps over the admission-
#               control and SLA-controller invariants — no admitted
#               message is ever shed, degraded predicates are restored
#               (docs/overload.md)
#   perf        the five perf/ workloads at a fiftieth of their size,
#               held to the benchmark's own output checks: a src/ change
#               that breaks the measuring stick fails tier-1, not the
#               pipeline (perf/README.md)
#   report      `repro report` as a gate: every declared experiment — the
#               paper's and the repo's own — once at its report scale, one
#               test per checked finding (virtual time and counts only, so
#               deterministic); the findings that are red today are strict
#               xfails (EXPERIMENTS.md, "Checked findings")
#   rebalance   seeded join/leave/failover sweeps plus handcrafted
#               crash-mid-handoff schedules over the rebalance invariants
#               (docs/sharding.md, "Rebalancing & failover")
#   shard       partial-replication invariant runs (docs/sharding.md)
#   strategy    one seeded chaos run per stabilization engine — ACK table,
#               sequencer, hybrid clock — under the full invariant checker
#               (docs/strategies.md)
#   trace       a seeded 3-node run must yield a well-formed chrome trace
#               with at least one complete cross-node span tree, a
#               parseable OpenMetrics exposition, and >= 95% blame
#               attribution at 1/1 sampling (docs/observability.md,
#               "Tracing & attribution")
%-smoke:
	pytest -m $*_smoke

# Public-API gate: the __all__ snapshot test plus a warning-free import
# (`import repro` must never trip a DeprecationWarning).  The snapshot
# suite also fails when a public name is missing from docs/api.md.
api-check:
	pytest tests/test_public_api.py
	python -W error::DeprecationWarning -c "import repro"

# The metric table in docs/observability.md is rendered from
# src/repro/obs/catalogue.py: `metrics-doc` rewrites it in place,
# `metrics-check` is the suite that fails when the checked-in table is
# stale (and when stats() emits a name the catalogue does not declare, or
# the other way round).  (-W: runpy warns that the package imported the
# module it is about to run; the run shares no state with that copy.)
metrics-doc:
	python -W ignore::RuntimeWarning:runpy -m repro.obs.catalogue docs/observability.md

metrics-check:
	pytest tests/obs/test_catalogue.py

# The whole gate in one target.  `test` already collects every *_smoke
# marker, the API snapshot suite and the metric-catalogue suite (they all
# live under tests/); the targets above run one sweep alone.  pyproject.toml's filterwarnings
# makes a DeprecationWarning raised inside repro.* an error there —
# import time included — so nothing is left to add.
verify: test

report:
	python -m repro report

# Rewrite the goldens (tests/golden.py): the exact metrics of the five
# perf/ workloads at smoke scale and the virtual_view of every chaos run
# under tests/chaos/, from the runs tier-1 makes, under hash seed 0.  A
# change that keeps behaviour leaves `git diff tests/goldens` empty; one
# that moves an outcome shows which, to be explained.
goldens:
	PYTHONHASHSEED=0 REPRO_GOLDENS=write pytest tests/bench/test_perf_smoke.py tests/chaos

# The canonical send->stable benchmark (perf/README.md): five workloads
# end to end plus the traced per-layer pass, ~4 min.  The record lands in
# PERF_OUT (git-ignored under perf/results/); a traced run also leaves
# perf/results/trace_<workload>.json with each layer's top functions.
PERF_OUT ?= perf/results/suite-local/run.json
perf:
	mkdir -p $(dir $(PERF_OUT))
	python3 perf/run.py --trace 1 --out $(PERF_OUT)

# Base against candidate, metric by metric against the BENCHMARK.json
# bounds: make perf-compare BASE=parent.json CAND=perf/results/suite-local/run.json
perf-compare:
	@test -n "$(BASE)" -a -n "$(CAND)" || \
	    { echo "usage: make perf-compare BASE=<base.json> CAND=<candidate.json>"; exit 2; }
	python3 perf/compare.py $(BASE) $(CAND)

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results \
	       test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
