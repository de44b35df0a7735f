PYTHON ?= python

.PHONY: lint test coverage smoke bench-pairs profile

# Static-analysis gate (see docs/STATIC_ANALYSIS.md).  mypy is optional
# locally — CI always runs it; here it is skipped when not installed.
lint:
	$(PYTHON) -m compileall -q src tools
	$(PYTHON) -m tools.reprolint src tests benchmarks
	PYTHONPATH=src $(PYTHON) -m tools.apicheck
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping strict type check (CI runs it)"; \
	fi

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Local, dependency-free mirror of CI's pytest-cov gate (slower: every
# line event is traced).  CI enforces the same floor via pytest-cov.
coverage:
	PYTHONPATH=src $(PYTHON) -m tools.checkcov --fail-under 93

smoke:
	PYTHONPATH=src $(PYTHON) -m repro run --smoke

# Interleaved benchmark pairs, BASE revision against the working tree
# (the procedure every performance claim needs; see tools/benchpairs.py):
#   make bench-pairs BASE=HEAD~1 WORKLOAD=miss_heavy N=10 [SEED=1998]
# Without WORKLOAD every workload of BENCHMARK.json runs.
N ?= 10
SEED ?= 1998
bench-pairs:
	$(PYTHON) -m tools.benchpairs --base $(BASE) --pairs $(N) --seed $(SEED) \
		$(if $(WORKLOAD),--workload $(WORKLOAD))

# Where one benchmark workload spends its time: its driver under cProfile,
# with the untraced qps beside the table, or (PHASE=setup) RUNS calls of
# its set-up, with the median set-up wall beside the table, or
# (PHASE=backend) RUNS timed replays of the drive's compute_chunks calls
# on a cold backend, with the pages read and a digest of every chunk
# (see tools/benchprofile.py):
#   make profile WORKLOAD=miss_heavy [PHASE=setup|backend] [RUNS=5]
#       [SORT=cumulative] [TOP=40] [SEED=1998]
SORT ?= tottime
TOP ?= 25
PHASE ?= driver
RUNS ?= 5
profile:
	$(PYTHON) -m tools.benchprofile --workload $(WORKLOAD) --phase $(PHASE) \
		--runs $(RUNS) --sort $(SORT) --top $(TOP) --seed $(SEED)
