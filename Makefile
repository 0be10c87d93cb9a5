# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench bench-check bench-pairs retained experiments experiments-fast docs examples clean all lint lint-fast detcheck scorecard

# Keep in sync with .github/workflows/ci.yml and .pre-commit-config.yaml:
# an unpinned ruff turns toolchain releases into surprise CI failures.
RUFF_VERSION = 0.12.5

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

# Static analysis: detcheck (the in-tree determinism/protocol linter, see
# docs/STATIC_ANALYSIS.md) always runs; ruff runs when installed (the
# container image does not bundle it; CI installs the pinned version).
lint: detcheck
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src scripts benchmarks tests examples; \
	else \
		echo "ruff not installed; skipped (pip install ruff==$(RUFF_VERSION))"; \
	fi

# Pre-commit speed: lint only python files changed vs origin/main (falling
# back to main, then HEAD), plus untracked ones.
lint-fast:
	$(PYTHON) scripts/detcheck.py --changed

detcheck:
	$(PYTHON) scripts/detcheck.py

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ --ignore=tests/properties --ignore=tests/integration

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repository benchmark (bench/README.md): every workload at 1/20 size,
# twice -- correctness, metric names, repeatability.  The full run is
# `python3 bench/run.py`; judge a change with `--compare parent.json change.json`.
bench-check:
	$(PYTHON) bench/run.py --check

# Judge a performance claim (scripts/bench_pairs.py): alternating pairs of
# the parent revision and this tree, workload by workload, e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=rbp_wide
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=all CLAIM=p2p_steady
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=all CLAIM=rbp_wide METRIC=peak_rss_mb
# (the claimed workload must read GAIN, the others only not SLOWER; METRIC
# is a host end-to-end metric of BENCHMARK.json, wall_s when unset).
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py --parent $(PARENT) \
		$(foreach w,$(WORKLOAD),--workload $(w)) $(if $(CLAIM),--claim $(CLAIM)) \
		$(if $(METRIC),--metric $(METRIC))

# Per-site memory census (scripts/retained.py): the allocation sites still
# live at the end of one benchmark workload, at half and at full length,
# with the ones that grow with the run marked, e.g.
#   make retained WORKLOAD=abp_hot_mix
retained:
	$(PYTHON) scripts/retained.py --workload $(WORKLOAD)

experiments:
	$(PYTHON) scripts/run_experiments.py

# Same tables, one pytest process per experiment fanned across cores.
experiments-fast:
	$(PYTHON) scripts/run_experiments.py --jobs 4

docs:
	$(PYTHON) scripts/gen_api_index.py

# The size numbers every PR quotes in CHANGES.md (ROADMAP "Standing").
scorecard:
	$(PYTHON) scripts/scorecard.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/banking.py
	$(PYTHON) examples/inventory.py
	$(PYTHON) examples/failover.py
	$(PYTHON) examples/broadcast_playground.py
	$(PYTHON) examples/trace_anatomy.py

artifacts:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -prune -exec rm -rf {} +

all: install test bench docs
