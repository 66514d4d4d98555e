# Convenience targets for the reproduction repository.

.PHONY: install test lint lint-fast bench serve bench-serve experiments experiments-full artifacts examples clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# The repo-aware analyzer needs only the package itself; mypy and ruff
# run when installed (pip install -e .[lint]) and are skipped otherwise
# so the target works in minimal environments.  CI always runs all
# three.
lint:
	python -m repro lint src/ tests/
	@if command -v mypy >/dev/null 2>&1; then mypy --strict src/repro/; \
	    else echo "mypy not installed; skipping (pip install -e .[lint])"; fi
	@if command -v ruff >/dev/null 2>&1; then ruff check; \
	    else echo "ruff not installed; skipping (pip install -e .[lint])"; fi

# Inner-loop lint: only files the git working tree touched are
# reported, and phase-1 indexes for everything else come from the
# content-hash cache (.repro-lint-cache.json).
lint-fast:
	python -m repro lint src/ tests/ --changed

bench:
	pytest benchmarks/ --benchmark-only

serve:
	python -m repro serve

bench-serve:
	python -m repro bench-serve --groups 8
	python scripts/validate_obs_artifacts.py \
	    --bench-serve benchmarks/results/BENCH_serve.json

experiments:
	python -m repro experiments --all --scale quick

experiments-full:
	python -m repro experiments --all --scale full

artifacts:
	bash scripts/regenerate_artifacts.sh

examples:
	for script in examples/*.py; do echo "== $$script =="; python $$script; done

# benchmarks/results and results hold tracked reports: clean keeps them.
clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info \
	    test_output.txt bench_output.txt
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
