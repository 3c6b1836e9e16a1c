# Developer entry points. `make test` is the behaviour gate (lint plus the
# whole test suite); `make perfbench` is the only timing harness.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test lint perfbench

test: lint
	$(PYTEST) -x -q

# Static checks: the package's import-direction rules (DESIGN.md §8).
lint:
	python scripts/check_layering.py

# The repository benchmark (perfbench/README.md): every workload on the
# development seed, end to end (--trace 0) and per layer (--trace 1).
perfbench:
	for workload in table3 ingest-clean ingest-durable; do \
		for trace in 0 1; do \
			python3 perfbench/run.py --workload $$workload \
				--seed 11 --trace $$trace || exit 1; \
		done; \
	done
