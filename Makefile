# Developer entry points. `make bench` regenerates the benchmark evidence
# file committed at the repo root (BENCH_<date>.json).

PYTEST := PYTHONPATH=src python -m pytest
DATE   := $(shell date +%Y-%m-%d)

.PHONY: test lint bench bench-substrates bench-ingest bench-extraction bench-compare perfbench

test: lint
	$(PYTEST) -x -q

# Static checks: the package's import-direction rules (DESIGN.md §8).
lint:
	python scripts/check_layering.py

bench:
	$(PYTEST) benchmarks/ --benchmark-only \
		--benchmark-json=BENCH_$(DATE).json

# The substrate micro-benchmarks alone (ranking kernel, cleaning round,
# extraction) — the quick loop while optimising.
bench-substrates:
	$(PYTEST) benchmarks/test_bench_substrates.py --benchmark-only \
		--benchmark-json=BENCH_$(DATE).json

# The streaming-service benchmarks alone (per-batch ingest latency,
# durability overhead, cold resume).
bench-ingest:
	$(PYTEST) benchmarks/test_bench_ingest.py --benchmark-only \
		--benchmark-json=BENCH_$(DATE).json

# The deep-pool extraction benchmarks alone (worklist vs naive scan) —
# the quick loop while working on the resolution engine.
bench-extraction:
	$(PYTEST) benchmarks/test_bench_extraction_worklist.py --benchmark-only \
		--benchmark-json=BENCH_$(DATE).json

# Re-run the benchmarks and fail if anything regressed more than 1.5x
# against the latest committed BENCH_*.json.
bench-compare:
	PYTHONPATH=src python scripts/bench_compare.py

# The repository benchmark (perfbench/README.md): every workload on the
# development seed, end to end (--trace 0) and per layer (--trace 1).
perfbench:
	for workload in table3 ingest-clean ingest-durable; do \
		for trace in 0 1; do \
			python3 perfbench/run.py --workload $$workload \
				--seed 11 --trace $$trace || exit 1; \
		done; \
	done
