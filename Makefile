# Developer entry points. Every target sets PYTHONPATH=src, so no install
# step is needed; see README.md for what each target is for.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test test-chaos docs-check lint bench-smoke bench-check bench-columnar bench demo

## tier-1 test suite (the gate every change must keep green)
test:
	$(PYTEST) -x -q

## fault-injection chaos suite under a fixed seed: deterministic
## FaultyBackend scenarios plus the real-process kill -9 tests
## (replicated failover, degraded results, supervision respawn).
## Override the seed to replay a specific run:
## REPRO_CHAOS_SEED=<n> make test-chaos
test-chaos:
	REPRO_CHAOS_SEED=$${REPRO_CHAOS_SEED:-1307} \
		$(PYTEST) tests/cluster/test_failover.py -q

## documentation gate: fails on any public item without a docstring,
## any dead relative link/anchor in README.md + docs/*.md, or any
## fenced CLI example naming a subcommand/experiment target that the
## CLI does not actually register (tools/docs_check.py)
docs-check:
	$(PYTEST) tests/test_api_documentation.py -q
	python tools/docs_check.py

## lint gate: ruff when installed, else the bundled fallback linter
## (tools/lint.py — syntax, unused imports, whitespace hygiene); either
## way the serving layers (src/repro/server, src/repro/live) also pass
## the static doc-coverage check (module + public def/class docstrings)
lint:
	python tools/lint.py src tests benchmarks examples tools

## fast benchmark smoke: columnar + batch-engine + composite + server +
## mutable-serving + live-subscription + tail-latency + overload suites
## with their speedup assertions (timing collection disabled; the
## 2x / 1.5x / 1.3x throughput asserts, the no-rebuild freshness
## assert, the dirty-tile pruning assert, and the bounded-admitted-p99
## overload assert still run).  Emits the machine-readable per-PR
## record BENCH_pr.json (override the path with REPRO_BENCH_JSON); CI
## uploads it as a workflow artifact on every run and compares it
## against the previous run's artifact, failing on >10% regressions of
## the stable benchmark set (see tools/bench_delta.py).
bench-smoke:
	$(PYTEST) benchmarks/bench_columnar.py benchmarks/bench_batch_engine.py \
		benchmarks/bench_composite.py \
		benchmarks/bench_server.py \
		benchmarks/bench_mutable.py \
		benchmarks/bench_subscriptions.py \
		benchmarks/bench_tail_latency.py \
		benchmarks/bench_overload.py \
		benchmarks/bench_cluster.py \
		benchmarks/bench_failover.py -q --benchmark-disable

## benchmark API check: one short untraced run of each areabench
## workload (BENCHMARK.json); fails unless the run's last line reports
## "correct": true and "failed": 0, so a change that deletes API the
## benchmark calls (from_arrays, save_database, serve --load, the write
## frames, ...) fails here instead of in the benchmark run
bench-check:
	for workload in paper_area served_writes; do \
		python3 areabench/run.py --workload $$workload --seed 1 \
			--seconds 1 --trace 0 | tail -n 1 | python3 -c \
			'import json, sys; r = json.loads(sys.stdin.read()); print(sys.argv[1], r); sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
			$$workload || exit 1; \
	done

## columnar acceptance bench alone: vectorized vs scalar hot paths on
## the refinement-heavy trace (>= 2x asserted), ids byte-identical
bench-columnar:
	$(PYTEST) benchmarks/bench_columnar.py -q --benchmark-disable

## full benchmark run: every paper artefact + the batch engine (slow;
## REPRO_BENCH_SCALE=paper selects the paper's 1E5-1E6 sweep)
bench:
	$(PYTEST) benchmarks/bench_table1.py benchmarks/bench_table2.py \
		benchmarks/bench_fig4.py benchmarks/bench_fig5.py \
		benchmarks/bench_fig6.py benchmarks/bench_fig7.py \
		benchmarks/bench_ablation_indexes.py \
		benchmarks/bench_ablation_backend.py \
		benchmarks/bench_ablation_polygon.py \
		benchmarks/bench_ablation_knn.py \
		benchmarks/bench_ablation_iocost.py \
		benchmarks/bench_columnar.py \
		benchmarks/bench_batch_engine.py \
		benchmarks/bench_composite.py \
		benchmarks/bench_server.py \
		benchmarks/bench_mutable.py \
		benchmarks/bench_subscriptions.py \
		benchmarks/bench_tail_latency.py \
		benchmarks/bench_overload.py \
		benchmarks/bench_cluster.py \
		benchmarks/bench_failover.py

## one-shot demo of both methods + the batch engine
demo:
	PYTHONPATH=src python -m repro demo
	PYTHONPATH=src python -m repro batch
