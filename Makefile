GO ?= go

# Output file for the machine-readable ablation report; the CI artifact name
# is derived from this (BENCH_PR10.json -> bench-pr10).
BENCH_OUT ?= BENCH_PR10.json

.PHONY: build test bench bench-json bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10 bench-hotpath bench-execcore bench-e2e smoke-server fmt examples ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Full benchmark run (the paper's figures + ablations).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Machine-readable ablation results (policy sweep + pivot-level ablation +
# build-share ablation + cache ablation + open-loop server ablation +
# hot-path ablation + shard ablation + execution-core ablation), emitted as
# $(BENCH_OUT) and archived by CI as an artifact so the perf trajectory is
# tracked run over run. The shard ablation hard-fails unless 4-shard subplan
# capacity beats 1-shard by >= 2x and the cross-shard bus runs exactly one
# hash build per shared family; the execution-core ablation hard-fails
# unless 8-worker capacity beats 1-worker by >= 2x on the subplan closed
# loop, fused chains beat staged on q/min with fewer allocs/op, and every
# fused result is byte-identical to the unfused single-worker reference; the
# tracing ablation hard-fails if the lifecycle telemetry costs more than 3%
# of q/min against a tracing-disabled engine (paired-median estimate).
# bench-pr10 is the current alias; bench-pr5..pr9 re-emit under the previous
# filenames for trajectory comparisons.
bench-json:
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT)

bench-pr10: bench-json

bench-pr9:
	$(MAKE) bench-json BENCH_OUT=BENCH_PR9.json

bench-pr8:
	$(MAKE) bench-json BENCH_OUT=BENCH_PR8.json

bench-pr7:
	$(MAKE) bench-json BENCH_OUT=BENCH_PR7.json

bench-pr6:
	$(MAKE) bench-json BENCH_OUT=BENCH_PR6.json

bench-pr5:
	$(MAKE) bench-json BENCH_OUT=BENCH_PR5.json

# Hot-path microbenchmarks only (submit path, compile step, page filtering,
# and the relop kernels: aggregation, expression evaluation, join build and
# probe), with allocation counts; CI runs these through benchstat for
# readable ns/op + allocs/op tables.
bench-hotpath:
	$(GO) test -run='^$$' \
		-bench='SubmitPath|CompileStep|PredFilter|HashAggPush|ArithEval|JoinBuild|JoinProbe' \
		-benchmem ./internal/tpch/ ./internal/relop/

# The end-to-end benchmark BENCHMARK.json declares (bench/, a module of its
# own): every workload, one child process each. BENCH_ARGS passes flags
# through, e.g. BENCH_ARGS='-workloads alone,share -seed 7' or
# BENCH_ARGS='-agree a.json b.json'.
BENCH_ARGS ?=
bench-e2e:
	bash bench/run.sh $(BENCH_ARGS)

# Execution-core microbenchmarks only (scheduler worker sweep with the steal
# counter, fused vs staged chains with allocation counts); CI runs these
# through benchstat and pairs the fused/staged arms into a comparison table.
bench-execcore:
	$(GO) test -run='^$$' -bench='SchedulerScaling|FusedChain' -benchmem .

# End-to-end server smoke: boot cordobad on a random port, drive ~100
# open-loop queries, SIGTERM, assert a clean drain and a nonzero p99
# (mirrored as a CI job).
smoke-server:
	./scripts/smoke-server.sh

fmt:
	gofmt -w .

# Run every example binary once, so example drift fails fast instead of
# rotting (mirrored as a CI step).
examples:
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run "./$$d" >/dev/null || exit 1; \
	done

# Mirrors .github/workflows/ci.yml: format check, vet, build, race tests,
# a one-iteration benchmark smoke so bench code cannot rot, the examples
# smoke, and the server smoke.
ci:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(MAKE) examples
	$(MAKE) smoke-server
