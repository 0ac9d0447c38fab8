GO ?= go

.PHONY: build test bench bench-hotpath bench-e2e smoke-server fmt examples ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Every go-test benchmark: the paper's figures and the relop/tpch kernel
# microbenchmarks. End-to-end numbers come from bench-e2e.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

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
