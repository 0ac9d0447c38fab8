GO ?= go

.PHONY: build test bench bench-hotpath bench-e2e fuzz smoke-server fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Every go-test benchmark: the relop, storage and tpch kernel
# microbenchmarks. The paper's figures come from go run ./cmd/figures, and
# end-to-end numbers from bench-e2e.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Hot-path microbenchmarks only (submit path, compile step, one unshared
# query per family with its pages/op, page filtering, and the relop kernels:
# aggregation, expression evaluation, join build and probe), with allocation
# counts; CI runs these through benchstat for readable ns/op + allocs/op
# tables.
bench-hotpath:
	$(GO) test -run='^$$' \
		-bench='SubmitPath|CompileStep|FamilyAlone|PredFilter|HashAggPush|ArithEval|JoinBuild|JoinProbe' \
		-benchmem ./internal/tpch/ ./internal/relop/

# The end-to-end benchmark BENCHMARK.json declares (bench/, a module of its
# own): every workload, one child process each. BENCH_ARGS passes flags
# through, e.g. BENCH_ARGS='-workloads alone,share -seed 7' or
# BENCH_ARGS='-agree a.json b.json'.
BENCH_ARGS ?=
bench-e2e:
	bash bench/run.sh $(BENCH_ARGS)

# Fuzz the grouping aggregate against its row-at-a-time oracle,
# back-to-back pooled hash joins against the nested-loop join, and predicate
# trees against a row-at-a-time oracle, 15 s each. go test runs only the
# committed seed corpora (internal/relop/testdata/fuzz/FuzzHashAgg, FuzzJoin
# and FuzzFilter); CI runs this step too.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzHashAgg$$' -fuzztime=15s ./internal/relop/
	$(GO) test -run='^$$' -fuzz='^FuzzJoin$$' -fuzztime=15s ./internal/relop/
	$(GO) test -run='^$$' -fuzz='^FuzzFilter$$' -fuzztime=15s ./internal/relop/

# End-to-end server smoke: boot cordobad on a random port, drive ~100
# open-loop queries, SIGTERM, assert a clean drain and a nonzero p99
# (mirrored as a CI job).
smoke-server:
	./scripts/smoke-server.sh

fmt:
	gofmt -w .

# Mirrors .github/workflows/ci.yml: format check, vet, build, race tests,
# a one-iteration benchmark smoke so bench code cannot rot, and the server
# smoke.
ci:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(MAKE) smoke-server
