GO ?= go

.PHONY: build test lint perfgate check bench bench-pairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Project-native static analysis: the simlint suite (see internal/lint),
# nine analyzers enforcing the pipeline's context-plumbing, span-pairing,
# error-wrapping, float-comparison, NaN-guard, determinism and
# interprocedural hot-path/lock-scope invariants.
lint:
	$(GO) run ./cmd/simlint ./...

# Compiler-fact performance gate: the //lint:noescape zero-escape
# contract on the hot kernels, checked against escape-analysis output.
perfgate:
	$(GO) run ./cmd/perfgate

# Full gate: gofmt + build + vet + simlint + perfgate + tests + the
# paper's figures and claims + fuzz smoke, then the whole module under
# -race (short mode).
check:
	sh scripts/check.sh

# Benchmarks: the packages' Go micro-benchmarks, then the benchmark
# ledger — the four paper-scale workloads of BENCHMARK.json, each scan
# checked for correctness (see _bench/README.md; `go run ./_bench -trace
# 1` adds the layer-by-layer replay). The paper's figures, the
# design-choice studies and their claims are regenerated by
# `go run ./cmd/benchfig -fig all`, not here.
bench:
	$(GO) test -bench=. -benchmem -short ./...
	$(GO) run ./_bench

# Alternating parent/change pairs of one workload, or of each in turn
# with WORKLOAD=all, e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=stream-77k PAIRS=10
# Fails when a run printed no result or the change failed more scans.
PARENT ?= HEAD
WORKLOAD ?= stream-77k
PAIRS ?= 10
bench-pairs:
	sh scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)
