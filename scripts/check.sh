#!/bin/sh
# Repository check: formatting, build + vet, the project-native simlint
# static-analysis suite, the perfgate compiler-fact gate (the
# //lint:noescape kernel contract), the full test suite, one iteration
# of every package benchmark, the paper's figures and the design-choice
# studies regenerated with their claims checked (cmd/benchfig), the
# benchmark ledger's own vet and tests (which ./... skips), fuzz smoke
# runs, and the whole module under the race detector (short mode, which
# includes the service's goroutine-leak test), then the race repeats of
# scripts/race_repeats.sh: the tests whose races show only in an
# interleaving that has them, run a few times more.
#
# Every go test carries an explicit -timeout well under the ten-minute
# default: a lost completion signal (a missed WaitGroup.Done, a send
# nobody receives) then fails in minutes with a goroutine dump. That,
# -race and TestServiceLeaksNothing state the goroutine-hygiene rules.
set -eu
cd "$(dirname "$0")/.."

./scripts/gofmt_check.sh
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== simlint ./..."
go run ./cmd/simlint ./...
echo "== perfgate"
go run ./cmd/perfgate
echo "== go test ./..."
go test -timeout 5m ./...
echo "== go test -bench . -benchtime 1x -short ./... (every package benchmark, once)"
go test -run '^$' -bench . -benchtime 1x -short -timeout 5m ./...
echo "== benchfig -fig all (the paper's figures, the studies and their claims at its sizes)"
figs=$(mktemp -d)
go run ./cmd/benchfig -fig all -out "$figs"
rm -rf "$figs"
echo "== go vet ./_bench && go test ./_bench"
# ./... skips the _-prefixed benchmark directory, so name it.
go vet ./_bench
go test -timeout 2m ./_bench
echo "== go test -fuzz (10s per target, list derived from sources)"
./scripts/fuzz_smoke.sh
echo "== go test -race -short ./..."
go test -race -short -timeout 5m ./...
./scripts/race_repeats.sh
echo "== OK"
