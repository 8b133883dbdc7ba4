#!/bin/sh
# Repository check: formatting, build + vet, the project-native simlint
# static-analysis suite, the perfgate compiler-fact gate (the
# //lint:noescape kernel contract), the full test suite (and the
# benchmark ledger's own vet and tests, which ./... skips), fuzz smoke
# runs, and the whole module under the race detector (short mode, which
# includes the service's goroutine-leak test and the shared-artifact
# tests: sessions that stream concurrently on one artifact store share
# its resident values, so a write to one is a data race — those two run
# a few times more, since a race shows only in an interleaving that has
# it, and so do the exactness tests of the rank-parallel elimination and
# block factor, a panicking job and an artifact waiter's deadline).
#
# Every go test carries an explicit -timeout well under the ten-minute
# default: a lost completion signal (a missed WaitGroup.Done, a send
# nobody receives) then fails in minutes with a goroutine dump. That,
# -race and TestServiceLeaksNothing state the goroutine-hygiene rules.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
# internal/lint/testdata holds analyzer fixtures that are deliberately
# not gofmt-clean (formatting_test.go pins one); the go tool already
# ignores testdata, so the formatting gate must too.
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
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
echo "== go vet ./_bench && go test ./_bench"
# ./... skips the _-prefixed benchmark directory, so name it.
go vet ./_bench
go test -timeout 2m ./_bench
echo "== go test -fuzz (10s per target, list derived from sources)"
./scripts/fuzz_smoke.sh
echo "== go test -race -short ./..."
go test -race -short -timeout 5m ./...
go test -race -short -timeout 5m -count 5 -run 'TestSharedArtifactsAreNeverWritten|TestConcurrentSessionsFactorizeOnce' ./internal/core
go test -race -short -timeout 5m -count 5 -run 'TestMemoizedBuildMatchesPerElementOracle' ./internal/fem
go test -race -short -timeout 5m -count 5 -run 'TestBlockFactorsOfFEMOperatorsMatchOracle|TestSplitILUMatchesCombinedLayout' ./internal/solver
go test -race -short -timeout 5m -count 5 -run 'TestPanickingJobCostsOneJob' ./internal/service
go test -race -short -timeout 5m -count 5 -run 'TestWaiterHonoursItsDeadline' ./internal/artifact
echo "== OK"
