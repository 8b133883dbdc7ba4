#!/bin/sh
# The race-detector repeats, stated once for scripts/check.sh and CI. A
# data race shows only in an interleaving that has it, so these tests
# run five times more under -race (short mode):
#   - sessions streaming concurrently on one artifact store share its
#     resident values, so a write to one is a race;
#   - the exactness tests of the rank-parallel elimination and block
#     factor;
#   - the faults: a panicking job, a panicking rank worker, and an
#     artifact waiter's deadline;
#   - a full registration builds its preoperative model on goroutines
#     beside the scan, and each build writes only its own promise and
#     handle, which the scan reads after waiting: a build writing
#     anything else, or the scan reading before it waits, is a race.
#     The build test drives every return path (success, cancellation,
#     degraded result, panic);
#   - the voxel and vertex passes split over one slab per core
#     (smoothing, distance transform, field inversion and warp, both
#     resamples, the MI histogram, the surface evolution), which write
#     disjoint outputs, so a slab writing outside its own is a race; the
#     core test runs the pinned registration and updates, and the fast
#     path suite's other cases, at several core counts.
set -eu
cd "$(dirname "$0")/.."

# repeat PACKAGE 'TestA|TestB' first checks that the package lists each
# named test (go test -run passes quietly when its pattern matches
# nothing, so a renamed or deleted test would stop being repeated
# unnoticed), then runs them.
repeat() {
	listed=$(go test -list . "$1")
	for name in $(echo "$2" | tr '|' ' '); do
		if ! echo "$listed" | grep -qx "$name"; then
			echo "race_repeats: $1 has no test $name" >&2
			exit 1
		fi
	done
	echo "== go test -race -count 5 -run '$2' $1"
	go test -race -short -timeout 5m -count 5 -run "$2" "$1"
}
repeat ./internal/core 'TestSharedArtifactsAreNeverWritten|TestConcurrentSessionsFactorizeOnce|TestResultDigestsAnyCoreCount|TestBuildLeaksNothingAndFailsWhereRead'
repeat ./internal/fem 'TestMemoizedBuildMatchesPerElementOracle'
repeat ./internal/solver 'TestBlockFactorsOfFEMOperatorsMatchOracle|TestBILU0MatchesBlockOracle'
repeat ./internal/par 'TestForEachRankPanicReachesTheCaller'
repeat ./internal/service 'TestPanickingJobCostsOneJob|TestPanickingWorkerCostsOneJob'
repeat ./internal/artifact 'TestWaiterHonoursItsDeadline'
repeat ./internal/volume 'TestPassesAnyCoreCount'
repeat ./internal/edt 'TestPassesAnyCoreCount'
repeat ./internal/transform 'TestResampleAnyCoreCount'
repeat ./internal/register 'TestMIAnyCoreCount'
repeat ./internal/surface 'TestEvolveAnyCoreCount'
