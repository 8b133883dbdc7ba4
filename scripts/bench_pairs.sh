#!/bin/sh
# Alternating parent/change pairs of one benchmark workload:
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs] [seconds]
#
# builds ./_bench at <parent-ref> (a `git archive` export into a
# temporary directory) and at the working tree, runs the two binaries
# alternately on the workload — pair i on seed i, the side that goes
# first alternating — and prints every end-to-end metric of each pair,
# then both medians, their ratio and how often the change read lower.
# Defaults: 10 pairs of BENCHMARK.json's 12 seconds. Nothing is written
# outside the temporary directory; no network.
set -eu
if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <workload> [pairs] [seconds]" >&2
	exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-12}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/out"

git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench_parent" ./_bench)
(cd "$root" && go build -o "$tmp/bench_change" ./_bench)

# run <side> <dir> <pair>: one run from its own tree (each binary reads
# the BENCHMARK.json beside it); appends "pair side metric value" lines.
run() {
	line=$(cd "$2" && "$tmp/bench_$1" -workload "$workload" -seconds "$seconds" -seed "$3" -out "$tmp/out" | tail -n 1)
	case $line in
	*'"failed":0,'*) ;;
	*) echo "pair $3 $1: failed scans: $line" >&2 ;;
	esac
	echo "$line" | grep -o '"[a-z_0-9]*":{"value":[^,]*' |
		sed 's/"\([a-z_0-9]*\)":{"value":\(.*\)/'"$3 $1"' \1 \2/' >>"$tmp/results"
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$tmp/parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$tmp/parent" "$i"
	fi
	awk -v p="$i" '$1 == p { v[$3, $2] = $4; if (!($3 in seen)) { seen[$3]; order[++n] = $3 } }
		END { printf "pair %d:", p; for (k = 1; k <= n; k++) printf "  %s %.7g -> %.7g", order[k], v[order[k], "parent"], v[order[k], "change"]; print "" }' "$tmp/results"
	i=$((i + 1))
done

# median <file of sorted numbers>
median() { awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }' "$1"; }

echo "medians over $pairs pairs of $workload ($seconds s runs), parent $ref -> working tree:"
for metric in $(awk '{ print $3 }' "$tmp/results" | sort -u); do
	for side in parent change; do
		awk -v m="$metric" -v s="$side" '$3 == m && $2 == s { print $4 }' "$tmp/results" | sort -g >"$tmp/$side.sorted"
	done
	lower=$(awk -v m="$metric" '$3 == m { v[$1, $2] = $4; pair[$1] }
		END { for (p in pair) if (v[p, "change"] < v[p, "parent"]) n++; print n + 0 }' "$tmp/results")
	mp=$(median "$tmp/parent.sorted")
	mc=$(median "$tmp/change.sorted")
	awk -v m="$metric" -v a="$mp" -v b="$mc" -v l="$lower" -v n="$pairs" \
		'BEGIN { printf "  %-16s %10.7g -> %10.7g  (x%.3f)  change lower in %d/%d pairs\n", m, a, b, (a != 0) ? b / a : 0, l, n }'
done
