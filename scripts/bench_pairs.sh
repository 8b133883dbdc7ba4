#!/bin/sh
# Alternating parent/change pairs of one benchmark workload:
#
#   scripts/bench_pairs.sh <parent-ref> <workload>|all [pairs] [seconds]
#
# builds ./_bench at <parent-ref> (a `git archive` export into a
# temporary directory) and at the working tree, runs the two binaries
# alternately on the workload — pair i on seed i, the side that goes
# first alternating — and prints every end-to-end metric of each pair,
# then each side's failed/attempted scans and per metric each side's
# quartiles, the parent's interquartile distance, the pairs won / tied /
# lost and the choosing-metrics verdict (resolved or unresolved), and
# under that every failing sample's check with its pair, seed and side.
# `all` runs every workload of BENCHMARK.json in turn.
# Exits 1 when a run did not end in its contract line or the change
# failed a larger share of its scans than the parent on some workload:
# such a change is refused whatever its timings.
# Defaults: 10 pairs of BENCHMARK.json's 12 seconds. Nothing is written
# outside the temporary directory; no network.
set -eu
if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <workload>|all [pairs] [seconds]" >&2
	exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-12}
root=$(cd "$(dirname "$0")/.." && pwd)
status=0
if [ "$workload" = all ]; then
	for workload in $(awk -F'"' '/"name":/ { n = $4 } /"why":/ { print n }' "$root/BENCHMARK.json"); do
		sh "$0" "$ref" "$workload" "$pairs" "$seconds" || status=1
	done
	exit $status
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/out"
: >"$tmp/results"
: >"$tmp/scans"
: >"$tmp/failed"

git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench_parent" ./_bench)
(cd "$root" && go build -o "$tmp/bench_change" ./_bench)

# run <side> <dir> <pair>: one run from its own tree (each binary reads
# the BENCHMARK.json beside it); appends "pair side metric value" lines
# to results, "side attempted failed" to scans and the run's
# "FAILED <workload> sample <i>: <check>" lines, labelled, to failed.
run() {
	(cd "$2" && "$tmp/bench_$1" -workload "$workload" -seconds "$seconds" -seed "$3" -out "$tmp/out") >"$tmp/run.out" || true
	sed -n "s/^FAILED /  pair $3, seed $3, $1: /p" "$tmp/run.out" >>"$tmp/failed"
	line=$(tail -n 1 "$tmp/run.out")
	case $line in
	'{"correct":'*'"attempted":'*'"failed":'*'"metrics":'*) ;;
	*)
		echo "pair $3 $1: no contract line: $line" >&2
		status=1
		return
		;;
	esac
	echo "$line" | sed 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\),.*/'"$1"' \1 \2/' >>"$tmp/scans"
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

# Which way each metric improves, from BENCHMARK.json ("name direction").
awk -F'"' '/"name":/ { n = $4 } /"better":/ { print n, $4 }' "$root/BENCHMARK.json" >"$tmp/better"

# Per metric: each side's quartiles (linear interpolation between order
# statistics), the parent's interquartile distance, the pairs the change
# won, tied and lost in the metric's own direction, and the verdict of
# the choosing-metrics rule: resolved when the change won at least nine
# tenths of all pairs run and the medians differ, the right way, by more
# than the parent's interquartile distance; unresolved otherwise.
echo "$pairs pairs of $workload ($seconds s runs), parent $ref -> working tree; q1 / median / q3:"
# Failed over attempted scans of each side, summed over its runs; more
# failures that are also a larger share of the change's scans fail the
# script (the same failures over a few scans more or fewer, as on
# stream-77k seed 7, are not a difference between the sides).
awk '{ a[$1] += $2; f[$1] += $3 }
	END {
		printf "  %-16s parent %d/%d  change %d/%d\n", "failed scans", f["parent"], a["parent"], f["change"], a["change"]
		exit (f["change"] > f["parent"] && f["change"] * a["parent"] > f["parent"] * a["change"]) ? 1 : 0
	}' "$tmp/scans" || {
	echo "  the change failed a larger share of its scans than the parent" >&2
	status=1
}
for metric in $(awk '{ print $3 }' "$tmp/results" | sort -u); do
	for side in parent change; do
		awk -v m="$metric" -v s="$side" '$3 == m && $2 == s { print $4 }' "$tmp/results" | sort -g >"$tmp/$side.sorted"
	done
	awk -v m="$metric" -v n="$pairs" -v pf="$tmp/parent.sorted" -v cf="$tmp/change.sorted" -v bf="$tmp/better" '
		function quantile(v, cnt, q,    pos, lo) {
			pos = 1 + (cnt - 1) * q; lo = int(pos)
			return (lo >= cnt) ? v[cnt] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
		}
		BEGIN {
			sign = 1 # +1: lower is better
			while ((getline line < bf) > 0) { split(line, f, " "); if (f[1] == m && f[2] == "higher") sign = -1 }
			while ((getline x < pf) > 0) p[++np] = x
			while ((getline x < cf) > 0) c[++nc] = x
		}
		$3 == m { v[$1, $2] = $4; pair[$1] }
		END {
			for (i in pair) {
				d = sign * (v[i, "change"] - v[i, "parent"])
				if (d < 0) wins++; else if (d > 0) losses++; else ties++
			}
			pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
			iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
			verdict = (wins >= 0.9 * n && sign * (pm - cm) > iqr) ? "resolved" : "unresolved"
			printf "  %-16s parent %.7g / %.7g / %.7g (IQR %.4g)  change %.7g / %.7g / %.7g  x%.3f  %s is better: won %d, tied %d, lost %d  %s\n",
				m, quantile(p, np, 0.25), pm, quantile(p, np, 0.75), iqr,
				quantile(c, nc, 0.25), cm, quantile(c, nc, 0.75), (pm != 0) ? cm / pm : 0,
				(sign > 0) ? "lower" : "higher", wins, ties, losses, verdict
		}' "$tmp/results"
done
if [ -s "$tmp/failed" ]; then
	echo "failing samples:"
	cat "$tmp/failed"
fi
exit $status
