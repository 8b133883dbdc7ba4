#!/bin/sh
# The one command: format check, vet, unit and smoke tests, then the
# untraced run (results.json) and the traced run (layers.json,
# trace.jsonl) into _bench/out. Extra arguments go to both runs, e.g.
#   _bench/run.sh -seed 7 -runs 3
set -eu
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l _bench)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi
go vet ./_bench
go test ./_bench
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go run ./_bench -commit "$commit" "$@"
go run ./_bench -commit "$commit" -trace 1 "$@"
