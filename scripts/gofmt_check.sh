#!/bin/sh
# The formatting gate, stated once for scripts/check.sh and CI: every
# .go file outside testdata must be gofmt-clean. internal/lint/testdata
# holds analyzer fixtures that are deliberately not gofmt-clean
# (formatting_test.go pins one); the go tool already ignores testdata,
# so the gate must too.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
