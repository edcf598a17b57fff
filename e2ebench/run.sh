#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, for example:
#
#   bash e2ebench/run.sh --workload dense --seed 3 --seconds 25 --trace 0
#
# The binary, the Go build cache and the traced run's spans stay inside the
# checkout, under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -spans "$out/spans.jsonl" "$@"
