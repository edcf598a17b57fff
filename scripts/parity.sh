#!/usr/bin/env bash
# Output-parity check: build a git ref and the working tree, run a fixed list
# of CLI invocations on each, and diff their stdout byte for byte. Every run
# is a deterministic simulation, so a refactor that claims "no behaviour
# change" must leave this diff empty.
#
# Usage: scripts/parity.sh REF
#   PARITY_DIFF=FILE  also write the diff to FILE (CI uploads it)
#
# Exit status: 0 when every output matches, 1 when any differs, 2 on a build
# or usage error. stderr (progress lines) is not compared; a run's exit
# status is.
set -euo pipefail

ref=${1:-}
if [ -z "$ref" ]; then
	echo "usage: scripts/parity.sh REF" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/parity.XXXXXX")
trap 'rm -rf "$work"' EXIT

git -C "$root" archive --prefix=base/ "$ref" | tar x -C "$work"

cmds=(./cmd/entkrun ./cmd/wfsim ./cmd/sweeprun ./cmd/cwsbench
	./examples/exaam_uq ./examples/adaptive_uq ./examples/quickstart)
build() { # build SRC_DIR BIN_DIR
	mkdir -p "$2"
	(cd "$1" && go build -o "$2/" "${cmds[@]}") || { echo "parity: build of $1 failed" >&2; exit 2; }
}
build "$work/base" "$work/bin/base"
build "$root" "$work/bin/head"

# One invocation per line: binary name, then its flags. Sweeps pin -workers
# so the report headers (which name the worker count) agree on any machine.
runs=(
	"entkrun"
	"entkrun -json"
	"entkrun -full"
	"entkrun -full -nodes 500"
	"entkrun -scale"
	"entkrun -series"
	"wfsim -env hpc -sweep 25 -workers 2 -json"
	"wfsim -env cloud -sweep 25 -workers 2 -json"
	"wfsim -env k8s-cws -faults storm -sweep 25 -workers 2 -json"
	"sweeprun -seeds 50 -workers 2"
	"cwsbench -waste"
	"exaam_uq"
	"adaptive_uq"
	"quickstart"
)

for side in base head; do
	mkdir -p "$work/out/$side"
	for i in "${!runs[@]}"; do
		read -r bin args <<<"${runs[$i]}"
		out="$work/out/$side/$(printf '%02d' "$i")-${bin}.txt"
		echo "\$ ${runs[$i]}" >"$out"
		# shellcheck disable=SC2086 # args is a flag list
		if "$work/bin/$side/$bin" $args >>"$out" 2>/dev/null; then :; else echo "exit status $?" >>"$out"; fi
	done
done

if diff -ru "$work/out/base" "$work/out/head" >"$work/parity.diff"; then
	echo "parity: ${#runs[@]} outputs identical to $ref"
	status=0
else
	cat "$work/parity.diff"
	echo "parity: outputs differ from $ref" >&2
	status=1
fi
if [ -n "${PARITY_DIFF:-}" ]; then
	cp "$work/parity.diff" "$PARITY_DIFF"
fi
exit $status
