#!/usr/bin/env bash
# Builds the crowdtopk benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact, cache and
# temporary file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off TMPDIR="$out/tmp"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
