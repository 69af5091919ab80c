#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash _perfbench/run.sh --workload fleet-soak --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, binary, span and result
# files) stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f _perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod and _perfbench/go.mod)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd _perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
