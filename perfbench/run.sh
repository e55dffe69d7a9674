#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-single --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.  The build cache and the binary live
# under .bench_build/ in that root, so nothing outside the checkout is
# written.  Without the library sources next to perfbench/ the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
