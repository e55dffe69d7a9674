#!/usr/bin/env bash
# Paired benchmark runs of two checkouts on one machine:
#
#   scripts/pairbench.sh BASE_DIR HEAD_DIR REGEX BENCHTIME BASE_OUT HEAD_OUT PKG...
#
#   scripts/pairbench.sh /tmp/base . 'Shortest|Batch|Parse' 300ms \
#       bench_base.txt bench_head.txt . ./batch
#
# Builds each package's test binary once per side (go test -c), then runs
# the two sides' binaries alternately for ROUNDS rounds (default 8), each
# run at -test.count 1 -test.benchmem -test.benchtime BENCHTIME, from the
# package's directory in its own checkout.  The side that runs first
# flips every round, so a change in the host's load between rounds falls
# on both sides alike.  Each side's output is appended to its file in
# round order, so run i of a benchmark in BASE_OUT pairs with run i in
# HEAD_OUT: fpbenchjson's compare mode gates time on the median of those
# per-round head/base ratios.  PKG paths are relative to each checkout's
# root.  For a fixed CPU count on both sides, set GOMAXPROCS: a test
# binary's default -test.cpu is GOMAXPROCS.
set -euo pipefail

if [ $# -lt 7 ]; then
	sed -n '2,19p' "$0" >&2
	exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
regex=$3
benchtime=$4
: >"$5"
: >"$6"
base_out=$(cd "$(dirname "$5")" && pwd)/$(basename "$5")
head_out=$(cd "$(dirname "$6")" && pwd)/$(basename "$6")
shift 6
pkgs=("$@")
rounds=${ROUNDS:-8}

bins=$(mktemp -d)
trap 'rm -rf "$bins"' EXIT

binary() { # side pkg
	echo "$bins/$1_$(printf '%s' "$2" | tr -c 'A-Za-z0-9' '_').test"
}

for side in base head; do
	dir=$base
	[ "$side" = head ] && dir=$head
	for pkg in "${pkgs[@]}"; do
		(cd "$dir" && go test -c -o "$(binary "$side" "$pkg")" "$pkg")
	done
done

run() { # side pkg
	local dir=$base out=$base_out
	if [ "$1" = head ]; then
		dir=$head out=$head_out
	fi
	(cd "$dir/$2" && "$(binary "$1" "$2")" -test.run '^$' -test.bench "$regex" \
		-test.benchtime "$benchtime" -test.count 1 -test.benchmem -test.timeout 30m) | tee -a "$out"
}

for ((r = 1; r <= rounds; r++)); do
	order="base head"
	if ((r % 2 == 0)); then
		order="head base"
	fi
	for pkg in "${pkgs[@]}"; do
		for side in $order; do
			echo "# pairbench round $r/$rounds: $side $pkg" >&2
			run "$side" "$pkg"
		done
	done
done
