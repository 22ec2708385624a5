#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it:
#
#   bash servebench/run.sh --workload hot-mix --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --report --seconds 5     # every metric, every workload
#
# Everything it writes (Go build cache, binary, cache dirs) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bin/servebench" .)
# On ext4, mark the runs directory as a top of a directory hierarchy so
# that each run's cache dir is placed in a block group of its own. Without
# it every run creates its cache entries in the block group where the
# previous run just deleted its own, and an ext4 without a journal skips
# each recently deleted inode one by one when allocating a new one: the
# first seconds of a cold-cells run were several times slower. Elsewhere
# the flag is unsupported and harmless to skip.
mkdir -p "$build/runs"
chattr +T "$build/runs" 2>/dev/null || true
cd "$root"
exec "$build/bin/servebench" --workdir "$build/runs" "$@"
