#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Every argument passes through, e.g.
#
#   bash e2ebench/run.sh --workload routed-embed --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. The build, the Go caches and the traced
# run's spans all stay under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

# Offline, self-contained build: no module downloads, no toolchain switch,
# and no cache or configuration written outside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
