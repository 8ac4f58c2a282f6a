#!/usr/bin/env bash
# Builds svperf from source and runs it, passing every argument through.
# Run from the repository root:
#
#   bash cmd/svperf/run.sh --workload read-local --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the view files and the span dumps all live
# under .bench_build/svperf in the current directory, so a run reads and
# writes nothing outside the checkout. The last line of standard output is
# the JSON result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/svperf"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/svperf" .) >&2
exec "$out/svperf" --out "$out" "$@"
