#!/usr/bin/env bash
# Builds roamd and the benchmark from this checkout's sources, then runs
# one workload:
#
#   bash perfbench/run.sh --workload ingest|replay --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build and run artefact (Go
# build cache, binaries, archives, temp files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/roamd" ./cmd/roamd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --roamd "$out/bin/roamd" --work "$out/work" "$@"
