#!/usr/bin/env bash
# Builds the programs under test and the benchmark driver from source,
# then runs the benchmark program with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-campaign --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build output, the Go build
# cache and all run state stay under $CARGO_TARGET_DIR (default
# .bench_build) in the working directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/config"

export GOCACHE=$out/gocache
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export XDG_CONFIG_HOME=$out/config
export GOPATH=$out/gopath

# With telemetry on, every go command (the builds here and the traced
# run's `go tool pprof`) forks a detached telemetry process that nobody
# waits for. Switching it off in the private config dir above stops that;
# `go telemetry off` itself forks nothing.
go telemetry off >&2

go build -o "$out/bin/" ./cmd/contigd ./cmd/fleetscan ./cmd/migbench >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
