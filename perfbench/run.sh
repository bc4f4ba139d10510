#!/usr/bin/env bash
# Builds the benchmark and the esrd daemon from this checkout into
# .bench_build/, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Every file it writes (Go build
# cache, binaries, daemon data dirs, span dumps) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/esrd" repro/cmd/esrd
cd "$root"
exec "$out/perfbench" -esrd "$out/esrd" -workdir "$out/work" "$@"
