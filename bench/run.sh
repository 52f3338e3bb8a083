#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload mine-dense --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (Go build cache, temporary
# files, workload inputs, traces) stays under .bench_build in the current
# directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/fpmbench" .) >&2
exec "$out/fpmbench" -workdir "$out/work" -trace-dir "$out/traces" "$@"
