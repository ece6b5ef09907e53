#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root, e.g.
#
#   bash e2ebench/run.sh --workload campaign_cpu --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, the toolchain's home directory,
# the binary, the benchmark's stores and the trace files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
# Telemetry off, so the go command starts no helper process that could
# outlive the run.
go telemetry off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --dir "$out" --spec "$(pwd)/BENCHMARK.json" "$@"
