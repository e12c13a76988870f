#!/usr/bin/env bash
# Builds cmd/3dess and the benchmark from this checkout into .bench_build,
# then runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload search_scan --seed 1 --seconds 10 --trace 0
# Run it from the repository root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -o "$out/3dess" ./cmd/3dess >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -bin "$out/3dess" -root . -work "$out/work" "$@"
