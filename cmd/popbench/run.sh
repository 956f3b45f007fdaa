#!/usr/bin/env bash
# Builds popbench from the checkout it is run in and runs it with the
# given arguments. The Go build cache, the go command's own config and
# telemetry files, the binary and every file the benchmark writes stay
# under .bench_build in the checkout. Run it from the module root, for
# example:
#
#   bash cmd/popbench/run.sh --workload mem-read --seed 1 --seconds 20 --trace 0
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f cmd/popbench/main.go ]; then
	echo "popbench: run from the root of the popana module" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/popbench" ./cmd/popbench
exec "$out/popbench" -dir "$out/work" "$@"
