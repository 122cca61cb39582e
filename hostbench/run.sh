#!/usr/bin/env bash
# Builds the benchmark and the vmserved daemon from this checkout's
# sources, then runs the benchmark with the arguments given, e.g.
#
#   bash hostbench/run.sh --workload paper --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. The Go build cache, the binaries, the
# generated inputs and the span files all stay under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/vmserved ] || [ ! -f hostbench/go.mod ]; then
	echo "hostbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$(pwd)/.bench_build/hostbench"
mkdir -p "$out/tmp" "$out/home"
# Keep the toolchain's caches and config inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

go build -o "$out/vmserved" ./cmd/vmserved
go build -C hostbench -o "$out/hostbench" .
exec "$out/hostbench" -vmserved "$out/vmserved" -work "$out/run" "$@"
