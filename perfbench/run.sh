#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags (-workload, -seed, -seconds, -trace). Run it from the root of
# the checkout. Every build and run artifact — Go's build cache, telemetry,
# temp files, sockets, span files — stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
