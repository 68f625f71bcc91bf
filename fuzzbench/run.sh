#!/usr/bin/env bash
# Builds the fuzzing benchmark from this checkout and runs it. Run it
# from the root of the repository:
#
#   bash fuzzbench/run.sh --workload exec-heavy --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the run's state all stay under
# .bench_build (or $CARGO_TARGET_DIR when set) in the checkout root.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$root/fuzzbench" && go build -o "$out/fuzzbench" .)
exec "$out/fuzzbench" -work "$out" "$@"
