#!/usr/bin/env bash
# Builds the perfbench harness from source (with the profile cmd/sweep ships,
# so it measures the same code as the sweep binary) and runs it.
#
#   bash perfbench/run.sh --workload cold-suite --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artefact, cache and scratch file
# lands under ${CARGO_TARGET_DIR:-.bench_build} in the working directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/sweep/default.pgo" || ! -d "$root/internal/exp/testdata" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sweep/default.pgo and internal/exp/testdata are missing here)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
out="$build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# Keep the toolchain's caches, temp files and telemetry inside the build
# directory, and never let it look for another toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -trimpath -pgo="$root/cmd/sweep/default.pgo" -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --build "$out" "$@"
