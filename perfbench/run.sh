#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload launcher-sweep --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact stays under the build directory (default
# .bench_build, or $CARGO_TARGET_DIR when set): the Go build cache and its
# temporary files, the benchmark binary and the spans of traced runs.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache
export GOMODCACHE=$build/go-mod
export GOPATH=$build/go-path
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -spans "$build/spans" "$@"
