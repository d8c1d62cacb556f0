#!/usr/bin/env bash
# Builds baexp, balignd and the perfbench program from the checkout's source
# into .bench_build, then runs one benchmark workload. Run it from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload suite-align --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d cmd/baexp || ! -d cmd/balignd || ! -d internal ]]; then
	echo "perfbench: not a checkout of the repository: go.mod, cmd/baexp, cmd/balignd or internal is missing" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o "$out/bin/" ./cmd/baexp ./cmd/balignd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
