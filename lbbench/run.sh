#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.:
#
#   bash lbbench/run.sh --workload relay-small --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# Go's own config files) stays under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

if ! (cd "$src" && go build -o "$out/lbbench" .) >&2; then
	echo "lbbench: build failed" >&2
	exit 1
fi
exec "$out/lbbench" "$@"
