#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash sdrbench/run.sh --workload link --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary, the temporary files of a run and the spans
# of a traced run all stay under <checkout>/.bench_build.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The toolchain's caches, temp files and local telemetry go under $out too.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/sdrbench" ./cmd/sdrbench)

export TMPDIR="$out/tmp"
exec "$out/sdrbench" --spans-dir "$out" "$@"
