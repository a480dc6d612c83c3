#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every file the Go toolchain and the benchmark write stays under
# .bench_build in the checkout. Without the repository's sources beside it
# (only BENCHMARK.json and bench/), the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# No downloads: the benchmark needs nothing beyond the checkout and the
# local toolchain.
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
