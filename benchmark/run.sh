#!/usr/bin/env bash
# Builds cmd/nfsd and the benchmark from source, then runs the benchmark with
# the arguments given. Everything built — Go's build cache and temporary files
# included — stays in .bench_build/ at the root of the checkout, so a run
# writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
start=$(date +%s%N)
(cd "$here" && go build -o "$out/nfsd" renonfs/cmd/nfsd && go build -o "$out/benchmark" .) >&2
echo "# build_ms $(( ($(date +%s%N) - start) / 1000000 ))" >&2
cd "$root"
exec "$out/benchmark" -nfsd "$out/nfsd" "$@"
