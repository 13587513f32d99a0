#!/usr/bin/env bash
# Builds the campaign benchmark from the sources in this checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash campaignbench/run.sh --workload serial-a1 --seed 1 --seconds 10 --trace 0
#   bash campaignbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit=unknown
if [ -d .git ] && command -v git >/dev/null; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd campaignbench && go build -o "$out/campaignbench" .) >&2
exec "$out/campaignbench" --commit "$commit" "$@"
