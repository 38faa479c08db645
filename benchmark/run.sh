#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (binary, Go build cache, temp
# files) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too,
# and TMPDIR the scratch files it makes outside GOTMPDIR.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

stamp="commit=unknown dirty=unknown"
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then dirty=true; else dirty=false; fi
	stamp="commit=$commit dirty=$dirty"
fi

(cd "$here" && go build -buildvcs=false -o "$build/miodb-benchmark" .)
cd "$root"
exec "$build/miodb-benchmark" --stamp "$stamp" "$@"
