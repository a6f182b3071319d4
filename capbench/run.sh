#!/usr/bin/env bash
# Builds the capture-pipeline benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash capbench/run.sh --workload edge_direct --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binary, the run's store and spools, trace files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GO111MODULE=on CGO_ENABLED=0
# The build does not stamp VCS state (-buildvcs=false), so it works the
# same inside and outside a git checkout; the commit, when the repository
# is one, is read here and passed on for the run context.
commit=unknown
if [ -e "$root/.git" ] && rev="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	commit="$rev"
	if [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		commit="$rev+dirty"
	fi
fi
(cd "$here" && go build -buildvcs=false -o "$build/capbench" .)
exec "$build/capbench" --workdir "$build/capbench-work" --commit "$commit" "$@"
