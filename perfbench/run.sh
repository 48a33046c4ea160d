#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and all run scratch stay under .bench_build/
# in the current directory; nothing is fetched (GOPROXY=off).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# The benchmark runs as a child rather than through exec: RUSAGE_CHILDREN,
# from which it reads worker CPU and peak RSS, would otherwise still hold
# the go build above.
"$out/perfbench" "$@" &
pid=$!
trap 'kill -TERM "$pid" 2>/dev/null || true' TERM INT
status=0
wait "$pid" || status=$?
# A trapped signal ends the first wait early; wait for the benchmark itself.
while kill -0 "$pid" 2>/dev/null; do
	wait "$pid" || status=$?
done
exit "$status"
