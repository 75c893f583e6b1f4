#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build cache, the binary and the spans
# of traced runs live in ${CARGO_TARGET_DIR:-.bench_build} under the root,
# so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# Go's build cache, module path and user config (where the toolchain keeps
# its telemetry counters) all move under $out.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
