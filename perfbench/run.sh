#!/usr/bin/env bash
# Runs the store's end-to-end benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the deployment's server and the load generator from the
# checkout's sources, then runs the load generator, which starts the server
# as its own process. Everything it writes (Go build cache, binaries, WAL data
# directories, span files) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/perfbench
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local
export GOENV=off
export GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$out/server" ./server
	go build -o "$out/loadgen" ./loadgen
) >&2

exec "$out/loadgen" -server "$out/server" -out "$out" "$@"
