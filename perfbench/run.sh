#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs one
# workload. Usage, from the repository root:
#   bash perfbench/run.sh --workload certify --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .perfbench/ in the
# checkout; without the module sources beside perfbench/ the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
state="$root/.perfbench"
mkdir -p "$state"
export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOTMPDIR="$state"
export XDG_CONFIG_HOME="$state/config" HOME="$state/home"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOWORK=off GOPROXY=off
mkdir -p "$HOME" "$XDG_CONFIG_HOME"
cd "$root/perfbench"
go build -o "$state/perfbench" . >&2
cd "$root"
exec "$state/perfbench" "$@"
