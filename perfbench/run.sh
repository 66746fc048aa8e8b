#!/usr/bin/env bash
# Builds the benchmark and the eccspecd daemon from this checkout's
# sources, then measures one workload:
#
#   bash perfbench/run.sh --workload fleet-calib --seed 1 --seconds 25 --trace 0
#
# Build output and every file a run writes stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout, the Go build cache and temporary files included.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/eccspecd" ]; then
	echo "run.sh: no eccspec sources under $root (go.mod, cmd/eccspecd)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
# With telemetry on (the default "local" mode) the go command forks a
# detached sidecar that outlives the build; "off" keeps it from starting.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/eccspecd" ./cmd/eccspecd) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=none
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
exec "$out/perfbench" -root "$root" -bin "$out" -commit "$commit" "$@"
