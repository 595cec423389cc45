#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload tim-made-serial --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS_DIR NEW_RESULTS_DIR
#
# Everything the build and the runs write (Go build cache, binary, result
# files, spans, checkpoints) stays under .bench_build/ in the directory the
# script is started from, which must be the repository root.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
mkdir -p "$GOTMPDIR" "$HOME"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
if [ "${1:-}" = compare ]; then
	shift
	exec "$out/perfbench" compare --root "$root" "$@"
fi
exec "$out/perfbench" --root "$root" --out "$out" "$@"
