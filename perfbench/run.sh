#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ at the repository root, so the benchmark reads and writes
# nothing outside the checkout. Build output goes to stderr; stdout carries
# only the benchmark's report, whose last line is the JSON result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root is not a breathe checkout (no go.mod or internal/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off

commit=unknown
if [[ -d "$root/.git" ]] && command -v git >/dev/null; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

(cd "$bench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" "$@"
