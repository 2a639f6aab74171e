#!/usr/bin/env bash
# The benchmark's one command: builds `perf` in release mode from this
# checkout, then runs it from the checkout's root with the arguments
# given (see examples/perf/main.rs or bench/README.md for them).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path bench/Cargo.toml 1>&2

# The machine fingerprint's parts the program cannot read from /proc.
export PERF_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export PERF_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  commit="$commit-dirty"
fi
export PERF_COMMIT="$commit"

exec "$CARGO_TARGET_DIR/release/perf" "$@"
