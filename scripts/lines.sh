#!/usr/bin/env bash
# Counts the lines of code in the tree, by the rule every line-count claim
# in CHANGES.md uses: tracked `.rs` and `Cargo.toml` files outside
# `benchmark/` (`vendor/` included), excluding `tests/` directories,
# everything from a file's first `#[cfg(test)]` on, blank lines and
# `///` / `//!` doc lines.
#
# Usage, from the repo root: scripts/lines.sh [PATH...]
# With no PATH the whole tree is counted; otherwise only files under the
# given paths (e.g. `scripts/lines.sh crates/tensor/src`). Prints one number.
set -euo pipefail

git ls-files -- "${@:-.}" | grep -E '(\.rs|(^|/)Cargo\.toml)$' | grep -v '^benchmark/' | grep -Ev '(^|/)tests/' | while read -r f; do awk '/^[[:space:]]*#\[cfg\(test\)\]/ {exit} /^[[:space:]]*$/ {next} /^[[:space:]]*\/\/[\/!]/ {next} {n++} END {print n+0}' "$f"; done | awk '{s+=$1} END {print s}'
