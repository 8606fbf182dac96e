#!/bin/sh
# Product-code size: the non-test, non-comment, non-blank lines of every
# Rust file under the given paths (default: crates src), one count per file
# and the total. Each file is cut at its first top-level `#[cfg(test)]` (one
# that starts a line: the test module, or a test-only item before it); lines
# whose first non-blank characters are `//` (so `///` and `//!` docs too) and
# blank lines are not counted.
#
# Usage, from anywhere in the repository: scripts/loc.sh [path...]
# Paths are relative to the repository root.
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates src
find "$@" -name '*.rs' | sort | while read -r file; do
    lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file" |
        grep -v '^[[:space:]]*//' | grep -cv '^[[:space:]]*$' || true)
    printf '%7d %s\n' "$lines" "$file"
done | awk '{ print; total += $1 } END { printf "%7d total\n", total }'
