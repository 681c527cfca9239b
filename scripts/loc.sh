#!/usr/bin/env bash
# Counts first-party Rust lines in the form CHANGES.md reports them:
# "lines" are the lines before each file's first `#[cfg(test)]`, and
# "code" is the subset of those that is neither blank nor a `//` comment.
#
#   scripts/loc.sh            one row per crate (every `crates/*/src`), then the total
#   scripts/loc.sh FILE...    one row per file
#
# Run it on the parent and on the change; the difference is the report.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Prints "<lines> <code>" summed over the files given.
count() {
    awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live { lines++; if ($0 !~ /^[[:space:]]*(\/\/|$)/) code++ }
        END { print lines + 0, code + 0 }
    ' "$@"
}

row() { printf '%7s %7s  %s\n' "$@"; }

row lines code name
if (($#)); then
    for f in "$@"; do
        read -r lines code < <(count "$f")
        row "$lines" "$code" "$f"
    done
    exit 0
fi

total_lines=0 total_code=0
for src in "$repo"/crates/*/src; do
    mapfile -t files < <(find "$src" -name '*.rs' | sort)
    ((${#files[@]})) || continue
    read -r lines code < <(count "${files[@]}")
    row "$lines" "$code" "$(basename "$(dirname "$src")")"
    total_lines=$((total_lines + lines)) total_code=$((total_code + code))
done
row "$total_lines" "$total_code" total
