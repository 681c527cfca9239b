#!/usr/bin/env bash
# Counts the independently settable values of each crate's public
# surface, in the form CHANGES.md reports them:
#   "setters" are `pub fn`s that take `mut self` or are named `with_*`;
#   "fields"  are `pub` fields of `*Config`, `*Spec` and `*Builder` structs.
# Only lines before each file's first `#[cfg(test)]` count, as in loc.sh.
#
#   scripts/knobs.sh            one row per crate (every `crates/*/src`), then the total
#   scripts/knobs.sh FILE...    one row per file
#
# Run it on the parent and on the change; the difference is the report.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Prints "<setters> <fields>" summed over the files given. A signature
# rustfmt wrapped after its `(` is judged by its next line.
count() {
    awk '
        FNR == 1 { live = 1; wrapped = 0; knob = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        !live { next }
        wrapped { if ($0 ~ /mut self/) setters++; wrapped = 0 }
        /^[[:space:]]*pub fn [A-Za-z0-9_]+/ {
            if ($0 ~ /pub fn with_/ || $0 ~ /mut self/) setters++
            else if ($0 ~ /\($/) wrapped = 1
        }
        /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Spec|Builder)[^A-Za-z0-9_;(]*\{/ { knob = 1; next }
        knob && /^}/ { knob = 0 }
        knob && /^[[:space:]]*pub [a-z_][a-z0-9_]*:/ { fields++ }
        END { print setters + 0, fields + 0 }
    ' "$@"
}

row() { printf '%7s %7s  %s\n' "$@"; }

row setters fields name
if (($#)); then
    for f in "$@"; do
        read -r setters fields < <(count "$f")
        row "$setters" "$fields" "$f"
    done
    exit 0
fi

total_setters=0 total_fields=0
for src in "$repo"/crates/*/src; do
    mapfile -t files < <(find "$src" -name '*.rs' | sort)
    ((${#files[@]})) || continue
    read -r setters fields < <(count "${files[@]}")
    row "$setters" "$fields" "$(basename "$(dirname "$src")")"
    total_setters=$((total_setters + setters)) total_fields=$((total_fields + fields))
done
row "$total_setters" "$total_fields" total
