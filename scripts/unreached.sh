#!/usr/bin/env bash
# Lists the library's `pub fn`s that no library code names, and says
# what does reach each one:
#   "library" is every `crates/*/src` file up to its first `#[cfg(test)]`,
#   maya-lint excluded, with `//` comment lines (docs included) dropped;
#   a `pub fn` in it is reached when its name occurs there more often
#   than it is defined (`fn <name>`). Names, not paths, are matched, so
#   two methods of one name count as one, and a function that only an
#   unreached one names counts as reached.
# Each unreached function is tagged with the callers that name it:
#   test      crates/*/tests, the root tests/, and `#[cfg(test)]` code
#   example   examples/
#   benchmark benchmark/ (its target/ excluded)
#   nothing   none of them
#
#   scripts/unreached.sh      one line per function, then the count
#
# Run it on the parent and on the change; the difference is the report.
set -euo pipefail
export LC_ALL=C

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Splits each file at its first `#[cfg(test)]`: the part before it goes
# to $1 (comment lines dropped), the part after it to $2.
split() {
    local lib="$1" tests="$2"
    shift 2
    awk -v lib="$lib" -v tests="$tests" '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && $0 !~ /^[[:space:]]*\/\// { print > lib }
        !live { print > tests }
    ' "$@"
}

mapfile -t lib_files < <(find crates/*/src -name '*.rs' -not -path 'crates/maya-lint/*' | sort)
split "$tmp/lib" "$tmp/test" "${lib_files[@]}"
find crates/*/tests tests -name '*.rs' -exec cat {} + >>"$tmp/test"
find examples -name '*.rs' -exec cat {} + >"$tmp/example"
find benchmark -path benchmark/target -prune -o -name '*.rs' -exec cat {} + >"$tmp/benchmark"

# Prints "<count> <identifier>" for every identifier in file $1.
words() { grep -ohE '[A-Za-z_][A-Za-z0-9_]*' "$1" | sort | uniq -c | awk '{ print $2, $1 }' | sort; }
words "$tmp/lib" >"$tmp/lib.words"
grep -ohE '\bfn [A-Za-z_][A-Za-z0-9_]*' "$tmp/lib" | awk '{ print $2 }' | sort | uniq -c |
    awk '{ print $2, $1 }' | sort >"$tmp/lib.defs"
for caller in test example benchmark; do
    words "$tmp/$caller" | awk '{ print $1 }' >"$tmp/$caller.words"
done

# Every `pub fn` before its file's first `#[cfg(test)]`: "<name> <file>:<line>".
awk '
    FNR == 1 { live = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
    live && match($0, /^[[:space:]]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), w, " ")
        print w[n], FILENAME ":" FNR
    }
' "${lib_files[@]}" | sort >"$tmp/pub"

join "$tmp/pub" "$tmp/lib.words" | join - "$tmp/lib.defs" |
    awk '$3 > $4 { print $1 }' | sort -u >"$tmp/reached"

count=0
while read -r name at; do
    tags=()
    for caller in test example benchmark; do
        grep -qxF "$name" "$tmp/$caller.words" && tags+=("$caller")
    done
    ((${#tags[@]})) || tags=(nothing)
    printf '%-48s %-24s %s\n' "$at" "$name" "$(IFS=,; echo "${tags[*]}")"
    count=$((count + 1))
done < <(join -v 1 "$tmp/pub" "$tmp/reached" | sort -k2,2V)
echo "$count unreached"
