#!/usr/bin/env bash
# Count the Rust lines under crates/, split into non-test, test and bench.
#
# Rule: every line counts, blank and comment lines included.
#   - In a file under crates/*/src, the lines before the file's first
#     top-level `#[cfg(test)]` (one at column 0, as on a `mod tests`) are
#     non-test and the lines from it on are test; a file without one is all
#     non-test. An indented `#[cfg(test)]` (a test-only field or method)
#     stays non-test.
#   - Every file under crates/*/tests is test.
#   - Every file under crates/*/benches is bench: host-side timing code,
#     counted on its own line and in neither of the other two.
# Usage: scripts/loc.sh [DIR]   (DIR defaults to the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

src_split() {
    # Prints "<non-test> <test>" summed over the given files.
    awk 'FNR == 1 { in_test = 0 }
         /^#\[cfg\(test\)\]/ { in_test = 1 }
         { if (in_test) test++; else code++ }
         END { printf "%d %d\n", code, test }' "$@"
}
count_lines() { cat "$@" /dev/null | wc -l; }

mapfile -t src < <(find crates/*/src -name '*.rs' | sort)
mapfile -t tests < <(find crates/*/tests -name '*.rs' 2> /dev/null | sort)
mapfile -t benches < <(find crates/*/benches -name '*.rs' 2> /dev/null | sort)

read -r code src_test < <(src_split "${src[@]}")
test=$((src_test + $(count_lines "${tests[@]}")))
bench=$(count_lines "${benches[@]}")
echo "non-test $code"
echo "test     $test"
echo "bench    $bench"
