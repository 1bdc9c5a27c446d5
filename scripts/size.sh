#!/usr/bin/env bash
# The size numbers every PR reports (ROADMAP item 5: "lines and public
# items removed"). Plain find / grep / wc / awk, nothing downloaded.
#
#   scripts/size.sh               # the static numbers
#   scripts/size.sh --with-tests  # also `cargo test -q` wall time
#
# A file's test lines are everything from its first `#[cfg(test)]` line
# on, and whole files under a `tests/` directory; the rest is non-test.
set -eu
cd "$(dirname "$0")/.."

rs_files() { find "$@" -name '*.rs' -not -path '*/target/*' | sort; }

# prints "<non-test lines> <test lines>" summed over the files on stdin
split_lines() {
    xargs awk '
        FNR == 1 { in_test = (FILENAME ~ /\/tests\//) }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) t++; else n++ }
        END { printf "%d %d\n", n, t }'
}

# public items in the non-test part of the files on stdin
pub_items() {
    xargs awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && /^[[:space:]]*pub (unsafe )?(fn|struct|enum|trait|const|static|type|mod|use) / { n++ }
        END { printf "%d\n", n }'
}

# `pub` fields of `pub struct <name>` in <file>
fields() {
    awk -v name="$2" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z_]+:/ { n++ }
        END { printf "%d\n", n }' "$1"
}

read -r crates_src crates_test <<<"$(rs_files crates | split_lines)"
read -r _ top_test <<<"$(rs_files tests | split_lines)"
total=$(rs_files . | xargs cat | wc -l)

echo "non-test *.rs lines under crates/   $crates_src"
echo "test *.rs lines (crates/ + tests/)  $((crates_test + top_test))"
echo "total *.rs lines (whole repo)       $total"
for c in gda server rma; do
    printf 'pub items in %-23s %s\n' "crates/$c/src" "$(rs_files crates/$c/src | pub_items)"
done
echo "GdaConfig fields                    $(fields crates/gda/src/config.rs GdaConfig)"
echo "ServerOptions fields                $(fields crates/server/src/server.rs ServerOptions)"

if [ "${1:-}" = "--with-tests" ]; then
    log=$(mktemp)
    cargo test -q --offline --no-run >/dev/null 2>&1
    start=$(date +%s)
    cargo test -q --offline >"$log" 2>&1 && status=ok || status=FAILED
    echo "cargo test -q wall time             $(($(date +%s) - start)) s ($status)"
    [ "$status" = ok ] || grep -E 'panicked|FAILED|^error' "$log"
    rm -f "$log"
fi
