#!/bin/sh
# The two numbers every CHANGES.md entry reports: non-test lines (each
# file up to its first `#[cfg(test)]`) of crates/{db,service,core}/src
# (and, on a line of its own, of crates/sql/src), and the ServiceConfig
# field ("knob") count. `scripts/loc.sh <dir>`
# measures another checkout, e.g. a clone of the parent commit.
set -eu
cd "${1:-$(dirname "$0")/..}"
non_test_lines() {
    find "crates/$1/src" -name '*.rs' -exec \
        awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' {} +
}
total=0
for crate in db service core; do
    n=$(non_test_lines "$crate")
    echo "crates/$crate/src: $n non-test lines"
    total=$((total + n))
done
echo "crates/{db,service,core}/src: $total non-test lines"
# Outside the total, so the history of that number stays comparable.
echo "crates/sql/src: $(non_test_lines sql) non-test lines"
knobs=$(awk '/^pub struct ServiceConfig/ { on = 1; next } on && /^}/ { exit }
    on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' crates/service/src/service.rs)
echo "ServiceConfig knobs: $knobs"
