#!/bin/sh
# The two numbers every CHANGES.md entry reports: non-test lines (each
# file up to its first `#[cfg(test)]` module — a `#[cfg(test)]` on a
# field, statement or function is counted) of crates/{db,service,core}/src
# (and, on a line of its own, of crates/sql/src), and the ServiceConfig
# field ("knob") count. `scripts/loc.sh <dir>`
# measures another checkout, e.g. a clone of the parent commit.
set -eu
cd "${1:-$(dirname "$0")/..}"
non_test_lines() {
    # A `#[cfg(test)]` line is held until the next line says whether it
    # opens a module (the file's test code starts there) or not.
    find "crates/$1/src" -name '*.rs' -exec \
        awk 'FNR == 1 { n += held; held = 0; test = 0 }
            test { next }
            held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_]+/ { test = 1; next }
            held { n++; held = 0 }
            /#\[cfg\(test\)\]/ { held = 1; next }
            { n++ }
            END { print n + held }' {} +
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
