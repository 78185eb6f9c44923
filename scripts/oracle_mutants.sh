#!/usr/bin/env bash
# Seeded mutants of the executor, one in each piece the executor used to
# share with its test oracle — a comparison arm of the expression
# evaluator, the lane pairing of the fold kernels, the ordinal branch of
# the ORDER BY rule — and four the oracle never needed: the post-join
# WHERE's columns dropped from what the joins below it materialize, a
# derived leaf's columns claiming string storage before it has run (a
# LIKE kernel then meets an integer column), a float column's cells
# keyed by their raw bits in `Column::key`, the key of every hash join,
# group and DISTINCT (`1.0` then no longer joins `1`, nor `-0.0` groups
# with `0.0`), and a set operation's arms appended in the first arm's
# storage instead of the layout of both (a float arm's cells then read 0
# in an integer column). For each, a copy of the tree gets the one-line change
# and the differential suites run against it; a
# mutant they do not kill means the oracle has stopped checking that
# piece. One more mutant is the analysis's: a derived table's passed-
# through columns lose the lineage the planner records for the
# sensitivity analysis, and the analysis suites (flex-core's unit tests,
# `sensitivity_soundness`, `analysis_pinning`) must kill it. And two are
# the storage's: the column builder forgets to mark NULLs, and a string
# cell's slice of its column's buffer drops its last byte. The oracle reads
# a table's rows back out of that same storage, so the differential suites
# cannot see a storage bug; flex-db's unit tests, which pin the storage
# against the rows written, must kill them.
#
#   scripts/oracle_mutants.sh [checkout]
#
# The copy lives under <checkout>/target/mutants/ (the default checkout is
# this one), with its own build directory shared by the mutants. Exits
# non-zero if any mutant survives, or if one does not apply or compile.
set -euo pipefail

root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
suites=(cargo test -q -p flex-db --test differential --test exec_trace)
analysis_suites=(cargo test -q -p flex-core -p flex --lib --test sensitivity_soundness
    --test analysis_pinning)
storage_suites=(cargo test -q -p flex-db --lib)

# file | line as written | line mutated
mutants=(
    "crates/db/src/expr.rs|BinaryOperator::LtEq => ord != Ordering::Greater,|BinaryOperator::LtEq => ord == Ordering::Less,"
    "crates/db/src/aggregate.rs|((acc[0] + acc[1]) + (acc[2] + acc[3]))|((acc[0] + acc[2]) + (acc[1] + acc[3]))"
    "crates/db/src/bind.rs|Ok(Some(idx as usize - 1))|Ok(Some(out_cols.len() - idx as usize))"
    "crates/db/src/plan.rs|if let Some(p) = &post_filter {|if let Some(p) = None::<&CompiledExpr> {"
    "crates/db/src/plan.rs|let phys = vec![Phys::Mixed; cols.len()];|let phys = vec![Phys::Str; cols.len()];"
    "crates/db/src/column.rs|ColumnData::Float64(xs) => BorrowKey::from_float(xs[i]),|ColumnData::Float64(xs) => BorrowKey::FloatBits(xs[i].to_bits()),"
    "crates/db/src/column.rs|let layout = add.layout();|let layout = col.layout();"
)
analysis_mutants=(
    "crates/db/src/plan.rs|TailItem::Source(c) => block.lineage[*c],|TailItem::Source(_) => None,"
)
storage_mutants=(
    "crates/db/src/column.rs|self.nulls.set(i);|{}"
    "crates/db/src/column.rs|&self.text[self.offsets[i]..self.offsets[i + 1]]|&self.text[self.offsets[i]..self.offsets[i + 1] - 1]"
)

rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && tar --exclude=./target --exclude=./.git -cf - .) | tar -xf - -C "$tree"

survived=0
# mutate <suite array name> <mutant>...
mutate() {
    local -n suite=$1
    shift
    for mutant in "$@"; do
        IFS='|' read -r file from to <<<"$mutant"
        cp "$root/$file" "$tree/$file"
        if [ "$(grep -cF -- "$from" "$tree/$file")" != 1 ]; then
            echo "mutant does not apply: $file has no single \`$from\`" >&2
            exit 2
        fi
        FROM=$from TO=$to perl -pi -e 's/\Q$ENV{FROM}\E/$ENV{TO}/' "$tree/$file"
        if ! (cd "$tree" && "${suite[@]}" --no-run >/dev/null 2>&1); then
            echo "mutant does not compile: $file: $to" >&2
            exit 2
        fi
        if (cd "$tree" && "${suite[@]}" >/dev/null 2>&1); then
            echo "SURVIVED  $file: $to"
            survived=1
        else
            echo "killed    $file: $to"
        fi
        cp "$root/$file" "$tree/$file"
    done
}
mutate suites "${mutants[@]}"
mutate analysis_suites "${analysis_mutants[@]}"
mutate storage_suites "${storage_mutants[@]}"
exit "$survived"
