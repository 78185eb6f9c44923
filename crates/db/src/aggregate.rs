//! Aggregate functions: the seven used by the paper's workload study
//! (count, sum, avg, min, max, median, stddev) plus `COUNT(DISTINCT ...)`.
//!
//! Which names spell them is [`flex_sql::AGGREGATE_FUNCTIONS`]' to say —
//! `count`, `sum`, `avg` (alias `mean`), `min`, `max`, `median`, `stddev`
//! (alias `stddev_samp`) — the one table [`AggFunc::parse`], the planner's
//! "is this block aggregated" and the sensitivity analysis all read.

use crate::error::{DbError, Result};
use crate::expr::CompiledExpr;
use crate::morsel;
use crate::value::{Value, ValueKey};
use flex_sql::Aggregate;
use std::collections::HashSet;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-null values.
    Count,
    /// `COUNT(DISTINCT expr)`.
    CountDistinct,
    /// `SUM(expr)` over non-null numeric values (fixed-shape tree fold).
    Sum,
    /// `AVG(expr)` — tree-folded sum divided by the non-null count.
    Avg,
    /// `MIN(expr)` under `total_cmp` ordering (first-appearance wins ties).
    Min,
    /// `MAX(expr)` under `total_cmp` ordering (first-appearance wins ties).
    Max,
    /// Median of non-null numeric values (average of middle two for even n).
    Median,
    /// Sample standard deviation (n−1 denominator).
    Stddev,
}

impl AggFunc {
    /// Resolve a SQL function name (+ DISTINCT flag, + whether the first
    /// argument is `*`) to an aggregate.
    pub fn parse(name: &str, distinct: bool, wildcard: bool) -> Option<AggFunc> {
        Some(match Aggregate::parse(name)? {
            Aggregate::Count if wildcard => AggFunc::CountStar,
            Aggregate::Count if distinct => AggFunc::CountDistinct,
            Aggregate::Count => AggFunc::Count,
            Aggregate::Sum => AggFunc::Sum,
            Aggregate::Avg => AggFunc::Avg,
            Aggregate::Min => AggFunc::Min,
            Aggregate::Max => AggFunc::Max,
            Aggregate::Median => AggFunc::Median,
            Aggregate::Stddev => AggFunc::Stddev,
        })
    }
}

/// A fully-compiled aggregate call: the function plus its argument
/// expression (absent for `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Which aggregate function to apply.
    pub func: AggFunc,
    /// The compiled argument expression (`None` for `COUNT(*)`).
    pub arg: Option<CompiledExpr>,
}

impl AggSpec {
    /// Compute the aggregate over a set of input rows. `positions[i]` is
    /// row `i`'s position in the post-WHERE input sequence — the same
    /// position the columnar operators see as their selection index — and
    /// `fold_rows` is the reduction-grid chunk size, so `SUM`/`AVG`/
    /// `STDDEV` evaluate the exact fixed-shape reduction tree the
    /// columnar aggregates evaluate (bit-identical floats on either
    /// path, at any parallelism).
    pub fn compute(
        &self,
        rows: &[&[Value]],
        positions: &[usize],
        fold_rows: usize,
    ) -> Result<Value> {
        debug_assert_eq!(rows.len(), positions.len());
        match self.func {
            AggFunc::CountStar => Ok(Value::Int(rows.len() as i64)),
            AggFunc::Count => {
                let arg = self.arg_expr()?;
                let mut n = 0i64;
                for row in rows {
                    if !arg.eval(row)?.is_null() {
                        n += 1;
                    }
                }
                Ok(Value::Int(n))
            }
            AggFunc::CountDistinct => {
                let arg = self.arg_expr()?;
                let mut seen: HashSet<ValueKey> = HashSet::new();
                for row in rows {
                    let v = arg.eval(row)?;
                    if !v.is_null() {
                        seen.insert(ValueKey::from(&v));
                    }
                }
                Ok(Value::Int(seen.len() as i64))
            }
            AggFunc::Sum => {
                let pairs = self.chunked_args(rows, positions, fold_rows)?;
                if pairs.is_empty() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(tree_sum(&pairs)))
                }
            }
            AggFunc::Avg => {
                let pairs = self.chunked_args(rows, positions, fold_rows)?;
                if pairs.is_empty() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(tree_sum(&pairs) / pairs.len() as f64))
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let arg = self.arg_expr()?;
                let mut best: Option<Value> = None;
                for row in rows {
                    let v = arg.eval(row)?;
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let keep_new = match v.total_cmp(&b) {
                                std::cmp::Ordering::Less => self.func == AggFunc::Min,
                                std::cmp::Ordering::Greater => self.func == AggFunc::Max,
                                std::cmp::Ordering::Equal => false,
                            };
                            if keep_new {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                Ok(best.unwrap_or(Value::Null))
            }
            AggFunc::Median => {
                let pairs = self.chunked_args(rows, positions, fold_rows)?;
                Ok(median_of(pairs.into_iter().map(|(_, x)| x).collect()))
            }
            AggFunc::Stddev => Ok(stddev_tree(&self.chunked_args(rows, positions, fold_rows)?)),
        }
    }

    fn arg_expr(&self) -> Result<&CompiledExpr> {
        self.arg.as_ref().ok_or_else(|| {
            DbError::InvalidAggregate(format!("{:?} requires an argument", self.func))
        })
    }

    /// Evaluate the argument over all rows, dropping NULLs, requiring
    /// numeric values; each kept value is tagged with its row's
    /// fold-chunk id (`position / fold_rows`).
    fn chunked_args(
        &self,
        rows: &[&[Value]],
        positions: &[usize],
        fold_rows: usize,
    ) -> Result<Vec<(usize, f64)>> {
        let arg = self.arg_expr()?;
        let step = fold_rows.max(1);
        let mut out = Vec::with_capacity(rows.len());
        for (row, &pos) in rows.iter().zip(positions) {
            let v = arg.eval(row)?;
            if v.is_null() {
                continue;
            }
            let x = v.as_f64().ok_or_else(|| DbError::TypeMismatch {
                context: format!("{:?} argument", self.func),
                expected: "number".to_string(),
                found: v.type_name().to_string(),
            })?;
            out.push((pos / step, x));
        }
        Ok(out)
    }
}

// ---- fixed-shape reduction tree ------------------------------------------
//
// `SUM`/`AVG`/`STDDEV` accumulate through a reduction tree whose shape is
// a pure function of the data layout — never of worker count or morsel
// scheduling. The input sequence (the post-WHERE selection, in row order)
// is cut into *fold chunks* of `fold_rows` positions each (position `p`
// belongs to chunk `p / fold_rows`). For each group, every chunk holding
// at least one of the group's values contributes exactly one *leaf*: the
// 8-lane interleaved sum of those values ([`leaf_sum`], the
// autovectorizable kernel). The leaves then combine bottom-up in adjacent
// pairs ([`tree_combine`]). The executor at every worker count and the
// oracle evaluate this same function; scheduling morsels always cover
// whole fold chunks (`morsel::Parallelism::sched_rows` is a multiple of
// `fold_rows`), so a leaf is never split across workers and the result
// bits cannot move with the thread count. See docs/ARCHITECTURE.md.

/// Interleaved accumulator lanes in the leaf kernel. Eight f64 lanes fill
/// one or two vector registers on contemporary SIMD widths.
pub(crate) const FOLD_LANES: usize = 8;

/// Reduce the eight lane accumulators in a fixed pairwise tree.
#[inline]
fn combine_lanes(acc: &[f64; FOLD_LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Sum one reduction leaf of dense values: the i-th value lands in lane
/// `i % 8`, and the lanes combine pairwise. Interleaving removes the
/// serial dependency between consecutive float additions, so the loop
/// autovectorizes; the streaming form ([`FoldAcc::push`]) applies the
/// identical per-lane additions and is therefore bit-identical.
#[inline]
pub(crate) fn leaf_sum(vals: &[f64]) -> f64 {
    let mut acc = [0.0f64; FOLD_LANES];
    let mut chunks = vals.chunks_exact(FOLD_LANES);
    for c in chunks.by_ref() {
        for (a, x) in acc.iter_mut().zip(c) {
            *a += *x;
        }
    }
    for (a, x) in acc.iter_mut().zip(chunks.remainder()) {
        *a += *x;
    }
    combine_lanes(&acc)
}

/// [`leaf_sum`] over an `i64` column slice, casting each value exactly
/// where the scalar path casts it so the per-lane addition sequence is
/// identical.
#[inline]
pub(crate) fn leaf_sum_ints(vals: &[i64]) -> f64 {
    let mut acc = [0.0f64; FOLD_LANES];
    let mut chunks = vals.chunks_exact(FOLD_LANES);
    for c in chunks.by_ref() {
        for (a, x) in acc.iter_mut().zip(c) {
            *a += *x as f64;
        }
    }
    for (a, x) in acc.iter_mut().zip(chunks.remainder()) {
        *a += *x as f64;
    }
    combine_lanes(&acc)
}

/// Combine per-chunk leaf sums bottom-up in adjacent pairs —
/// `(l0+l1), (l2+l3), …` with an odd tail carried up unchanged — until
/// one value remains. The association is a pure function of
/// `level.len()`: the same leaves produce the same bits however many
/// workers computed them.
pub(crate) fn tree_combine(mut level: Vec<f64>) -> f64 {
    debug_assert!(!level.is_empty(), "tree_combine needs at least one leaf");
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut pairs = level.chunks_exact(2);
        for p in pairs.by_ref() {
            next.push(p[0] + p[1]);
        }
        next.extend_from_slice(pairs.remainder());
        level = next;
    }
    level[0]
}

/// One group's finished tree-fold input: per-chunk leaf sums in chunk
/// order plus the total value count. Chunks holding no value for the
/// group contribute no leaf, so the leaf list — and hence the tree shape
/// — is identical however the chunks were distributed over workers.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldState {
    leaves: Vec<f64>,
    count: u64,
}

impl FoldState {
    /// Non-null values folded in (across all leaves).
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Append a later-in-row-order state (the morsel-order merge).
    pub(crate) fn append(&mut self, other: FoldState) {
        if self.leaves.is_empty() {
            self.leaves = other.leaves;
        } else {
            self.leaves.extend(other.leaves);
        }
        self.count += other.count;
    }

    /// Tree-combine the leaves (caller checks `count() > 0`).
    pub(crate) fn into_sum(self) -> f64 {
        tree_combine(self.leaves)
    }
}

/// Streaming builder of one group's [`FoldState`]: values arrive in row
/// order tagged with their fold-chunk id, and a chunk-id change closes
/// the current leaf. Within a leaf the i-th value lands in lane `i % 8`,
/// matching [`leaf_sum`] bit for bit.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldAcc {
    lanes: [f64; FOLD_LANES],
    lane_n: usize,
    cur_chunk: usize,
    state: FoldState,
}

impl FoldAcc {
    pub(crate) fn new() -> FoldAcc {
        FoldAcc::default()
    }

    /// Fold in the next value of this group; `chunk` ids must arrive in
    /// non-decreasing order (row order guarantees it).
    pub(crate) fn push(&mut self, chunk: usize, x: f64) {
        if self.lane_n > 0 && chunk != self.cur_chunk {
            self.close_leaf();
        }
        self.cur_chunk = chunk;
        self.lanes[self.lane_n % FOLD_LANES] += x;
        self.lane_n += 1;
        self.state.count += 1;
    }

    /// Append a whole leaf computed externally (the dense contiguous
    /// kernel path); must not interleave with streamed values of an open
    /// leaf.
    pub(crate) fn push_leaf(&mut self, sum: f64, count: u64) {
        debug_assert_eq!(self.lane_n, 0, "push_leaf while a streamed leaf is open");
        self.state.leaves.push(sum);
        self.state.count += count;
    }

    fn close_leaf(&mut self) {
        self.state.leaves.push(combine_lanes(&self.lanes));
        self.lanes = [0.0; FOLD_LANES];
        self.lane_n = 0;
    }

    pub(crate) fn finish(mut self) -> FoldState {
        if self.lane_n > 0 {
            self.close_leaf();
        }
        self.state
    }
}

/// Tree-sum of `(fold-chunk id, value)` pairs in row order (non-empty).
pub(crate) fn tree_sum(pairs: &[(usize, f64)]) -> f64 {
    let mut acc = FoldAcc::new();
    for &(chunk, x) in pairs {
        acc.push(chunk, x);
    }
    acc.finish().into_sum()
}

/// Sample standard deviation through the fixed-shape tree (n−1
/// denominator; NULL below two values): mean = tree-sum / n, then M2 =
/// tree-sum of (x − mean)² over the same chunk grid. The row-wise form
/// (the oracle's); `vexec::stddev_pass` folds the same two trees morsel
/// by morsel.
pub(crate) fn stddev_tree(pairs: &[(usize, f64)]) -> Value {
    if pairs.len() < 2 {
        return Value::Null;
    }
    let n = pairs.len() as f64;
    let mean = tree_sum(pairs) / n;
    let mut m2 = FoldAcc::new();
    for &(chunk, x) in pairs {
        m2.push(chunk, (x - mean).powi(2));
    }
    Value::Float((m2.finish().into_sum() / (n - 1.0)).sqrt())
}

/// Per-morsel partial state of one aggregate, over morsel-local group
/// ids. The grouped operator in [`crate::vexec`] computes one of these
/// per (morsel, aggregate), then merges them **in morsel order**;
/// [`AggPartial::merge`] is written so that the merged state is exactly
/// what one morsel covering the whole selection would have built:
///
/// - counts add (integers, order-free);
/// - distinct key sets union (order-free);
/// - `MIN`/`MAX` keep the earlier morsel's value on `total_cmp` ties,
///   reproducing first-occurrence-wins;
/// - `SUM`/`AVG` (and the `STDDEV` mean pass) carry per-fold-chunk leaf
///   sums ([`FoldState`]): the fold grid is cut by absolute position
///   (never by morsel boundary) and scheduling morsels cover whole
///   chunks, so concatenating leaves in morsel order rebuilds exactly
///   the single-morsel leaf list, and the single fixed-shape
///   [`tree_combine`] happens at [`AggPartial::finalize`];
/// - `MEDIAN` partials carry per-morsel **sorted runs**, merged by the
///   loser tree at finalize — `f64::total_cmp` is a total order over bit
///   patterns, so the merged sequence is bit-identical to sorting the
///   row-order concatenation.
#[derive(Debug)]
pub(crate) enum AggPartial {
    /// `COUNT(*)` / `COUNT(expr)`: per-group non-null counts.
    Counts(Vec<i64>),
    /// `COUNT(DISTINCT expr)`: per-group value-key sets.
    Distinct(Vec<HashSet<ValueKey>>),
    /// `SUM`/`AVG`/`STDDEV` (mean pass): per-group tree-fold leaves.
    Sums(Vec<FoldState>),
    /// `MEDIAN`: per-group sorted runs (one per merged morsel).
    Runs(Vec<Vec<Vec<f64>>>),
    /// `MIN`/`MAX` over a **single-typed** column: per-group best-so-far
    /// (`Value::Null` = no value yet). Sound only because the typed
    /// comparisons (`i64`, `f64::total_cmp`, strings, bools) are total
    /// orders, where a first-wins fold of per-morsel folds equals the
    /// left fold over all rows.
    Best(Vec<Value>),
    /// `MIN`/`MAX` over a `Mixed` column: per-group argument values in
    /// row order. `Value::total_cmp` is *not transitive* across physical
    /// types (Int-vs-Int compares exact `i64`, Int-vs-Float coerces
    /// through `f64`, so `2^53` f64-ties `2^53 + 1` but `i64`-beats it),
    /// so per-morsel winners cannot be merged — [`AggPartial::finalize`]
    /// replays the left fold over the concatenation instead.
    BestValues(Vec<Vec<Value>>),
}

impl AggPartial {
    /// Empty global accumulator for `ngroups` merged groups.
    /// `mixed_best` selects the value-collecting `MIN`/`MAX` shape and
    /// must match what the morsels produced (i.e. whether the
    /// argument column is `Mixed`).
    pub(crate) fn new_global(func: AggFunc, ngroups: usize, mixed_best: bool) -> AggPartial {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggPartial::Counts(vec![0; ngroups]),
            AggFunc::CountDistinct => AggPartial::Distinct(vec![HashSet::new(); ngroups]),
            AggFunc::Sum | AggFunc::Avg | AggFunc::Stddev => {
                AggPartial::Sums(vec![FoldState::default(); ngroups])
            }
            AggFunc::Median => AggPartial::Runs(vec![Vec::new(); ngroups]),
            AggFunc::Min | AggFunc::Max if mixed_best => {
                AggPartial::BestValues(vec![Vec::new(); ngroups])
            }
            AggFunc::Min | AggFunc::Max => AggPartial::Best(vec![Value::Null; ngroups]),
        }
    }

    /// Fold one morsel's local partial into this global accumulator.
    /// `gid_map[local_gid]` is the merged global group id. Must be called
    /// in morsel order (earlier morsels first) — that is what preserves
    /// row-order value concatenation and first-occurrence tie-breaking.
    pub(crate) fn merge(&mut self, local: AggPartial, gid_map: &[u32], func: AggFunc) {
        match (self, local) {
            (AggPartial::Counts(global), AggPartial::Counts(local)) => {
                for (g, n) in local.into_iter().enumerate() {
                    global[gid_map[g] as usize] += n;
                }
            }
            (AggPartial::Distinct(global), AggPartial::Distinct(local)) => {
                for (g, set) in local.into_iter().enumerate() {
                    let dst = &mut global[gid_map[g] as usize];
                    if dst.is_empty() {
                        *dst = set;
                    } else {
                        dst.extend(set);
                    }
                }
            }
            (AggPartial::Sums(global), AggPartial::Sums(local)) => {
                for (g, state) in local.into_iter().enumerate() {
                    global[gid_map[g] as usize].append(state);
                }
            }
            (AggPartial::Runs(global), AggPartial::Runs(local)) => {
                for (g, runs) in local.into_iter().enumerate() {
                    let dst = &mut global[gid_map[g] as usize];
                    if dst.is_empty() {
                        *dst = runs;
                    } else {
                        dst.extend(runs);
                    }
                }
            }
            (AggPartial::BestValues(global), AggPartial::BestValues(local)) => {
                for (g, vals) in local.into_iter().enumerate() {
                    let dst = &mut global[gid_map[g] as usize];
                    if dst.is_empty() {
                        *dst = vals;
                    } else {
                        dst.extend(vals);
                    }
                }
            }
            (AggPartial::Best(global), AggPartial::Best(local)) => {
                let min = func == AggFunc::Min;
                for (g, v) in local.into_iter().enumerate() {
                    if v.is_null() {
                        continue;
                    }
                    let dst = &mut global[gid_map[g] as usize];
                    let adopt = dst.is_null()
                        || match v.total_cmp(dst) {
                            std::cmp::Ordering::Less => min,
                            std::cmp::Ordering::Greater => !min,
                            std::cmp::Ordering::Equal => false,
                        };
                    if adopt {
                        *dst = v;
                    }
                }
            }
            _ => unreachable!("mismatched aggregate partial variants"),
        }
    }

    /// Turn the merged state into per-group output values — the same
    /// values (bit for bit) however many morsels were merged.
    pub(crate) fn finalize(self, func: AggFunc) -> Vec<Value> {
        match self {
            AggPartial::Counts(counts) => counts.into_iter().map(Value::Int).collect(),
            AggPartial::Distinct(sets) => sets
                .into_iter()
                .map(|s| Value::Int(s.len() as i64))
                .collect(),
            AggPartial::Sums(per) => per
                .into_iter()
                .map(|state| match func {
                    _ if state.count() == 0 => Value::Null,
                    // The one fixed-shape tree fold over the merged
                    // (row-order) leaf list.
                    AggFunc::Sum => Value::Float(state.into_sum()),
                    AggFunc::Avg => {
                        let n = state.count() as f64;
                        Value::Float(state.into_sum() / n)
                    }
                    // STDDEV needs a second (M2) pass with the merged
                    // means in hand; `vexec::stddev_pass` finalizes
                    // it from this mean-pass state.
                    _ => unreachable!("Sums partial finalized for {func:?}"),
                })
                .collect(),
            // Loser-tree merge of the morsel-order sorted runs: ties
            // break toward the earlier run, and `total_cmp`-equal floats
            // share a bit pattern, so this is the sorted concatenation.
            AggPartial::Runs(per) => per
                .into_iter()
                .map(|runs| {
                    median_of_sorted(&morsel::merge_sorted_runs(runs, None, |a, b| {
                        a.total_cmp(b)
                    }))
                })
                .collect(),
            AggPartial::Best(best) => best,
            // The Mixed-column left fold: values are in row order, first
            // occurrence wins `total_cmp` ties, and the non-transitive
            // cross-type comparisons happen in the oracle's
            // left-to-right sequence.
            AggPartial::BestValues(per) => {
                let min = func == AggFunc::Min;
                per.into_iter()
                    .map(|vals| {
                        let mut best: Option<Value> = None;
                        for v in vals {
                            best = Some(match best {
                                None => v,
                                Some(cur) => {
                                    let adopt = match v.total_cmp(&cur) {
                                        std::cmp::Ordering::Less => min,
                                        std::cmp::Ordering::Greater => !min,
                                        std::cmp::Ordering::Equal => false,
                                    };
                                    if adopt {
                                        v
                                    } else {
                                        cur
                                    }
                                }
                            });
                        }
                        best.unwrap_or(Value::Null)
                    })
                    .collect()
            }
        }
    }
}

/// Median of the collected non-null numeric arguments (NULL when empty,
/// average of the middle two for even counts). Shared by both execution
/// engines so grouped results are bit-identical.
pub(crate) fn median_of(mut nums: Vec<f64>) -> Value {
    nums.sort_by(f64::total_cmp);
    median_of_sorted(&nums)
}

/// Median of an already-`total_cmp`-sorted sequence — the executor's
/// entry point after the loser-tree run merge.
pub(crate) fn median_of_sorted(nums: &[f64]) -> Value {
    if nums.is_empty() {
        return Value::Null;
    }
    let n = nums.len();
    let m = if n % 2 == 1 {
        nums[n / 2]
    } else {
        (nums[n / 2 - 1] + nums[n / 2]) / 2.0
    };
    Value::Float(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col0() -> Option<CompiledExpr> {
        Some(CompiledExpr::Column(0))
    }

    fn rows(vals: &[Value]) -> Vec<Vec<Value>> {
        vals.iter().map(|v| vec![v.clone()]).collect()
    }

    fn compute(func: AggFunc, vals: &[Value]) -> Value {
        let spec = AggSpec {
            func,
            arg: if func == AggFunc::CountStar {
                None
            } else {
                col0()
            },
        };
        let owned = rows(vals);
        let refs: Vec<&[Value]> = owned.iter().map(|r| r.as_slice()).collect();
        let positions: Vec<usize> = (0..refs.len()).collect();
        spec.compute(&refs, &positions, morsel::DEFAULT_MORSEL_ROWS)
            .unwrap()
    }

    #[test]
    fn count_star_counts_all_rows() {
        assert_eq!(
            compute(AggFunc::CountStar, &[Value::Null, Value::Int(1)]),
            Value::Int(2)
        );
    }

    #[test]
    fn count_skips_nulls() {
        assert_eq!(
            compute(AggFunc::Count, &[Value::Null, Value::Int(1), Value::Int(2)]),
            Value::Int(2)
        );
    }

    #[test]
    fn count_distinct() {
        assert_eq!(
            compute(
                AggFunc::CountDistinct,
                &[Value::Int(1), Value::Int(1), Value::Int(2), Value::Null]
            ),
            Value::Int(2)
        );
    }

    #[test]
    fn sum_avg_empty_is_null() {
        assert_eq!(compute(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(compute(AggFunc::Avg, &[Value::Null]), Value::Null);
    }

    #[test]
    fn sum_and_avg() {
        let vals = [Value::Int(1), Value::Int(2), Value::Float(3.0)];
        assert_eq!(compute(AggFunc::Sum, &vals), Value::Float(6.0));
        assert_eq!(compute(AggFunc::Avg, &vals), Value::Float(2.0));
    }

    #[test]
    fn min_max_mixed_with_nulls() {
        let vals = [Value::Int(3), Value::Null, Value::Int(1), Value::Int(2)];
        assert_eq!(compute(AggFunc::Min, &vals), Value::Int(1));
        assert_eq!(compute(AggFunc::Max, &vals), Value::Int(3));
    }

    #[test]
    fn min_max_on_strings() {
        let vals = [Value::str("b"), Value::str("a"), Value::str("c")];
        assert_eq!(compute(AggFunc::Min, &vals), Value::str("a"));
        assert_eq!(compute(AggFunc::Max, &vals), Value::str("c"));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(
            compute(
                AggFunc::Median,
                &[Value::Int(3), Value::Int(1), Value::Int(2)]
            ),
            Value::Float(2.0)
        );
        assert_eq!(
            compute(
                AggFunc::Median,
                &[Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
            ),
            Value::Float(2.5)
        );
    }

    #[test]
    fn stddev_sample() {
        // stddev of {2, 4, 4, 4, 5, 5, 7, 9} with n-1 denominator ≈ 2.138
        let vals: Vec<Value> = [2, 4, 4, 4, 5, 5, 7, 9]
            .iter()
            .map(|&v| Value::Int(v))
            .collect();
        let Value::Float(s) = compute(AggFunc::Stddev, &vals) else {
            panic!("expected float");
        };
        assert!((s - 2.13809).abs() < 1e-4);
        assert_eq!(compute(AggFunc::Stddev, &[Value::Int(1)]), Value::Null);
    }

    #[test]
    fn parse_resolves_names() {
        assert_eq!(
            AggFunc::parse("count", false, true),
            Some(AggFunc::CountStar)
        );
        assert_eq!(
            AggFunc::parse("count", true, false),
            Some(AggFunc::CountDistinct)
        );
        assert_eq!(AggFunc::parse("sum", false, false), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("lower", false, false), None);
        // Every spelling of the shared table folds, aliases as the
        // function they abbreviate.
        for (name, _) in flex_sql::AGGREGATE_FUNCTIONS {
            assert!(AggFunc::parse(name, false, false).is_some(), "{name}");
        }
        assert_eq!(AggFunc::parse("mean", false, false), Some(AggFunc::Avg));
        assert_eq!(
            AggFunc::parse("stddev_samp", false, false),
            Some(AggFunc::Stddev)
        );
    }

    #[test]
    fn sum_rejects_strings() {
        let spec = AggSpec {
            func: AggFunc::Sum,
            arg: col0(),
        };
        let owned = rows(&[Value::str("x")]);
        let refs: Vec<&[Value]> = owned.iter().map(|r| r.as_slice()).collect();
        assert!(spec.compute(&refs, &[0], 4096).is_err());
    }

    // ---- reduction-tree shape & kernel equivalence -----------------------

    /// Leaves whose bit patterns expose the association: 1e16 absorbs a
    /// lone 1.0 (1e16 + 1.0 == 1e16) but not a pre-added pair of them,
    /// so any deviation from the pinned tree shape changes the result.
    fn shape_leaves(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i % 2 == 0 { 1e16 } else { 1.0 })
            .collect()
    }

    #[test]
    fn tree_combine_shape_is_pinned_per_leaf_count() {
        // 1 leaf: identity.
        assert_eq!(tree_combine(vec![3.5]).to_bits(), 3.5f64.to_bits());
        // 2 leaves: l0 + l1.
        let l = shape_leaves(2);
        assert_eq!(tree_combine(l.clone()).to_bits(), (l[0] + l[1]).to_bits());
        // 3 leaves: (l0 + l1) + l2 — the odd tail carries up unchanged.
        let l = shape_leaves(3);
        assert_eq!(
            tree_combine(l.clone()).to_bits(),
            ((l[0] + l[1]) + l[2]).to_bits()
        );
        // 5 leaves: ((l0+l1) + (l2+l3)) + l4 — the tail survives two
        // levels before joining.
        let l = shape_leaves(5);
        assert_eq!(
            tree_combine(l.clone()).to_bits(),
            (((l[0] + l[1]) + (l[2] + l[3])) + l[4]).to_bits()
        );
    }

    /// For a power-of-two leaf count the adjacent-pairwise bottom-up
    /// reduction must equal the perfectly balanced recursive split — an
    /// independent formulation of the same tree.
    #[test]
    fn tree_combine_4096_leaves_is_balanced_binary() {
        fn balanced(l: &[f64]) -> f64 {
            if l.len() == 1 {
                return l[0];
            }
            let (a, b) = l.split_at(l.len() / 2);
            balanced(a) + balanced(b)
        }
        let leaves = shape_leaves(4096);
        assert_eq!(
            tree_combine(leaves.clone()).to_bits(),
            balanced(&leaves).to_bits()
        );
    }

    /// The tree is a pure function of the leaf list: re-splitting the
    /// leaves across "morsels" (FoldState::append order) never changes
    /// the combined bits.
    #[test]
    fn fold_state_append_is_split_invariant() {
        let pairs: Vec<(usize, f64)> = (0..100)
            .map(|i| (i / 3, if i % 2 == 0 { 1e16 } else { 1.0 }))
            .collect();
        let whole = {
            let mut acc = FoldAcc::new();
            for &(c, x) in &pairs {
                acc.push(c, x);
            }
            acc.finish().into_sum().to_bits()
        };
        for split in [3, 9, 33, 99] {
            // Splits at chunk boundaries (multiples of 3 positions).
            let mut global = FoldState::default();
            for part in pairs.chunks(split) {
                let mut acc = FoldAcc::new();
                for &(c, x) in part {
                    acc.push(c, x);
                }
                global.append(acc.finish());
            }
            assert_eq!(global.into_sum().to_bits(), whole, "split={split}");
        }
    }

    /// The dense SIMD leaf kernel and the streaming lane accumulator
    /// are the same function, bit for bit — including NaN and -0.0.
    #[test]
    fn leaf_kernels_match_streaming_lanes() {
        let vals: Vec<f64> = (0..37)
            .map(|i| match i % 5 {
                0 => 1e16,
                1 => -0.0,
                2 => f64::NAN,
                3 => (i as f64) * 0.1,
                _ => 2f64.powi(53),
            })
            .collect();
        let mut acc = FoldAcc::new();
        for &x in &vals {
            acc.push(0, x);
        }
        let streamed = acc.finish().into_sum();
        assert_eq!(streamed.to_bits(), leaf_sum(&vals).to_bits());

        let ints: Vec<i64> = (0..37).map(|i| (1i64 << 53) + i).collect();
        let as_floats: Vec<f64> = ints.iter().map(|&x| x as f64).collect();
        assert_eq!(
            leaf_sum_ints(&ints).to_bits(),
            leaf_sum(&as_floats).to_bits()
        );
    }
}
