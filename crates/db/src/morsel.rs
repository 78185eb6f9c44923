//! Morsel scheduling: the only module of the executor that decides
//! whether an operator runs inline or on threads.
//!
//! Every executor operator is written once, as a **per-morsel body** — a
//! pure function of a contiguous range of its input (rows, or
//! selection-vector entries) — plus an **order-preserving merge** of the
//! per-morsel results. `run` and its variants own the rest:
//!
//! - an input that does not engage the pool — one worker, or no more than
//!   `fold_rows` rows — is **one morsel**, `0..len`, and the body runs on
//!   the calling thread: no threads, no atomics, nothing to merge. That
//!   is all the sequential engine there is;
//! - otherwise the input is cut into scheduling morsels of
//!   `Parallelism::sched_rows` rows, a scoped pool
//!   ([`std::thread::scope`] — threads never outlive the call) claims
//!   them from an atomic cursor, and the results come back **in morsel
//!   order**.
//!
//! Two sizes are involved and only one may touch result bits.
//! `Parallelism::fold_rows` is the aggregate reduction grid (the leaf
//! width of the fixed-shape fold tree in [`crate::aggregate`]): part of
//! the numeric contract, never derived from the worker count.
//! `sched_rows` is pure scheduling, autotuned from cardinality and worker
//! count and always a whole multiple of `fold_rows`. Because every merge
//! is in morsel order — concatenations, loser-tree run merges, group
//! first-appearance order, fold-tree leaf lists, and which error is
//! reported (the first in row order) — the output is the same however
//! the input was cut, so the DP layers above can never observe the
//! worker count.

use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default rows per fold chunk — the reduction-grid granularity (see
/// `crate::aggregate`): `SUM`/`AVG`/`STDDEV` leaves cover this many
/// selection positions, so the value is part of the engine's *numeric
/// contract* (changing it changes result bit patterns) and is bound into
/// the service's noise-seed fingerprint. 4096 keeps each leaf inside the
/// L1 cache while amortizing the per-leaf tree bookkeeping.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// How many scheduling morsels [`Parallelism::sched_rows`] aims to hand
/// each worker: enough slack that an unlucky worker can't serialize the
/// tail, few enough that per-morsel merge cost stays negligible.
const MORSELS_PER_WORKER: usize = 4;

/// Execution tuning, read once per execution and carried by every
/// operator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parallelism {
    /// Worker threads an operator may use (1 = everything inline).
    pub workers: usize,
    /// Reduction-grid chunk size: the aggregate fold tree's leaf width
    /// (tests shrink it to exercise multi-leaf merging on tiny tables).
    /// Determinism-bearing — results change bits if this changes — so it
    /// must never be derived from the worker count.
    pub fold_rows: usize,
}

impl Parallelism {
    /// Does a `len`-row input engage the pool (else it is one inline
    /// morsel)?
    fn engaged(&self, len: usize) -> bool {
        self.workers > 1 && len > self.fold_rows
    }

    /// Threads a `len`-row input runs on: `workers` when it engages the
    /// pool, else 1 (the caller's). What `ExecTrace::workers` reports.
    pub fn workers_for(&self, len: usize) -> usize {
        if self.engaged(len) {
            self.workers
        } else {
            1
        }
    }

    /// Rows per *scheduling* morsel for a `len`-row input: a whole
    /// multiple of [`Parallelism::fold_rows`] (so one reduction leaf is
    /// never split across two workers) autotuned from the input
    /// cardinality and worker count to target ~[`MORSELS_PER_WORKER`]
    /// morsels per worker. Pure tuning: merges are in morsel order and
    /// aggregates fold on the absolute-position chunk grid, so this
    /// value — unlike `fold_rows` — can chase the worker count freely
    /// without moving a single result bit.
    pub fn sched_rows(&self, len: usize) -> usize {
        let fold = self.fold_rows.max(1);
        let leaves = len.div_ceil(fold).max(1);
        let target = (self.workers.max(1) * MORSELS_PER_WORKER).max(1);
        leaves.div_ceil(target).max(1) * fold
    }
}

/// Split `len` items into morsel index ranges of `morsel_rows` each.
fn morsel_ranges(len: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    (0..len.div_ceil(step))
        .map(|m| m * step..((m + 1) * step).min(len))
        .collect()
}

/// Run `f` over every morsel of `0..len` and return the per-morsel
/// results **in morsel order**: one result, computed on the calling
/// thread, when the input does not engage the pool; else one per
/// scheduling morsel, computed by up to `par.workers` scoped threads.
///
/// `f` must be a pure function of its range (it sees shared read-only
/// state only), so the result is independent of which worker claims which
/// morsel. Worker panics propagate to the caller with their original
/// payload, exactly like a panic in the inline call would.
pub(crate) fn run<T, F>(len: usize, par: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if !par.engaged(len) {
        return vec![f(0..len)];
    }
    let ranges = morsel_ranges(len, par.sched_rows(len));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = ranges.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..par.workers.min(ranges.len()))
            .map(|_| {
                let next = &next;
                let ranges = &ranges;
                let f = &f;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let m = next.fetch_add(1, Ordering::Relaxed);
                        let Some(range) = ranges.get(m) else { break };
                        out.push((m, f(range.clone())));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(results) => {
                    for (m, t) in results {
                        slots[m] = Some(t);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every morsel was claimed exactly once"))
        .collect()
}

/// Fallible variant of [`run`]: each morsel yields a `Result`, and the
/// merged outcome is either every `Ok` payload in morsel order or the
/// error of the **earliest** failing morsel — the error a single
/// left-to-right pass reports first (later morsels may have run, but
/// morsel bodies are side-effect free, so that is unobservable).
pub(crate) fn try_run<T, E, F>(len: usize, par: Parallelism, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    run(len, par, f).into_iter().collect()
}

/// A per-morsel result whose morsel-order merge is concatenation: a
/// vector (selection vectors, gathered rows), or a pair of them (join
/// match vectors).
pub(crate) trait Concat: Sized {
    fn concat(parts: Vec<Self>) -> Self;
}

impl<T> Concat for Vec<T> {
    fn concat(parts: Vec<Vec<T>>) -> Vec<T> {
        // Moves the worker-built items; `<[Vec<T>]>::concat` would clone
        // each one a second time on the coordinating thread.
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for mut part in parts {
            out.append(&mut part);
        }
        out
    }
}

impl<A: Concat, B: Concat> Concat for (A, B) {
    fn concat(parts: Vec<(A, B)>) -> (A, B) {
        let (a, b): (Vec<A>, Vec<B>) = parts.into_iter().unzip();
        (A::concat(a), B::concat(b))
    }
}

/// [`run`], concatenating the per-morsel outputs in morsel order. An
/// input that does not engage the pool is the body's own output for
/// `0..len` — no wrapping vector, no copy.
pub(crate) fn run_concat<C, F>(len: usize, par: Parallelism, f: F) -> C
where
    C: Concat + Send,
    F: Fn(Range<usize>) -> C + Sync,
{
    if !par.engaged(len) {
        return f(0..len);
    }
    C::concat(run(len, par, f))
}

/// [`try_run`], concatenating like [`run_concat`]; the earliest failing
/// morsel's error wins.
pub(crate) fn try_run_concat<C, E, F>(len: usize, par: Parallelism, f: F) -> Result<C, E>
where
    C: Concat + Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<C, E> + Sync,
{
    if !par.engaged(len) {
        return f(0..len);
    }
    try_run(len, par, f).map(C::concat)
}

// ---- loser-tree merge of sorted morsel runs ------------------------------

/// Does run `a`'s head beat (come before) run `b`'s head? Exhausted runs
/// (and the padding leaves above `runs.len()`) always lose; on `cmp`
/// equality the lower run index wins, which — because runs are per-morsel
/// and morsels partition the input in order — reproduces a stable
/// sequential sort's tie order.
fn run_beats<T>(
    runs: &[Vec<T>],
    pos: &[usize],
    cmp: &impl Fn(&T, &T) -> CmpOrdering,
    a: usize,
    b: usize,
) -> bool {
    let head = |i: usize| {
        if i < runs.len() {
            runs[i].get(pos[i])
        } else {
            None
        }
    };
    match (head(a), head(b)) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some(x), Some(y)) => match cmp(x, y) {
            CmpOrdering::Less => true,
            CmpOrdering::Greater => false,
            CmpOrdering::Equal => a < b,
        },
    }
}

/// Play out the initial tournament below `node`: internal nodes record
/// the *loser* run of their match, the winner propagates up. Leaves are
/// `p..2p` and map to run ids `0..p` (ids `>= runs.len()` are permanent
/// padding losers).
fn play_initial<B: Fn(usize, usize) -> bool>(
    node: usize,
    p: usize,
    tree: &mut [usize],
    beats: &B,
) -> usize {
    if node >= p {
        return node - p;
    }
    let l = play_initial(node * 2, p, tree, beats);
    let r = play_initial(node * 2 + 1, p, tree, beats);
    let (winner, loser) = if beats(l, r) { (l, r) } else { (r, l) };
    tree[node] = loser;
    winner
}

/// Merge pre-sorted runs into one sorted output via a **loser tree**
/// (tournament tree): each pop costs one leaf-to-root replay of
/// `log2(runs)` comparisons, instead of a full rescan of every run head.
/// Runs must each be sorted under `cmp`; ties across runs break toward
/// the lower run index, so merging per-morsel stable sorts reproduces the
/// stable sort of the concatenated input — bit for bit, which is what
/// keeps a multi-morsel ORDER BY byte-identical to the oracle.
/// `take` bounds the output length (for top-K merges); `None` drains
/// every run.
pub(crate) fn merge_sorted_runs<T: Copy>(
    runs: Vec<Vec<T>>,
    take: Option<usize>,
    cmp: impl Fn(&T, &T) -> CmpOrdering,
) -> Vec<T> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let want = take.map_or(total, |t| t.min(total));
    if want == 0 {
        return Vec::new();
    }
    if runs.len() == 1 {
        let mut run = runs.into_iter().next().expect("one run");
        run.truncate(want);
        return run;
    }
    let p = runs.len().next_power_of_two();
    let mut pos = vec![0usize; runs.len()];
    let mut tree = vec![usize::MAX; p];
    let mut winner = {
        let beats = |a: usize, b: usize| run_beats(&runs, &pos, &cmp, a, b);
        play_initial(1, p, &mut tree, &beats)
    };
    let mut out = Vec::with_capacity(want);
    while out.len() < want {
        out.push(runs[winner][pos[winner]]);
        pos[winner] += 1;
        // Replay the matches on the path from this run's leaf to the
        // root; the previous losers stored along it are exactly the
        // candidates the new head must face.
        let mut node = (p + winner) / 2;
        let mut cur = winner;
        while node >= 1 {
            let challenger = tree[node];
            if !run_beats(&runs, &pos, &cmp, cur, challenger) {
                tree[node] = cur;
                cur = challenger;
            }
            node /= 2;
        }
        winner = cur;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn par(workers: usize, fold_rows: usize) -> Parallelism {
        Parallelism { workers, fold_rows }
    }

    #[test]
    fn sched_rows_is_fold_aligned_and_tracks_workers() {
        // Always a whole multiple of fold_rows, never below it.
        for (workers, fold, len) in [(1, 7, 1000), (4, 3, 100), (8, 4096, 10_000_000), (2, 1, 5)] {
            let p = par(workers, fold);
            let sched = p.sched_rows(len);
            assert_eq!(sched % fold, 0, "workers={workers} fold={fold} len={len}");
            assert!(sched >= fold);
        }
        // ~4 morsels per worker once the input is large enough.
        let p = par(4, 4096);
        let len = 10_000_000usize;
        let morsels = len.div_ceil(p.sched_rows(len));
        assert!((13..=16).contains(&morsels), "got {morsels} morsels");
        // Small inputs degrade to one-leaf morsels, not zero.
        assert_eq!(par(4, 4096).sched_rows(100), 4096);
        assert_eq!(par(4, 10).sched_rows(0), 10);
    }

    #[test]
    fn ranges_cover_input_exactly() {
        assert_eq!(morsel_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(morsel_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(morsel_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(morsel_ranges(3, 4), vec![0..3]);
    }

    /// Lens around every `fold_rows` boundary (the engage threshold and
    /// the leaf grid) for a 7-row fold.
    const LENS: [usize; 12] = [0, 1, 6, 7, 8, 13, 14, 15, 20, 21, 22, 1000];
    const WORKERS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn results_arrive_in_morsel_order_and_cover_the_input() {
        for workers in WORKERS {
            for len in LENS {
                let ranges = run(len, par(workers, 7), |r| r);
                let ctx = format!("workers={workers} len={len}");
                // Contiguous from 0 to len, every cut on the fold grid.
                let mut at = 0;
                for r in &ranges {
                    assert_eq!(r.start, at, "{ctx}");
                    assert_eq!(r.start % 7, 0, "{ctx}");
                    at = r.end;
                }
                assert_eq!(at, len, "{ctx}");
                // One range unless the pool is engaged.
                if workers == 1 || len <= 7 {
                    assert_eq!(ranges, vec![0..len], "{ctx}");
                } else {
                    assert!(ranges.len() > 1, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn concat_variants_equal_the_body_applied_to_the_whole_input() {
        let flat = |r: Range<usize>| r.map(|i| i * 3).collect::<Vec<_>>();
        let pair = |r: Range<usize>| (flat(r.clone()), r.map(|i| i as u32).collect::<Vec<_>>());
        for workers in WORKERS {
            for len in LENS {
                let p = par(workers, 7);
                let ctx = format!("workers={workers} len={len}");
                assert_eq!(run_concat(len, p, flat), flat(0..len), "{ctx}");
                assert_eq!(run_concat(len, p, pair), pair(0..len), "{ctx}");
                let ok: Result<_, ()> = try_run_concat(len, p, |r| Ok(pair(r)));
                assert_eq!(ok, Ok(pair(0..len)), "{ctx}");
            }
        }
    }

    #[test]
    fn earliest_failing_range_wins_though_later_ranges_fail_too() {
        // Every range holding a multiple of 30 (but not 0) fails with its
        // first such row: whatever the cut, row 30's error must surface.
        let body = |r: Range<usize>| match r.clone().find(|i| *i > 0 && i % 30 == 0) {
            Some(bad) => Err(bad),
            None => Ok(r.collect::<Vec<_>>()),
        };
        for workers in WORKERS {
            let p = par(workers, 10);
            assert_eq!(try_run(100, p, body).unwrap_err(), 30, "workers={workers}");
            assert_eq!(
                try_run_concat(100, p, body).unwrap_err(),
                30,
                "workers={workers}"
            );
            assert_eq!(
                try_run_concat(25, p, body),
                Ok((0..25).collect()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn panicking_body_propagates_its_payload() {
        for workers in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_concat(100, par(workers, 10), |range| {
                    if range.contains(&50) {
                        panic!("boom at 50");
                    }
                    vec![range.len()]
                })
            });
            let payload = caught.expect_err("the body panicked");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"boom at 50"),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn unengaged_input_runs_on_the_callers_thread_in_one_range() {
        let caller = std::thread::current().id();
        // One worker at any size; many workers at or under one fold chunk.
        for (workers, len) in [(1, 0), (1, 10), (1, 100_000), (8, 0), (8, 9), (8, 10)] {
            let p = par(workers, 10);
            let seen = run(len, p, |r| (std::thread::current().id(), r));
            assert_eq!(seen, vec![(caller, 0..len)], "workers={workers} len={len}");
            let seen = run_concat(len, p, |r| vec![(std::thread::current().id(), r)]);
            assert_eq!(seen, vec![(caller, 0..len)], "workers={workers} len={len}");
        }
        // Engaged: more than one range, none of them on the caller.
        let seen = run(11, par(8, 10), |r| (std::thread::current().id(), r));
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|(id, _)| *id != caller));
    }

    #[test]
    fn loser_tree_merge_equals_global_stable_sort() {
        // Deterministic pseudo-random keys with many duplicates. Items
        // are (key, global_index); runs are chunk-local stable sorts by
        // key, so the merge must reproduce the global stable sort — ties
        // in input order — for every chunking and run count.
        let keys: Vec<u32> = (0..500u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 7)
            .collect();
        let items: Vec<(u32, u32)> = keys.iter().copied().zip(0..).collect();
        let mut expect = items.clone();
        expect.sort_by_key(|&(k, _)| k); // stable
        for chunk in [1usize, 3, 7, 64, 500, 900] {
            let runs: Vec<Vec<(u32, u32)>> = items
                .chunks(chunk)
                .map(|c| {
                    let mut run = c.to_vec();
                    run.sort_by_key(|&(k, _)| k);
                    run
                })
                .collect();
            let merged = merge_sorted_runs(runs, None, |a, b| a.0.cmp(&b.0));
            assert_eq!(merged, expect, "chunk={chunk}");
        }
    }

    #[test]
    fn loser_tree_take_bounds_output() {
        let runs = vec![vec![1, 4, 7], vec![2, 3, 9], vec![], vec![0, 8]];
        assert_eq!(
            merge_sorted_runs(runs.clone(), Some(4), i32::cmp),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            merge_sorted_runs(runs.clone(), None, i32::cmp),
            vec![0, 1, 2, 3, 4, 7, 8, 9]
        );
        assert_eq!(
            merge_sorted_runs(runs.clone(), Some(100), i32::cmp),
            vec![0, 1, 2, 3, 4, 7, 8, 9]
        );
        assert_eq!(
            merge_sorted_runs(runs, Some(0), i32::cmp),
            Vec::<i32>::new()
        );
        assert_eq!(
            merge_sorted_runs(Vec::<Vec<i32>>::new(), None, i32::cmp),
            Vec::<i32>::new()
        );
        // A single run short-circuits (no tree built).
        assert_eq!(
            merge_sorted_runs(vec![vec![5, 6, 7]], Some(2), i32::cmp),
            vec![5, 6]
        );
    }
}
