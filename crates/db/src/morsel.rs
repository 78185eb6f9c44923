//! Morsel-driven parallel scheduling for the executor.
//!
//! A *morsel* is a contiguous slice of rows (or selection-vector
//! entries). Parallel operators split their input into morsels, a scoped
//! worker pool ([`std::thread::scope`] — no runtime dependency, threads
//! never outlive the query) claims morsels from a shared atomic cursor,
//! and the per-morsel results are **merged in morsel order**. Two sizes
//! govern a morsel run, and only one of them may touch result bits:
//!
//! - `Parallelism::fold_rows` fixes the aggregate reduction grid (the
//!   leaf width of the fixed-shape fold tree in [`crate::aggregate`]).
//!   It is part of the numeric contract and never derived from the
//!   worker count.
//! - `Parallelism::sched_rows` — the actual morsel size — is autotuned
//!   from input cardinality and worker count, always a whole multiple of
//!   `fold_rows`. It is pure scheduling: morsel-order merging makes the
//!   combined output (concatenations, loser-tree run merges, group
//!   first-appearance order, fold-tree leaf lists, and which error is
//!   reported — the first in row order) independent of how the input was
//!   cut.
//!
//! The DP layers above can therefore never observe the worker count.
//!
//! With one effective worker (or a single morsel) `run` degrades to a
//! plain sequential loop on the calling thread — no threads, no atomics —
//! which is what makes `parallelism = 1` byte-for-byte the sequential
//! engine.

use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default rows per fold chunk — the reduction-grid granularity (see
/// [`crate::aggregate`]): `SUM`/`AVG`/`STDDEV` leaves cover this many
/// selection positions, so the value is part of the engine's *numeric
/// contract* (changing it changes result bit patterns) and is bound into
/// the service's noise-seed fingerprint. 4096 keeps each leaf inside the
/// L1 cache while amortizing the per-leaf tree bookkeeping.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// How many scheduling morsels [`Parallelism::sched_rows`] aims to hand
/// each worker: enough slack that an unlucky worker can't serialize the
/// tail, few enough that per-morsel merge cost stays negligible.
const MORSELS_PER_WORKER: usize = 4;

/// Execution-tuning knobs threaded through the executor's operators.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parallelism {
    /// Worker threads an operator may use (1 = sequential).
    pub workers: usize,
    /// Reduction-grid chunk size: the aggregate fold tree's leaf width
    /// (tests shrink it to exercise multi-leaf merging on tiny tables).
    /// Determinism-bearing — results change bits if this changes — so it
    /// must never be derived from the worker count.
    pub fold_rows: usize,
}

impl Parallelism {
    /// Should `len` input rows be processed in parallel at all?
    pub fn engaged(&self, len: usize) -> bool {
        self.workers > 1 && len > self.fold_rows
    }

    /// Rows per *scheduling* morsel for a `len`-row input: a whole
    /// multiple of [`Parallelism::fold_rows`] (so one reduction leaf is
    /// never split across two workers) autotuned from the input
    /// cardinality and worker count to target ~[`MORSELS_PER_WORKER`]
    /// morsels per worker. Scheduling granularity is pure tuning: every
    /// parallel operator merges per-morsel results in morsel order and
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
/// results **in morsel order**, using up to `par.workers` scoped threads.
///
/// `f` must be a pure function of its range (it sees shared read-only
/// state only), so the result is independent of which worker claims which
/// morsel. Worker panics propagate to the caller with their original
/// payload, exactly like a panic in a sequential loop would.
pub(crate) fn run<T, F>(len: usize, par: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = morsel_ranges(len, par.sched_rows(len));
    let workers = par.workers.min(ranges.len());
    if workers <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = ranges.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
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
/// error of the **earliest** failing morsel — the same error a sequential
/// left-to-right pass reports first (later morsels may have run, but
/// morsel workers are side-effect free, so that is unobservable).
pub(crate) fn try_run<T, E, F>(len: usize, par: Parallelism, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    run(len, par, f).into_iter().collect()
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
/// sequential stable sort of the concatenated input — bit for bit, which
/// is what keeps the parallel ORDER BY byte-identical to the oracle.
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

    #[test]
    fn parallel_results_arrive_in_morsel_order() {
        for workers in [1, 2, 3, 8] {
            let got = run(1000, par(workers, 7), |r| r.clone());
            let flat: Vec<usize> = got.into_iter().flatten().collect();
            assert_eq!(flat, (0..1000).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn try_run_reports_earliest_morsel_error() {
        // Morsels 3 and 7 fail; the merged error must be morsel 3's.
        let r: Result<Vec<()>, usize> = try_run(100, par(4, 10), |range| {
            let m = range.start / 10;
            if m == 3 || m == 7 {
                Err(m)
            } else {
                Ok(())
            }
        });
        assert_eq!(r.unwrap_err(), 3);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run(100, par(4, 10), |range| {
                if range.start == 50 {
                    panic!("boom at 50");
                }
                range.len()
            })
        });
        assert!(caught.is_err());
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

    #[test]
    fn single_worker_never_spawns() {
        // Runs on the calling thread: thread-local state proves it.
        thread_local! {
            static MARK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        MARK.with(|m| m.set(7));
        let got = run(100, par(1, 10), |_| MARK.with(|m| m.get()));
        assert!(got.iter().all(|&v| v == 7));
    }
}
