//! Poison-recovering lock helpers for the service hot path.
//!
//! Every mutex on the serving path (ledger shards, cache shards, worker
//! queues) is locked through [`lock`] instead of `.lock().expect(…)`.
//! A `PoisonError` only means *some* thread panicked while holding the
//! guard; the critical sections in this crate perform no unwinding
//! operations between state mutations (plain field stores, `HashMap`
//! inserts/removes on pre-validated keys), so the guarded data is still
//! structurally sound and recovery via `into_inner` is safe. Propagating
//! the poison instead would turn one panicking worker into a permanent
//! denial of service: every subsequent request would cascade-panic on
//! the same lock.
//!
//! Recoveries are not silent: each one bumps a process-wide counter the
//! service surfaces in telemetry ([`poison_recoveries`]), so an
//! operator can tell "a worker panicked once, we kept serving" apart
//! from a panic loop.
//!
//! Per-thread state that must not share a line between threads (the
//! telemetry's hit counters, the text memo) is split into
//! [`THREAD_STRIPES`] stripes, one per thread by [`thread_stripe`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Process-wide count of poisoned-lock recoveries. Static (not
/// per-service) because `lock` has no service handle; the telemetry
/// snapshot reads it as a gauge.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Lock `m`, recovering the guard from a poisoned mutex instead of
/// panicking (see the module docs for why recovery is sound here).
/// Every recovery is counted in [`poison_recoveries`].
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .unwrap_or_else(|e: PoisonError<MutexGuard<'_, T>>| {
            POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
            e.into_inner()
        })
}

/// How many times [`lock`] recovered a poisoned mutex since process
/// start (process-wide, across all service instances).
pub(crate) fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Stripes of per-thread state: threads take them round robin, so up to
/// this many request threads each write a stripe of their own.
pub(crate) const THREAD_STRIPES: usize = 16;

/// The calling thread's stripe, in `0..THREAD_STRIPES`, assigned round
/// robin on the thread's first call and fixed for its life.
pub(crate) fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % THREAD_STRIPES;
    }
    STRIPE.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A panic while holding the lock must not wedge later lockers —
    /// and each recovery must be counted.
    #[test]
    fn poisoned_mutex_recovers() {
        let m = Mutex::new(7u32);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned());
        let before = poison_recoveries();
        assert_eq!(*lock(&m), 7, "state survives recovery");
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
        // Three recovering locks above; other tests may recover
        // concurrently, so assert a floor, not equality.
        assert!(
            poison_recoveries() >= before + 3,
            "recoveries must be counted"
        );
    }
}
