//! Thread-safe per-analyst privacy-budget accounting with admission
//! control, layered on [`flex_core::budget`].
//!
//! The ledger is the service's privacy gatekeeper: a request that would
//! push an analyst's *composed* privacy cost past their `(ε, δ)` cap is
//! rejected before any computation touches the database. Two composition
//! strategies are supported through [`Composition`]: plain sequential
//! composition (charges add up) and strong composition (sublinear total
//! cost for homogeneous per-query parameters).

use crate::error::{ServiceError, ServiceResult};
use crate::sync::lock;
use crate::wal::{AccountSnapshot, LedgerSnapshot, Lsn, RecoveryReport, Wal, WalOp};
use flex_core::{Composition, PrivacyBudget};
use flex_db::KeyHash;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default shard count for [`BudgetLedger::new`]. Analysts are spread
/// over the stripes by hash, so with many concurrent analysts the
/// chance two admissions serialize on one lock is ~1/16.
pub const DEFAULT_LEDGER_SHARDS: usize = 16;

/// Per-analyst budget policy. Different analysts may run different caps
/// and composition strategies (e.g. a trusted internal team vs. an
/// external partner).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerPolicy {
    /// Per-analyst total `ε` cap.
    pub epsilon_cap: f64,
    /// Per-analyst total `δ` cap.
    pub delta_cap: f64,
    /// How per-query costs compose toward the caps.
    pub composition: Composition,
}

impl LedgerPolicy {
    /// Sequential-composition policy: costs add up linearly.
    pub fn sequential(epsilon_cap: f64, delta_cap: f64) -> Self {
        LedgerPolicy {
            epsilon_cap,
            delta_cap,
            composition: Composition::Sequential,
        }
    }

    /// Strong-composition policy. Panics unless `delta_slack ∈ (0, 1)`:
    /// an invalid slack would poison the admission bound with NaN, and a
    /// ledger that silently admits everything is the one failure a DP
    /// service must not have. (A policy built around this constructor
    /// with a bad slack still fails *closed* — see
    /// [`Composition::total_cost`].)
    pub fn strong(epsilon_cap: f64, delta_cap: f64, delta_slack: f64) -> Self {
        let composition = Composition::Strong { delta_slack };
        assert!(
            composition.is_valid(),
            "strong-composition delta_slack must lie in (0, 1), got {delta_slack}"
        );
        LedgerPolicy {
            epsilon_cap,
            delta_cap,
            composition,
        }
    }
}

/// Proof of admission: the exact charge to hand back on refund.
///
/// Each charge carries a private id the ledger tracks while the charge
/// is outstanding; [`BudgetLedger::refund`] consumes it, so a duplicate
/// (or cloned) refund is a no-op instead of minting budget headroom.
/// Charges cannot be constructed outside the ledger.
///
/// On a durable ledger an admitted charge is *written*, not yet
/// durable: pass [`BudgetLedger::barrier`] before releasing anything it
/// paid for.
#[derive(Debug, Clone, PartialEq)]
pub struct Charge {
    /// The charged analyst.
    pub analyst: String,
    /// The admitted query's `ε`.
    pub epsilon: f64,
    /// The admitted query's `δ`.
    pub delta: f64,
    id: u64,
    /// Where the `Charge` record sits in the log (0 without a log):
    /// what [`BudgetLedger::barrier`] waits for. The submitter keeps a
    /// copy once the charge itself has gone to a worker.
    pub(crate) lsn: Lsn,
}

#[derive(Debug)]
struct Account {
    policy: LedgerPolicy,
    /// Sequential-mode accumulator. Strong mode never touches it (its
    /// composed cost is a function of `pinned` and `queries`); always go
    /// through [`Account::composed_cost`] for spend/remaining numbers.
    budget: PrivacyBudget,
    /// Number of admitted (not refunded) queries.
    queries: u32,
    /// Strong mode pins the first query's `(ε, δ)`; subsequent queries
    /// must match (the theorem composes homogeneous mechanisms).
    pinned: Option<(f64, f64)>,
    /// Ids of admitted charges that are still refundable (neither
    /// settled nor already refunded). Bounded by in-flight queries, and
    /// empty after a restart: no charge handle survives one.
    outstanding: HashSet<u64, KeyHash>,
}

/// One shard's accounts, by analyst.
type Accounts = HashMap<String, Account, KeyHash>;

impl Account {
    fn new(policy: LedgerPolicy) -> Self {
        Account {
            budget: PrivacyBudget::new(policy.epsilon_cap, policy.delta_cap),
            policy,
            queries: 0,
            pinned: None,
            outstanding: HashSet::default(),
        }
    }

    /// Composed `(ε, δ)` cost of this account's admitted queries.
    fn composed_cost(&self) -> (f64, f64) {
        match self.policy.composition {
            Composition::Sequential => self.budget.spent(),
            Composition::Strong { .. } => match self.pinned {
                Some((e0, d0)) => self.policy.composition.total_cost(e0, d0, self.queries),
                None => (0.0, 0.0),
            },
        }
    }
}

/// A thread-safe multi-analyst budget ledger.
///
/// All methods take `&self`; accounts are spread over lock-striped
/// shards keyed by the analyst-id hash, so concurrent admissions for
/// *different* analysts take different locks and scale with cores,
/// while every operation on *one* analyst's account still serializes on
/// its shard — admission stays atomic: concurrent `try_charge` calls
/// can never jointly overshoot a cap (stress-tested in `tests/`).
///
/// Shard placement is pure scheduling: charge ids come from one global
/// counter, every observable quantity (spend, remaining, query counts,
/// the analyst list) is independent of the shard count, and nothing
/// shard-related ever feeds a noise seed.
#[derive(Debug)]
pub struct BudgetLedger {
    default_policy: LedgerPolicy,
    shards: Box<[Mutex<Accounts>]>,
    /// Chooses an analyst's shard; seeded per ledger.
    stripes: KeyHash,
    /// Global — charge ids stay unique across shards.
    next_charge_id: AtomicU64,
    /// Durability: when present, every mutation a restart must remember
    /// is written to the log under its shard lock — charges *before*
    /// they commit (fail closed), refunds best-effort (a lost refund
    /// makes recovery overestimate spend, the safe direction) — and
    /// synced only after the lock is released: charges at
    /// [`BudgetLedger::barrier`], refunds and policy changes before
    /// their call returns. A settle writes nothing. `None` keeps the
    /// ledger purely in-memory.
    wal: Option<Arc<Wal>>,
}

impl BudgetLedger {
    /// A ledger handing every new analyst `default_policy`, striped over
    /// [`DEFAULT_LEDGER_SHARDS`] shards.
    pub fn new(default_policy: LedgerPolicy) -> Self {
        Self::with_shards(default_policy, DEFAULT_LEDGER_SHARDS)
    }

    /// A ledger with an explicit shard count (clamped to ≥ 1). The shard
    /// count changes only contention, never observable ledger state —
    /// pinned by the `shard_count_never_changes_observable_state`
    /// proptest below.
    pub fn with_shards(default_policy: LedgerPolicy, shards: usize) -> Self {
        BudgetLedger {
            default_policy,
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            stripes: KeyHash::default(),
            next_charge_id: AtomicU64::new(0),
            wal: None,
        }
    }

    /// A durable ledger: replay `wal`'s surviving records into a fresh
    /// ledger (spend, query counts and pins bitwise-identical to the
    /// pre-crash state — replay applies the exact float additions the
    /// live ledger committed, in the same per-analyst order), then
    /// write every future mutation through it.
    ///
    /// Replay ends with nothing outstanding: no [`Charge`] handle
    /// survives a restart, so no charge can be refunded across one.
    ///
    /// Replay treats the log as authoritative: a charge that was
    /// admitted under an older (larger) default policy still lands even
    /// if it now exceeds the cap — the account simply sits over cap and
    /// future admissions reject, which is the fail-closed direction.
    /// Accounts created by replayed charges use the *current*
    /// `default_policy` unless a logged policy override pinned them.
    pub fn with_wal(
        default_policy: LedgerPolicy,
        shards: usize,
        wal: Arc<Wal>,
    ) -> ServiceResult<(BudgetLedger, RecoveryReport)> {
        let (ops, report) = wal
            .read_ops()
            .map_err(|e| ServiceError::WalUnavailable(e.to_string()))?;
        let mut ledger = Self::with_shards(default_policy, shards);
        let mut next_id = 0u64;
        for op in &ops {
            match op {
                WalOp::Charge {
                    analyst,
                    id,
                    epsilon,
                    delta,
                } => {
                    ledger.apply_charge(analyst, *id, *epsilon, *delta);
                    next_id = next_id.max(id + 1);
                }
                WalOp::Refund {
                    analyst,
                    id,
                    epsilon,
                    delta,
                } => {
                    ledger.apply_refund(analyst, *id, *epsilon, *delta);
                    next_id = next_id.max(id + 1);
                }
                WalOp::SetPolicy { analyst, policy } => {
                    ledger.apply_set_policy(analyst, *policy);
                }
                WalOp::Snapshot(snap) => {
                    ledger.restore_snapshot(snap);
                    next_id = next_id.max(snap.next_charge_id);
                }
            }
        }
        for shard in ledger.shards.iter() {
            for acct in lock(shard).values_mut() {
                acct.outstanding.clear();
            }
        }
        *ledger.next_charge_id.get_mut() = next_id;
        ledger.wal = Some(wal);
        Ok((ledger, report))
    }

    /// The attached write-ahead log, if this ledger is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Number of lock stripes.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Lock the shard owning `analyst`'s account.
    fn shard(&self, analyst: &str) -> MutexGuard<'_, Accounts> {
        let stripe = self.stripes.hash_one(analyst) as usize;
        lock(&self.shards[stripe % self.shards.len()])
    }

    /// Override the policy for one analyst. Fails if the analyst has
    /// already spent budget (retroactive policy edits would un-release
    /// answers that are already out). On a durable ledger the override
    /// is written to the log before it applies and synced before this
    /// returns, and a log failure fails the call: an unlogged policy
    /// would silently revert to the default on recovery, possibly
    /// *loosening* the analyst's cap. A failed *write* leaves the
    /// account untouched; a failed *sync* leaves the override in memory
    /// with the log poisoned, so nothing is admitted under it until a
    /// compaction has put it on disk.
    pub fn set_policy(&self, analyst: &str, policy: LedgerPolicy) -> ServiceResult<()> {
        let lsn = {
            let mut accounts = self.shard(analyst);
            if let Some(acct) = accounts.get(analyst) {
                if acct.queries > 0 {
                    let (e_now, _) = acct.composed_cost();
                    return Err(ServiceError::BudgetRejected {
                        analyst: analyst.to_string(),
                        requested_epsilon: policy.epsilon_cap,
                        remaining_epsilon: (acct.policy.epsilon_cap - e_now).max(0.0),
                    });
                }
            }
            let lsn = self.write(|| WalOp::SetPolicy {
                analyst: analyst.to_string(),
                policy,
            })?;
            accounts.insert(analyst.to_string(), Account::new(policy));
            lsn
        };
        self.barrier_at(lsn)?;
        self.maybe_compact();
        Ok(())
    }

    /// Write one record (under the caller's shard lock) and return its
    /// LSN; 0, nothing written, without a log.
    fn write(&self, op: impl FnOnce() -> WalOp) -> ServiceResult<Lsn> {
        match &self.wal {
            Some(wal) => wal
                .write(&op())
                .map_err(|e| ServiceError::WalUnavailable(e.to_string())),
            None => Ok(0),
        }
    }

    /// The durability barrier: returns once `charge`'s log record is on
    /// disk (at once without a log, and for a record an earlier sync
    /// already covered). It waits for this charge only, never for newer
    /// records, and takes no ledger lock. **Nothing the charge paid for
    /// may be released before this returns `Ok`.** On `Err` the log is
    /// poisoned: refund the charge and release nothing.
    pub fn barrier(&self, charge: &Charge) -> ServiceResult<()> {
        self.barrier_at(charge.lsn)
    }

    pub(crate) fn barrier_at(&self, lsn: Lsn) -> ServiceResult<()> {
        match &self.wal {
            Some(wal) => wal
                .commit(lsn)
                .map_err(|e| ServiceError::WalUnavailable(e.to_string())),
            None => Ok(()),
        }
    }

    /// Admission control: atomically charge `(ε, δ)` against the
    /// analyst's composed budget, creating the account on first contact.
    /// On `Err` nothing was charged.
    ///
    /// Structured check → log → commit: the admission decision mutates
    /// nothing, the WAL write (if a log is attached) happens next while
    /// the decision is still protected by the shard lock, and only then
    /// does the in-memory state change. A WAL failure therefore rejects
    /// the query with the account untouched — never an uncharged
    /// admission, and no bitwise-lossy rollback of a float accumulator
    /// (`(a + ε) − ε` need not equal `a`). The record is *written*
    /// here, not synced — no fsync runs under the shard lock; the
    /// caller passes [`BudgetLedger::barrier`] before it releases
    /// anything.
    pub fn try_charge(&self, analyst: &str, epsilon: f64, delta: f64) -> ServiceResult<Charge> {
        // Validate before touching any account: this entry point takes
        // raw f64s, and a negative (or NaN/∞) charge would *mint* budget
        // headroom instead of spending it.
        if !epsilon.is_finite() || epsilon <= 0.0 || !delta.is_finite() || delta < 0.0 {
            return Err(ServiceError::Flex(flex_core::FlexError::InvalidParams(
                format!("invalid privacy charge (ε = {epsilon}, δ = {delta})"),
            )));
        }
        let charge = {
            let mut accounts = self.shard(analyst);
            // An analyst's name is copied once, into a new account.
            if !accounts.contains_key(analyst) {
                accounts.insert(analyst.to_string(), Account::new(self.default_policy));
            }
            let acct = accounts.get_mut(analyst).expect("the account exists");

            // Decide (no mutation).
            let (e0, d0) = match acct.policy.composition {
                Composition::Sequential => {
                    if !acct.budget.can_spend(epsilon, delta) {
                        return Err(ServiceError::BudgetRejected {
                            analyst: analyst.to_string(),
                            requested_epsilon: epsilon,
                            remaining_epsilon: acct.budget.remaining_epsilon(),
                        });
                    }
                    (epsilon, delta)
                }
                Composition::Strong { .. } => {
                    let tol = 1e-12;
                    // The pin is immutable while queries are admitted:
                    // cost bounds are always computed against the
                    // *original* pinned (ε, δ), never the
                    // tolerance-matched request — otherwise repeated
                    // within-tolerance requests could walk the pin
                    // arbitrarily far from the parameters the
                    // composed-cost bound was checked against.
                    let (e0, d0) = match acct.pinned {
                        Some((e0, d0)) => {
                            if (epsilon - e0).abs() > tol || (delta - d0).abs() > tol {
                                return Err(ServiceError::HeterogeneousParams {
                                    analyst: analyst.to_string(),
                                    pinned: (e0, d0),
                                    requested: (epsilon, delta),
                                });
                            }
                            (e0, d0)
                        }
                        None => (epsilon, delta),
                    };
                    let (e_total, d_total) =
                        acct.policy.composition.total_cost(e0, d0, acct.queries + 1);
                    if e_total > acct.policy.epsilon_cap + tol
                        || d_total > acct.policy.delta_cap + tol
                    {
                        let (e_now, _) = acct.composed_cost();
                        return Err(ServiceError::BudgetRejected {
                            analyst: analyst.to_string(),
                            requested_epsilon: epsilon,
                            remaining_epsilon: (acct.policy.epsilon_cap - e_now).max(0.0),
                        });
                    }
                    (e0, d0)
                }
            };

            // Log it before committing (fail closed). The shard lock is
            // still held, so the log's per-analyst record order matches
            // the commit order exactly — what makes replay
            // bitwise-deterministic at any shard count. On a write
            // error nothing was mutated; the allocated id is burned,
            // leaving a harmless gap in the sequence.
            let id = self.next_charge_id.fetch_add(1, Ordering::Relaxed);
            let lsn = self.write(|| WalOp::Charge {
                analyst: analyst.to_string(),
                id,
                epsilon: e0,
                delta: d0,
            })?;

            // Commit (infallible). The charge records the pinned
            // parameters — what the account is actually composed over.
            match acct.policy.composition {
                Composition::Sequential => acct.budget.spend_unchecked(e0, d0),
                Composition::Strong { .. } => acct.pinned = Some((e0, d0)),
            }
            acct.queries += 1;
            acct.outstanding.insert(id);
            Charge {
                analyst: analyst.to_string(),
                epsilon: e0,
                delta: d0,
                id,
                lsn,
            }
        };
        self.maybe_compact();
        Ok(charge)
    }

    /// Hand a charge back (the query failed after admission; nothing was
    /// released). Consumes the charge's id: refunding the same charge
    /// twice — or a charge already [`settle`](Self::settle)d — is a
    /// no-op, so a retry loop (or a hostile caller cloning charges) can
    /// never erase budget that paid for a released answer.
    pub fn refund(&self, charge: &Charge) {
        let written = {
            let mut accounts = self.shard(&charge.analyst);
            let Some(acct) = accounts.get_mut(&charge.analyst) else {
                return;
            };
            if !acct.outstanding.contains(&charge.id) {
                return;
            }
            // Best-effort: the refund still applies in memory if the
            // log write (or the sync below) fails — then recovery
            // *overestimates* spend, which can only under-admit, never
            // void privacy. (The error is counted in the WAL's
            // telemetry.)
            let written = self.write(|| WalOp::Refund {
                analyst: charge.analyst.clone(),
                id: charge.id,
                epsilon: charge.epsilon,
                delta: charge.delta,
            });
            acct.outstanding.remove(&charge.id);
            match acct.policy.composition {
                Composition::Sequential => acct.budget.refund(charge.epsilon, charge.delta),
                Composition::Strong { .. } => {}
            }
            acct.queries = acct.queries.saturating_sub(1);
            // With nothing admitted there is nothing to compose against:
            // release the strong-mode pin so the analyst is not locked to
            // the (ε, δ) of a query that failed and was fully refunded.
            if acct.queries == 0 {
                acct.pinned = None;
            }
            written
        };
        if let Ok(lsn) = written {
            let _ = self.barrier_at(lsn);
        }
        self.maybe_compact();
    }

    /// Mark a charge as spent for good (its answer was released): the
    /// charge is no longer refundable. Keeps the outstanding-charge set
    /// bounded by queries actually in flight. Nothing is logged: spend
    /// is unchanged, and a restart leaves no charge refundable anyway.
    pub fn settle(&self, charge: &Charge) {
        if let Some(acct) = self.shard(&charge.analyst).get_mut(&charge.analyst) {
            acct.outstanding.remove(&charge.id);
        }
    }

    // -- WAL replay: apply logged mutations verbatim -------------------
    //
    // These mirror the commit halves of the public methods, with no
    // admission checks and no re-logging: during recovery the log is
    // the authority. Per-analyst record order equals the original
    // commit order (the shard lock spans decide+log+commit), so the
    // float additions replay in the same order and the rebuilt state is
    // bitwise identical — at any shard count.

    fn apply_charge(&self, analyst: &str, id: u64, epsilon: f64, delta: f64) {
        let mut accounts = self.shard(analyst);
        let acct = accounts
            .entry(analyst.to_string())
            .or_insert_with(|| Account::new(self.default_policy));
        match acct.policy.composition {
            Composition::Sequential => acct.budget.spend_unchecked(epsilon, delta),
            Composition::Strong { .. } => acct.pinned = Some((epsilon, delta)),
        }
        acct.queries += 1;
        acct.outstanding.insert(id);
    }

    fn apply_refund(&self, analyst: &str, id: u64, epsilon: f64, delta: f64) {
        let mut accounts = self.shard(analyst);
        let Some(acct) = accounts.get_mut(analyst) else {
            return;
        };
        if !acct.outstanding.remove(&id) {
            return;
        }
        match acct.policy.composition {
            Composition::Sequential => acct.budget.refund(epsilon, delta),
            Composition::Strong { .. } => {}
        }
        acct.queries = acct.queries.saturating_sub(1);
        if acct.queries == 0 {
            acct.pinned = None;
        }
    }

    fn apply_set_policy(&self, analyst: &str, policy: LedgerPolicy) {
        self.shard(analyst)
            .insert(analyst.to_string(), Account::new(policy));
    }

    /// Reset the whole ledger to a snapshot record's state (compaction
    /// writes one as the first record of a rewritten log, so replaying
    /// `[snapshot, tail]` any number of times converges to one state).
    fn restore_snapshot(&self, snap: &LedgerSnapshot) {
        for shard in self.shards.iter() {
            lock(shard).clear();
        }
        for a in &snap.accounts {
            let mut acct = Account::new(a.policy);
            // 0.0 + x == x bitwise for the non-negative accumulator
            // values a snapshot can hold, so this restores exact bits.
            acct.budget.spend_unchecked(a.spent.0, a.spent.1);
            acct.queries = a.queries;
            acct.pinned = a.pinned;
            acct.outstanding = a.outstanding.iter().copied().collect();
            self.shard(&a.analyst).insert(a.analyst.clone(), acct);
        }
    }

    // -- Snapshots & compaction ----------------------------------------

    /// A deterministic snapshot of the complete ledger state: accounts
    /// sorted by analyst, outstanding ids sorted. Two ledgers hold
    /// bitwise-identical state exactly when their snapshots encode to
    /// equal bytes (`WalOp::Snapshot(snap).encode()`).
    pub fn snapshot(&self) -> LedgerSnapshot {
        let guards: Vec<_> = self.shards.iter().map(lock).collect();
        Self::snapshot_of(&guards, self.next_charge_id.load(Ordering::Relaxed))
    }

    fn snapshot_of(guards: &[MutexGuard<'_, Accounts>], next_charge_id: u64) -> LedgerSnapshot {
        let mut accounts: Vec<AccountSnapshot> = guards
            .iter()
            .flat_map(|g| g.iter())
            .map(|(name, acct)| {
                let mut outstanding: Vec<u64> = acct.outstanding.iter().copied().collect();
                outstanding.sort_unstable();
                AccountSnapshot {
                    analyst: name.clone(),
                    policy: acct.policy,
                    spent: acct.budget.spent(),
                    queries: acct.queries,
                    pinned: acct.pinned,
                    outstanding,
                }
            })
            .collect();
        accounts.sort_by(|a, b| a.analyst.cmp(&b.analyst));
        LedgerSnapshot {
            next_charge_id,
            accounts,
        }
    }

    /// Compact the log into a single snapshot record once enough
    /// records have accumulated. Called after every mutation *with the
    /// shard lock already released*; takes all shard locks in index
    /// order (the only multi-shard lock site, so no cycle) and the WAL
    /// writer and syncer locks inside `rewrite` — consistent with the
    /// per-mutation shard-then-writer order (a syncing thread holds no
    /// shard lock), so no deadlock. A rewrite failure is
    /// counted in the WAL and the old log simply keeps growing.
    fn maybe_compact(&self) {
        let Some(wal) = &self.wal else {
            return;
        };
        if !wal.wants_snapshot() {
            return;
        }
        let guards: Vec<_> = self.shards.iter().map(lock).collect();
        // Re-check: another thread may have compacted while we waited
        // for the shard locks.
        if !wal.wants_snapshot() {
            return;
        }
        let snap = Self::snapshot_of(&guards, self.next_charge_id.load(Ordering::Relaxed));
        let _ = wal.rewrite(&snap);
    }

    /// The analyst's composed `(ε, δ)` spend so far (0 for unknown
    /// analysts).
    pub fn spent(&self, analyst: &str) -> (f64, f64) {
        let accounts = self.shard(analyst);
        accounts
            .get(analyst)
            .map(|a| a.composed_cost())
            .unwrap_or((0.0, 0.0))
    }

    /// Remaining ε under the analyst's cap (the full default cap for
    /// unknown analysts).
    pub fn remaining_epsilon(&self, analyst: &str) -> f64 {
        let accounts = self.shard(analyst);
        match accounts.get(analyst) {
            Some(a) => (a.policy.epsilon_cap - a.composed_cost().0).max(0.0),
            None => self.default_policy.epsilon_cap,
        }
    }

    /// Number of admitted (non-refunded) queries for the analyst.
    pub fn queries(&self, analyst: &str) -> u32 {
        let accounts = self.shard(analyst);
        accounts.get(analyst).map(|a| a.queries).unwrap_or(0)
    }

    /// All analysts with an account, sorted. Takes the shard locks one
    /// at a time (never two at once), so this read-only sweep cannot
    /// deadlock against the single-shard write paths.
    pub fn analysts(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for shard in self.shards.iter() {
            names.extend(lock(shard).keys().cloned());
        }
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BudgetLedger>();
    }

    #[test]
    fn sequential_charges_and_rejects() {
        let ledger = BudgetLedger::new(LedgerPolicy::sequential(1.0, 1e-6));
        ledger.try_charge("alice", 0.6, 1e-9).unwrap();
        ledger.try_charge("alice", 0.4, 1e-9).unwrap();
        let err = ledger.try_charge("alice", 0.1, 1e-9).unwrap_err();
        assert!(matches!(err, ServiceError::BudgetRejected { .. }));
        // Bob's budget is independent.
        ledger.try_charge("bob", 1.0, 1e-9).unwrap();
        assert!((ledger.spent("alice").0 - 1.0).abs() < 1e-12);
        assert_eq!(ledger.queries("alice"), 2);
        assert_eq!(ledger.analysts(), vec!["alice", "bob"]);
    }

    #[test]
    fn refund_restores_sequential_budget() {
        let ledger = BudgetLedger::new(LedgerPolicy::sequential(1.0, 1e-6));
        let charge = ledger.try_charge("a", 0.7, 1e-9).unwrap();
        ledger.refund(&charge);
        assert_eq!(ledger.spent("a"), (0.0, 0.0));
        assert_eq!(ledger.queries("a"), 0);
        ledger.try_charge("a", 1.0, 1e-9).unwrap();
    }

    #[test]
    fn double_refund_cannot_mint_budget() {
        let ledger = BudgetLedger::new(LedgerPolicy::sequential(1.0, 1e-6));
        let c1 = ledger.try_charge("a", 0.4, 1e-9).unwrap();
        let c2 = ledger.try_charge("a", 0.4, 1e-9).unwrap();
        ledger.refund(&c1);
        // Refunding the same charge again (even via a clone) must not
        // erase the budget c2's released answer actually spent.
        ledger.refund(&c1);
        ledger.refund(&c1.clone());
        assert!((ledger.spent("a").0 - 0.4).abs() < 1e-12);
        assert_eq!(ledger.queries("a"), 1);
        let _ = c2;
    }

    #[test]
    fn settled_charges_are_not_refundable() {
        let ledger = BudgetLedger::new(LedgerPolicy::sequential(1.0, 1e-6));
        let charge = ledger.try_charge("a", 0.6, 1e-9).unwrap();
        ledger.settle(&charge);
        ledger.refund(&charge);
        assert!((ledger.spent("a").0 - 0.6).abs() < 1e-12);
        assert_eq!(ledger.queries("a"), 1);
    }

    #[test]
    fn strong_mode_first_query_admits_via_basic_composition_fallback() {
        // Under the raw DRV bound a single ε = 0.5 query "costs" ≈ 2.9;
        // basic composition (also valid) prices it at 0.5, so two fit a
        // 1.0 cap and a third is rejected.
        let ledger = BudgetLedger::new(LedgerPolicy::strong(1.0, 1e-4, 1e-6));
        ledger.try_charge("a", 0.5, 1e-9).unwrap();
        assert!((ledger.spent("a").0 - 0.5).abs() < 1e-12);
        ledger.try_charge("a", 0.5, 1e-9).unwrap();
        assert!(matches!(
            ledger.try_charge("a", 0.5, 1e-9),
            Err(ServiceError::BudgetRejected { .. })
        ));
    }

    #[test]
    fn strong_composition_admits_more_small_queries() {
        let cap = 1.0;
        let per_query = 0.01;
        let seq = BudgetLedger::new(LedgerPolicy::sequential(cap, 1e-4));
        let strong = BudgetLedger::new(LedgerPolicy::strong(cap, 1e-4, 1e-6));
        let admitted = |ledger: &BudgetLedger| {
            let mut n = 0;
            while ledger.try_charge("a", per_query, 1e-9).is_ok() {
                n += 1;
                assert!(n < 1_000_000, "ledger never rejects");
            }
            n
        };
        let n_seq = admitted(&seq);
        let n_strong = admitted(&strong);
        assert_eq!(n_seq, 100);
        assert!(
            n_strong > n_seq,
            "strong ({n_strong}) should beat sequential ({n_seq})"
        );
        // And the strong account's composed cost stays under the cap.
        assert!(strong.spent("a").0 <= cap + 1e-9);
    }

    #[test]
    fn strong_composition_rejects_heterogeneous_params() {
        let ledger = BudgetLedger::new(LedgerPolicy::strong(1.0, 1e-4, 1e-6));
        ledger.try_charge("a", 0.01, 1e-9).unwrap();
        let err = ledger.try_charge("a", 0.02, 1e-9).unwrap_err();
        assert!(matches!(err, ServiceError::HeterogeneousParams { .. }));
    }

    #[test]
    fn invalid_charges_are_rejected_not_minted() {
        for policy in [
            LedgerPolicy::sequential(1.0, 1e-4),
            LedgerPolicy::strong(1.0, 1e-4, 1e-6),
        ] {
            let ledger = BudgetLedger::new(policy);
            // A negative δ must not decrease spent_delta; a negative,
            // zero, NaN, or infinite ε must not be admitted at all.
            for (e, d) in [
                (0.1, -1e-3),
                (-0.1, 1e-9),
                (0.0, 1e-9),
                (f64::NAN, 1e-9),
                (f64::INFINITY, 1e-9),
                (0.1, f64::NAN),
            ] {
                assert!(
                    ledger.try_charge("a", e, d).is_err(),
                    "charge (ε = {e}, δ = {d}) must be rejected"
                );
            }
            assert_eq!(ledger.spent("a"), (0.0, 0.0));
            assert_eq!(ledger.queries("a"), 0);
        }
    }

    #[test]
    fn strong_mode_pin_does_not_drift_under_tolerance_matching() {
        let ledger = BudgetLedger::new(LedgerPolicy::strong(1.0, 1e-4, 1e-6));
        let e = 0.01;
        let charge = ledger.try_charge("a", e, 1e-9).unwrap();
        assert_eq!((charge.epsilon, charge.delta), (e, 1e-9));
        // Within tolerance of the pin: admitted, charged at the *pinned*
        // parameters, and the pin itself must not move.
        let drifted = ledger.try_charge("a", e + 9e-13, 1e-9).unwrap();
        assert_eq!(drifted.epsilon, e, "charge records the pinned ε");
        // Within tolerance of the previous (drifted) request but not of
        // the original pin: must be rejected, or an analyst could walk
        // the pin by ~1e-12 per query away from the checked bound.
        assert!(matches!(
            ledger.try_charge("a", e + 1.8e-12, 1e-9),
            Err(ServiceError::HeterogeneousParams { .. })
        ));
    }

    #[test]
    fn strong_mode_pin_is_released_when_all_charges_are_refunded() {
        let ledger = BudgetLedger::new(LedgerPolicy::strong(1.0, 1e-4, 1e-6));
        let charge = ledger.try_charge("a", 0.01, 1e-9).unwrap();
        ledger.refund(&charge);
        // Nothing admitted → the analyst may start over at another ε.
        ledger.try_charge("a", 0.05, 1e-9).unwrap();
        // …and is immediately pinned to the new value.
        assert!(matches!(
            ledger.try_charge("a", 0.01, 1e-9),
            Err(ServiceError::HeterogeneousParams { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "delta_slack must lie in (0, 1)")]
    fn invalid_delta_slack_is_refused_at_construction() {
        let _ = LedgerPolicy::strong(1.0, 1e-4, -1e-6);
    }

    #[test]
    fn hand_rolled_invalid_strong_policy_fails_closed() {
        // Bypassing the constructor must reject every request, never
        // admit everything (a NaN bound would compare false forever).
        let policy = LedgerPolicy {
            epsilon_cap: 1.0,
            delta_cap: 1e-4,
            composition: Composition::Strong { delta_slack: -1e-6 },
        };
        let ledger = BudgetLedger::new(policy);
        assert!(matches!(
            ledger.try_charge("a", 0.01, 1e-9),
            Err(ServiceError::BudgetRejected { .. })
        ));
    }

    /// Random charge/refund/settle interleavings against a reference
    /// model. Invariants under every prefix of every sequence:
    ///
    /// - composed spend never goes negative (in ε or δ) — a refund can
    ///   never mint headroom;
    /// - a refund after `settle()` is a no-op, as is a double refund
    ///   (the model only erases a charge on its *first* refund while
    ///   still outstanding);
    /// - sequential spend tracks the model's sum of live charges, and
    ///   admitted-query counts match in both composition modes.
    #[test]
    fn random_charge_refund_settle_interleavings_hold_invariants() {
        use proptest::prelude::*;

        #[derive(Clone, Copy, PartialEq)]
        enum ChargeState {
            Outstanding,
            Settled,
            Refunded,
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            fn run(
                ops in proptest::collection::vec((0u8..4, 0usize..8, 1u32..9), 1..80),
                strong in proptest::prelude::any::<bool>(),
            ) {
                let cap = 1.0;
                let policy = if strong {
                    LedgerPolicy::strong(cap, 1e-4, 1e-6)
                } else {
                    LedgerPolicy::sequential(cap, 1e-4)
                };
                let ledger = BudgetLedger::new(policy);
                let mut charges: Vec<(Charge, ChargeState)> = Vec::new();
                for (kind, slot, step) in ops {
                    match kind {
                        0 => {
                            // Strong mode pins homogeneous (ε, δ).
                            let eps = if strong { 0.02 } else { step as f64 * 0.02 };
                            if let Ok(c) = ledger.try_charge("a", eps, 1e-9) {
                                charges.push((c, ChargeState::Outstanding));
                            }
                        }
                        1 | 3 => {
                            // Refund an arbitrary charge — possibly one
                            // already refunded or settled (must no-op).
                            if !charges.is_empty() {
                                let i = slot % charges.len();
                                ledger.refund(&charges[i].0);
                                if charges[i].1 == ChargeState::Outstanding {
                                    charges[i].1 = ChargeState::Refunded;
                                }
                            }
                        }
                        _ => {
                            if !charges.is_empty() {
                                let i = slot % charges.len();
                                ledger.settle(&charges[i].0);
                                if charges[i].1 == ChargeState::Outstanding {
                                    charges[i].1 = ChargeState::Settled;
                                }
                            }
                        }
                    }
                    // Invariants after every step.
                    let (e, d) = ledger.spent("a");
                    prop_assert!(e >= 0.0 && d >= 0.0, "spend went negative: ({e}, {d})");
                    let live: Vec<&Charge> = charges
                        .iter()
                        .filter(|(_, s)| *s != ChargeState::Refunded)
                        .map(|(c, _)| c)
                        .collect();
                    prop_assert_eq!(
                        ledger.queries("a") as usize,
                        live.len(),
                        "admitted-query count diverged from the model"
                    );
                    if !strong {
                        let expect_e: f64 = live.iter().map(|c| c.epsilon).sum();
                        let expect_d: f64 = live.iter().map(|c| c.delta).sum();
                        prop_assert!(
                            (e - expect_e).abs() < 1e-9 && (d - expect_d).abs() < 1e-9,
                            "sequential spend ({e}, {d}) != model ({expect_e}, {expect_d})"
                        );
                        prop_assert!(e <= cap + 1e-9, "spend exceeded the cap");
                    }
                }
            }
        }
        run();
    }

    /// Lock striping is pure scheduling: running the *same* random
    /// charge/refund/settle interleaving over many analysts against
    /// ledgers striped at 1, 4 and 16 shards must leave every
    /// observable quantity — spend, remaining ε, admitted-query count,
    /// the sorted analyst list, and each charge's admit/reject outcome
    /// and recorded (ε, δ) — bit-identical across shard counts.
    #[test]
    fn shard_count_never_changes_observable_state() {
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            fn run(
                ops in proptest::collection::vec((0u8..4, 0usize..12, 0usize..24), 1..100),
                strong in proptest::prelude::any::<bool>(),
            ) {
                let policy = if strong {
                    LedgerPolicy::strong(1.0, 1e-4, 1e-6)
                } else {
                    LedgerPolicy::sequential(1.0, 1e-4)
                };
                let ledgers: Vec<BudgetLedger> = [1usize, 4, 16]
                    .iter()
                    .map(|&n| BudgetLedger::with_shards(policy, n))
                    .collect();
                prop_assert_eq!(ledgers[0].shards(), 1);
                prop_assert_eq!(ledgers[2].shards(), 16);
                let analysts: Vec<String> =
                    (0..12).map(|i| format!("analyst-{i}")).collect();
                // Per-ledger charge history, same indices in each.
                let mut charges: Vec<Vec<Charge>> = vec![Vec::new(); ledgers.len()];
                for (kind, who, slot) in ops {
                    let analyst = &analysts[who];
                    match kind {
                        0 | 3 => {
                            let eps = if strong { 0.02 } else { 0.01 + who as f64 * 0.01 };
                            let results: Vec<_> = ledgers
                                .iter()
                                .map(|l| l.try_charge(analyst, eps, 1e-9))
                                .collect();
                            // Admission decisions agree across shard counts.
                            prop_assert_eq!(
                                results.iter().map(|r| r.is_ok()).collect::<Vec<_>>(),
                                vec![results[0].is_ok(); ledgers.len()],
                                "admit/reject diverged across shard counts"
                            );
                            let admitted: Vec<Charge> =
                                results.into_iter().filter_map(|r| r.ok()).collect();
                            if let Some(first) = admitted.first() {
                                // Recorded (ε, δ) agree across shard counts.
                                prop_assert!(
                                    admitted.iter().all(|c| {
                                        c.epsilon.to_bits() == first.epsilon.to_bits()
                                            && c.delta.to_bits() == first.delta.to_bits()
                                    }),
                                    "charge params diverged across shard counts"
                                );
                                for (i, c) in admitted.into_iter().enumerate() {
                                    charges[i].push(c);
                                }
                            }
                        }
                        1 => {
                            if !charges[0].is_empty() {
                                let i = slot % charges[0].len();
                                for (l, ch) in ledgers.iter().zip(&charges) {
                                    l.refund(&ch[i]);
                                }
                            }
                        }
                        _ => {
                            if !charges[0].is_empty() {
                                let i = slot % charges[0].len();
                                for (l, ch) in ledgers.iter().zip(&charges) {
                                    l.settle(&ch[i]);
                                }
                            }
                        }
                    }
                    // Observable state is identical after every step.
                    for a in &analysts {
                        let spent: Vec<_> = ledgers.iter().map(|l| l.spent(a)).collect();
                        let remaining: Vec<_> =
                            ledgers.iter().map(|l| l.remaining_epsilon(a)).collect();
                        let queries: Vec<_> = ledgers.iter().map(|l| l.queries(a)).collect();
                        prop_assert!(
                            spent.iter().all(|s| *s == spent[0])
                                && remaining.iter().all(|r| r.to_bits() == remaining[0].to_bits())
                                && queries.iter().all(|q| *q == queries[0]),
                            "state for {} diverged: spent {:?} remaining {:?} queries {:?}",
                            a, spent, remaining, queries
                        );
                    }
                    let lists: Vec<_> = ledgers.iter().map(|l| l.analysts()).collect();
                    prop_assert!(
                        lists.iter().all(|l| *l == lists[0]),
                        "analyst lists diverged: {:?}",
                        lists
                    );
                }
            }
        }
        run();
    }

    fn wal_on(storage: crate::fault::FaultStorage, threshold: u64) -> Arc<Wal> {
        Arc::new(Wal::new(
            Box::new(storage),
            crate::wal::FsyncPolicy::Always,
            threshold,
        ))
    }

    #[test]
    fn durable_ledger_replays_to_bitwise_identical_state() {
        let storage = crate::fault::FaultStorage::new();
        let (ledger, report) = BudgetLedger::with_wal(
            LedgerPolicy::sequential(1.0, 1e-4),
            4,
            wal_on(storage.clone(), 0),
        )
        .unwrap();
        assert_eq!(report, RecoveryReport::default());
        let c1 = ledger.try_charge("alice", 0.1, 1e-9).unwrap();
        let c2 = ledger.try_charge("alice", 0.2, 1e-9).unwrap();
        let c3 = ledger.try_charge("bob", 0.3, 1e-9).unwrap();
        ledger.settle(&c1);
        ledger.refund(&c2);
        ledger
            .set_policy("carol", LedgerPolicy::strong(2.0, 1e-3, 1e-6))
            .unwrap();
        let c4 = ledger.try_charge("carol", 0.05, 1e-9).unwrap();
        // A restart leaves nothing refundable: compare against the live
        // ledger once every answer is out.
        ledger.settle(&c3);
        ledger.settle(&c4);
        let before = WalOp::Snapshot(ledger.snapshot()).encode();

        for shards in [1usize, 4, 16] {
            let (replayed, report) = BudgetLedger::with_wal(
                LedgerPolicy::sequential(1.0, 1e-4),
                shards,
                wal_on(storage.clone(), 0),
            )
            .unwrap();
            // Four charges, a refund and a policy change.
            assert_eq!(report.replayed_records, 6, "report: {report:?}");
            assert_eq!(
                WalOp::Snapshot(replayed.snapshot()).encode(),
                before,
                "replay at {shards} shards must be bitwise identical"
            );
            // And the replayed ledger keeps enforcing: same next id,
            // same admission decision.
            assert!((replayed.spent("alice").0 - 0.1).abs() < 1e-12);
            assert!(replayed.try_charge("alice", 1.0, 1e-9).is_err());
        }
    }

    #[test]
    fn wal_append_error_rejects_charge_with_state_untouched() {
        let storage = crate::fault::FaultStorage::new();
        let (ledger, _) = BudgetLedger::with_wal(
            LedgerPolicy::sequential(1.0, 1e-4),
            4,
            wal_on(storage.clone(), 0),
        )
        .unwrap();
        ledger.try_charge("a", 0.25, 1e-9).unwrap();
        let spent_before = ledger.spent("a");
        storage.fail_appends_after(storage.appends());
        let err = ledger.try_charge("a", 0.25, 1e-9).unwrap_err();
        assert!(matches!(err, ServiceError::WalUnavailable(_)), "{err}");
        // Fail closed: nothing charged, nothing admitted.
        assert_eq!(ledger.spent("a").0.to_bits(), spent_before.0.to_bits());
        assert_eq!(ledger.queries("a"), 1);
        assert!(ledger.wal().unwrap().errors() >= 1);
        // The log stays poisoned (a failed append may have torn the
        // tail), so later charges keep failing closed too.
        storage.clear_faults();
        assert!(matches!(
            ledger.try_charge("a", 0.25, 1e-9),
            Err(ServiceError::WalUnavailable(_))
        ));
    }

    #[test]
    fn wal_sync_error_also_fails_closed() {
        let storage = crate::fault::FaultStorage::new();
        let (ledger, _) = BudgetLedger::with_wal(
            LedgerPolicy::sequential(1.0, 1e-4),
            4,
            wal_on(storage.clone(), 0),
        )
        .unwrap();
        storage.fail_syncs_after(0);
        // The charge is written and committed in memory — the disk is
        // not consulted under the shard lock — and the failure surfaces
        // at the barrier, before anything could be released.
        let c = ledger.try_charge("a", 0.25, 1e-9).unwrap();
        assert!(matches!(
            ledger.barrier(&c),
            Err(ServiceError::WalUnavailable(_))
        ));
        assert!(storage.durable_bytes().is_empty(), "nothing reached disk");
        // The log is poisoned: the barrier keeps failing (no second
        // fsync is trusted after a failed one) and so does admission.
        storage.clear_faults();
        assert!(ledger.barrier(&c).is_err());
        assert!(matches!(
            ledger.try_charge("a", 0.25, 1e-9),
            Err(ServiceError::WalUnavailable(_))
        ));
        // What the service does with a failed barrier: refund.
        ledger.refund(&c);
        assert_eq!(ledger.spent("a"), (0.0, 0.0));
        assert_eq!(ledger.queries("a"), 0);
    }

    #[test]
    fn refund_survives_wal_error_in_memory() {
        // A refund whose log write fails must still apply in memory:
        // recovery then overestimates spend (safe direction), but the
        // live ledger keeps serving correct numbers.
        let storage = crate::fault::FaultStorage::new();
        let (ledger, _) = BudgetLedger::with_wal(
            LedgerPolicy::sequential(1.0, 1e-4),
            4,
            wal_on(storage.clone(), 0),
        )
        .unwrap();
        let c = ledger.try_charge("a", 0.25, 1e-9).unwrap();
        ledger.barrier(&c).unwrap();
        storage.fail_appends_after(storage.appends());
        ledger.refund(&c);
        assert_eq!(ledger.spent("a"), (0.0, 0.0));
        // Replay of the durable log sees only the charge: spend is
        // overestimated, never underestimated.
        storage.clear_faults();
        let (replayed, _) = BudgetLedger::with_wal(
            LedgerPolicy::sequential(1.0, 1e-4),
            4,
            wal_on(
                crate::fault::FaultStorage::with_bytes(&storage.durable_bytes()),
                0,
            ),
        )
        .unwrap();
        assert!((replayed.spent("a").0 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn compaction_rewrites_log_and_replay_is_idempotent() {
        let storage = crate::fault::FaultStorage::new();
        let (ledger, _) = BudgetLedger::with_wal(
            LedgerPolicy::sequential(100.0, 1e-2),
            4,
            wal_on(storage.clone(), 8),
        )
        .unwrap();
        let mut charges = Vec::new();
        for i in 0..20 {
            let c = ledger
                .try_charge(&format!("analyst-{}", i % 3), 0.5, 1e-9)
                .unwrap();
            if i % 2 == 0 {
                ledger.settle(&c);
            } else {
                charges.push(c);
            }
        }
        // The last charge has not passed its barrier: the durable bytes
        // are complete once it has (an fsync covers the whole prefix).
        // Snapshots taken so far name the unsettled charges as
        // outstanding; the restart below must not.
        ledger.barrier(charges.last().unwrap()).unwrap();
        for c in &charges {
            ledger.settle(c);
        }
        let reference = WalOp::Snapshot(ledger.snapshot()).encode();
        // The log was compacted at least once: far fewer live records
        // than the 20 charges logged.
        let (ops, report) = ledger.wal().unwrap().read_ops().unwrap();
        assert_eq!(report.torn_bytes_discarded, 0);
        assert!(
            matches!(ops.first(), Some(WalOp::Snapshot(_))),
            "compacted log must start with a snapshot record"
        );
        assert!(ops.len() < 20, "compaction must shrink the log");

        // Replaying the compacted log once — or its bytes twice over —
        // converges to the same state (the snapshot record resets).
        let bytes = storage.durable_bytes();
        for copies in [1usize, 2] {
            let doubled = crate::fault::FaultStorage::new();
            for _ in 0..copies {
                crate::wal::Storage::append(&doubled, &bytes).unwrap();
            }
            crate::wal::Storage::sync(&doubled).unwrap();
            let (replayed, report) = BudgetLedger::with_wal(
                LedgerPolicy::sequential(100.0, 1e-2),
                4,
                wal_on(doubled, 0),
            )
            .unwrap();
            assert!(report.snapshot_restored);
            assert_eq!(
                WalOp::Snapshot(replayed.snapshot()).encode(),
                reference,
                "replay of {copies} copies must converge to one state"
            );
        }
    }

    #[test]
    fn settle_writes_nothing() {
        let (ledger, _) = BudgetLedger::with_wal(
            LedgerPolicy::sequential(1.0, 1e-4),
            4,
            wal_on(crate::fault::FaultStorage::new(), 0),
        )
        .unwrap();
        let c = ledger.try_charge("a", 0.25, 1e-9).unwrap();
        let wal = ledger.wal().unwrap();
        let appends = wal.appends();
        ledger.settle(&c);
        assert_eq!(wal.appends(), appends);
        // Settled for good: a refund is a no-op.
        ledger.refund(&c);
        assert_eq!((ledger.queries("a"), wal.appends()), (1, appends));
    }

    /// A settle record as earlier versions framed it (tag 3).
    fn retired_settle_record(analyst: &str, id: u64) -> Vec<u8> {
        let mut payload = vec![3];
        payload.extend_from_slice(&(analyst.len() as u32).to_le_bytes());
        payload.extend_from_slice(analyst.as_bytes());
        payload.extend_from_slice(&id.to_le_bytes());
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&crate::wal::crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        record
    }

    /// A log that still holds settle records replays in full: each is
    /// skipped, every later record applies, and the ledger ends where a
    /// live ledger running the same charge, settle and refund does —
    /// with nothing outstanding.
    #[test]
    fn a_log_with_settle_records_replays_in_full() {
        let policy = LedgerPolicy::sequential(1.0, 1e-4);
        let live = BudgetLedger::new(policy);
        let a = live.try_charge("x", 0.1, 1e-9).unwrap();
        live.settle(&a);
        let b = live.try_charge("x", 0.2, 3e-9).unwrap();
        live.refund(&b);
        let c = live.try_charge("x", 0.07, 1e-9).unwrap();
        live.settle(&c);
        let charge = |id: u64, epsilon: f64, delta: f64| {
            WalOp::Charge {
                analyst: "x".into(),
                id,
                epsilon,
                delta,
            }
            .encode()
        };
        let refund = WalOp::Refund {
            analyst: "x".into(),
            id: 1,
            epsilon: 0.2,
            delta: 3e-9,
        }
        .encode();
        let log = [
            charge(0, 0.1, 1e-9),
            retired_settle_record("x", 0),
            charge(1, 0.2, 3e-9),
            refund,
            charge(2, 0.07, 1e-9),
        ]
        .concat();
        let storage = crate::fault::FaultStorage::with_bytes(&log);
        let (replayed, report) = BudgetLedger::with_wal(policy, 4, wal_on(storage, 0)).unwrap();
        assert_eq!(report.replayed_records, 5);
        assert_eq!(report.torn_bytes_discarded, 0);
        assert_eq!(
            WalOp::Snapshot(replayed.snapshot()).encode(),
            WalOp::Snapshot(live.snapshot()).encode()
        );
        assert_eq!(replayed.queries("x"), 2);
        assert!(replayed.snapshot().accounts[0].outstanding.is_empty());

        // Any other unknown tag, well framed, still ends replay there.
        let mut unknown = retired_settle_record("x", 0);
        unknown[8] = 6;
        let crc = crate::wal::crc32(&unknown[8..]);
        unknown[4..8].copy_from_slice(&crc.to_le_bytes());
        let first = charge(0, 0.1, 1e-9);
        let log = [first.clone(), unknown.clone(), charge(1, 0.2, 3e-9)].concat();
        let storage = crate::fault::FaultStorage::with_bytes(&log);
        let (replayed, report) = BudgetLedger::with_wal(policy, 4, wal_on(storage, 0)).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(
            report.torn_bytes_discarded,
            (log.len() - first.len()) as u64
        );
        assert_eq!(replayed.queries("x"), 1);
    }

    #[test]
    fn per_analyst_policies() {
        let ledger = BudgetLedger::new(LedgerPolicy::sequential(1.0, 1e-6));
        ledger
            .set_policy("restricted", LedgerPolicy::sequential(0.1, 1e-8))
            .unwrap();
        assert!(ledger.try_charge("restricted", 0.5, 1e-9).is_err());
        ledger.try_charge("restricted", 0.1, 1e-9).unwrap();
        // Policy edits after spending are refused.
        assert!(ledger
            .set_policy("restricted", LedgerPolicy::sequential(9.0, 1e-6))
            .is_err());
    }
}
