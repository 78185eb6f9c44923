//! Fault-injection suite for the durable budget ledger.
//!
//! The centerpiece is a crash-recovery property test: drive a WAL-backed
//! ledger through a random mutation sequence under `FsyncPolicy::Always`
//! the way the service drives it — a charge is *written* at admission
//! and made *durable* at the barrier before its settle; settles are
//! written and never synced — kill the log at a random byte offset
//! (modelling a crash that tore the in-flight record), replay the
//! surviving bytes, and assert:
//!
//! - the recovered state is bitwise identical to independently
//!   re-running exactly the operations whose records lie in the
//!   surviving prefix;
//! - every charge whose barrier had returned `Ok` by the crash is in
//!   that prefix;
//! - per analyst, recovered spend ≥ the spend of the charges that were
//!   released (barrier passed, settled) by the crash;
//! - a lost `Settle` changes only `outstanding` (its own test below).
//!
//! The vendored proptest stub has no shrinking, so the harness is a
//! hand-rolled deterministic loop: every case derives from an LCG seed,
//! and a failing case writes its seed (and crash offset) as JSON to
//! `CARGO_TARGET_TMPDIR` — CI uploads that file as the "minimal failing
//! seeds" artifact — before re-panicking.

use flex_core::PrivacyParams;
use flex_db::{DataType, Schema, Value};
use flex_service::{
    BudgetLedger, Charge, FaultStorage, FsyncPolicy, LedgerPolicy, QueryService, ServiceConfig,
    ServiceError, Storage, Wal, WalOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Number of generated crash cases (ISSUE floor: ≥ 256).
const CRASH_CASES: u64 = 320;

fn wal_on(storage: FaultStorage, threshold: u64) -> Arc<Wal> {
    Arc::new(Wal::new(Box::new(storage), FsyncPolicy::Always, threshold))
}

/// Everything written to `storage`, synced or not (settles never are):
/// what a restart that follows no crash reads.
fn written_bytes(storage: &FaultStorage) -> Vec<u8> {
    Storage::read(storage).expect("in-memory read")
}

/// Canonical byte encoding of a ledger's full state: shard-count and
/// insertion-order independent (accounts sorted by analyst), floats as
/// raw IEEE-754 bits — equality here is bitwise state equality.
fn state_bytes(ledger: &BudgetLedger) -> Vec<u8> {
    WalOp::Snapshot(ledger.snapshot()).encode()
}

/// One mutation of the replayable driver script. `Refund`/`Settle` point
/// back at the index of the `Charge` op they act on, so the script can
/// be re-run against a fresh ledger and produce the same `Charge` ids
/// (ids allocate sequentially in op order).
#[derive(Debug, Clone)]
enum Op {
    Charge {
        analyst: usize,
        eps: f64,
        delta: f64,
    },
    Refund {
        of: usize,
    },
    Settle {
        of: usize,
    },
}

const ANALYSTS: [&str; 3] = ["alice", "bob", "carol"];
// Non-dyadic epsilons so replay must reproduce accumulated float bits
// exactly, not just approximately.
const EPSILONS: [f64; 4] = [0.1, 0.3, 0.07, 1e-3];
const DELTAS: [f64; 3] = [1e-9, 3e-8, 1e-7];

/// Generate a random script of `n` ops; refunds and settles target
/// earlier charges (possibly already-released ones, exercising the
/// double-refund no-op path).
fn random_script(rng: &mut StdRng, n: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    let mut charges: Vec<usize> = Vec::new();
    for i in 0..n {
        let roll: f64 = rng.gen();
        if charges.is_empty() || roll < 0.5 {
            ops.push(Op::Charge {
                analyst: rng.gen_range(0..ANALYSTS.len()),
                eps: EPSILONS[rng.gen_range(0..EPSILONS.len())],
                delta: DELTAS[rng.gen_range(0..DELTAS.len())],
            });
            charges.push(i);
        } else {
            let of = charges[rng.gen_range(0..charges.len())];
            if roll < 0.7 {
                ops.push(Op::Refund { of });
            } else {
                ops.push(Op::Settle { of });
            }
        }
    }
    ops
}

/// Apply one op to `ledger` the way the service would, tracking the
/// `Charge` values each charge op produced (needed to re-issue
/// refunds/settles verbatim): a charge is written at admission, passes
/// the durability barrier when (and only when) it is about to be
/// released, and is then settled.
fn apply(ledger: &BudgetLedger, op: &Op, index: usize, charges: &mut Vec<Option<Charge>>) {
    debug_assert_eq!(charges.len(), index);
    match op {
        Op::Charge {
            analyst,
            eps,
            delta,
        } => {
            let c = ledger
                .try_charge(ANALYSTS[*analyst], *eps, *delta)
                .expect("caps are generous; charges never reject");
            charges.push(Some(c));
        }
        Op::Refund { of } => {
            let c = charges[*of].clone().expect("refund targets a charge op");
            ledger.refund(&c);
            charges.push(None);
        }
        Op::Settle { of } => {
            let c = charges[*of].clone().expect("settle targets a charge op");
            ledger
                .barrier(&c)
                .expect("no fault is injected in the scripts");
            ledger.settle(&c);
            charges.push(None);
        }
    }
}

fn generous_policy() -> LedgerPolicy {
    LedgerPolicy::sequential(1e9, 1.0)
}

/// One crash case: run a random script against a WAL-backed ledger,
/// tear the log at a random byte offset, recover, and compare against
/// independently re-running the ops whose records survived.
fn crash_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_ops = rng.gen_range(1..40);
    let script = random_script(&mut rng, n_ops);
    let recover_shards = [1usize, 4, 16][rng.gen_range(0..3)];

    // Original run, fsync Always, no compaction (compaction's atomic
    // replace is crash-safe by rename, not by prefix truncation, and is
    // covered by its own tests below).
    let storage = FaultStorage::new();
    let (ledger, report) = BudgetLedger::with_wal(generous_policy(), 2, wal_on(storage.clone(), 0))
        .expect("fresh log recovers trivially");
    assert_eq!(report.replayed_records, 0);
    let mut charges = Vec::new();
    // After each op: where the written stream ends (the op's record, if
    // it logged one, lies wholly before it) and where the durable
    // stream ends (what a crash right now is certain to keep).
    let mut written = Vec::with_capacity(script.len());
    let mut durable = Vec::with_capacity(script.len());
    for (i, op) in script.iter().enumerate() {
        apply(&ledger, op, i, &mut charges);
        written.push(storage.total_len());
        durable.push(storage.durable_len());
    }

    // Crash: keep a uniformly random prefix of everything written. A
    // prefix of length L is what some crash leaves behind exactly when
    // the durable stream was no longer than L at that moment, so the
    // ops acknowledged by this crash are those after which the durable
    // length was still ≤ L.
    let total = storage.total_len();
    let crash_offset = rng.gen_range(0..=total);
    let torn = FaultStorage::with_bytes(&written_bytes(&storage)[..crash_offset]);

    let (recovered, _) = BudgetLedger::with_wal(generous_policy(), recover_shards, wal_on(torn, 0))
        .unwrap_or_else(|e| {
            panic!("seed {seed:#x}: recovery over torn log failed: {e} (offset {crash_offset})")
        });

    // The surviving prefix: every op whose record (if any) lies wholly
    // inside it. Ops that log nothing are no-ops on any ledger that
    // applied the same prefix, so re-running them changes nothing.
    let survived = written.iter().filter(|&&end| end <= crash_offset).count();
    let reference = BudgetLedger::with_shards(generous_policy(), 1);
    let mut ref_charges = Vec::new();
    for (i, op) in script.iter().take(survived).enumerate() {
        apply(&reference, op, i, &mut ref_charges);
    }
    let context = format!(
        "seed {seed:#x} ({survived}/{} ops survive, crash at byte {crash_offset}/{total}, \
         {recover_shards} shards)",
        script.len()
    );
    assert_eq!(
        state_bytes(&recovered),
        state_bytes(&reference),
        "{context}: recovered state is not the replay of the surviving prefix"
    );

    // No release without a durable charge: every settle op passed the
    // barrier first, so if it was acknowledged by the crash its charge
    // is in the surviving prefix. The first settle of a charge not yet
    // refunded is a release and pins the spend for good — per analyst,
    // recovered spend covers the acknowledged releases.
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Outstanding,
        Refunded,
        Released,
    }
    let mut state = vec![State::Outstanding; script.len()];
    let mut floor = [(0.0f64, 0.0f64); ANALYSTS.len()];
    for (i, op) in script.iter().enumerate() {
        let acknowledged = durable[i] <= crash_offset;
        match op {
            Op::Refund { of } if state[*of] == State::Outstanding => state[*of] = State::Refunded,
            Op::Settle { of } => {
                assert!(
                    !acknowledged || written[*of] <= crash_offset,
                    "{context}: op {i} passed the barrier of charge op {of}, whose \
                     record did not survive"
                );
                if state[*of] == State::Outstanding {
                    state[*of] = State::Released;
                    if let (
                        Op::Charge {
                            analyst,
                            eps,
                            delta,
                        },
                        true,
                    ) = (&script[*of], acknowledged)
                    {
                        floor[*analyst].0 += eps;
                        floor[*analyst].1 += delta;
                    }
                }
            }
            _ => {}
        }
    }
    for (analyst, (fe, fd)) in ANALYSTS.iter().zip(floor) {
        let (re, rd) = recovered.spent(analyst);
        // The floor is summed in another order than the ledger's
        // accumulator: equal up to rounding, not bitwise.
        assert!(
            re >= fe - 1e-9 && rd >= fd - 1e-15,
            "{context}: {analyst} recovered ({re}, {rd}) < released ({fe}, {fd})"
        );
    }
}

/// Wrap one case so a failure drops its reproduction seed into
/// `CARGO_TARGET_TMPDIR` (uploaded by CI as an artifact) before
/// re-panicking. No shrinking in the vendored proptest stub — the seed
/// file IS the minimal reproduction.
fn run_case_reporting_seed(
    test: &str,
    case: u64,
    seed: u64,
    f: impl Fn(u64) + std::panic::RefUnwindSafe,
) {
    let outcome = std::panic::catch_unwind(|| f(seed));
    if let Err(panic) = outcome {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("recovery-failing-seeds-{test}.json"));
        let _ = std::fs::write(
            &path,
            format!(
                "{{\"test\": \"{test}\", \"case\": {case}, \"seed\": {seed}, \
                 \"rerun\": \"crash_case({seed:#x})\"}}\n"
            ),
        );
        eprintln!("failing seed written to {}", path.display());
        std::panic::resume_unwind(panic);
    }
}

/// The tentpole property: ≥ 256 random crash points, each asserting
/// bitwise-identical recovery of the surviving prefix, that no released
/// charge is missing from it, and the spend-superset invariant.
#[test]
fn crash_recovery_preserves_acknowledged_spend() {
    // Deterministic LCG over case indices: every case regenerates from
    // its printed seed alone.
    let mut seed = 0x5EED_1092_F00D_CAFEu64;
    for case in 0..CRASH_CASES {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        run_case_reporting_seed(
            "crash_recovery_preserves_acknowledged_spend",
            case,
            seed,
            crash_case,
        );
    }
}

/// Recovery is shard-count independent: one log replayed at 1, 4 and 16
/// shards yields bitwise-identical canonical state, equal to the
/// pre-crash ledger's own snapshot.
#[test]
fn recovery_is_bitwise_identical_across_shard_counts() {
    let storage = FaultStorage::new();
    let (ledger, _) =
        BudgetLedger::with_wal(generous_policy(), 4, wal_on(storage.clone(), 0)).unwrap();
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let script = random_script(&mut rng, 60);
    let mut charges = Vec::new();
    for (i, op) in script.iter().enumerate() {
        apply(&ledger, op, i, &mut charges);
    }
    let expected = state_bytes(&ledger);
    // Ops that targeted an already-released charge are no-ops and log
    // nothing, so the record count to replay is the WAL's own append
    // count, not the script length.
    let logged = ledger.wal().expect("wal attached").appends();
    assert!(logged > 0);
    for shards in [1usize, 4, 16] {
        let replica = FaultStorage::with_bytes(&written_bytes(&storage));
        let (recovered, report) =
            BudgetLedger::with_wal(generous_policy(), shards, wal_on(replica, 0)).unwrap();
        assert_eq!(report.replayed_records, logged);
        assert_eq!(
            state_bytes(&recovered),
            expected,
            "{shards}-shard replay diverged"
        );
    }
}

/// Replaying a compacted log (snapshot record + tail) twice is
/// idempotent: the second recovery reproduces the first bit for bit.
#[test]
fn double_replay_of_compacted_log_is_idempotent() {
    let storage = FaultStorage::new();
    // Threshold 8 forces several compactions over 50 ops.
    let (ledger, _) =
        BudgetLedger::with_wal(generous_policy(), 2, wal_on(storage.clone(), 8)).unwrap();
    let mut rng = StdRng::seed_from_u64(0x1D3A);
    let script = random_script(&mut rng, 50);
    let mut charges = Vec::new();
    for (i, op) in script.iter().enumerate() {
        apply(&ledger, op, i, &mut charges);
    }
    let expected = state_bytes(&ledger);
    let bytes = written_bytes(&storage);
    let (once, first) = BudgetLedger::with_wal(
        generous_policy(),
        2,
        wal_on(FaultStorage::with_bytes(&bytes), 0),
    )
    .unwrap();
    assert!(first.snapshot_restored, "a compaction must have happened");
    assert_eq!(state_bytes(&once), expected, "recovery == pre-crash state");
    let (twice, _) = BudgetLedger::with_wal(
        generous_policy(),
        2,
        wal_on(FaultStorage::with_bytes(&bytes), 0),
    )
    .unwrap();
    assert_eq!(
        state_bytes(&twice),
        state_bytes(&once),
        "replay is idempotent"
    );
}

/// A failed compaction rewrite must leave the existing log fully
/// recoverable: `replace` is atomic (old bytes or new bytes, never a
/// mix), so an injected replace error loses nothing.
#[test]
fn failed_compaction_leaves_log_recoverable() {
    let storage = FaultStorage::new();
    storage.fail_replace(true);
    let (ledger, _) =
        BudgetLedger::with_wal(generous_policy(), 2, wal_on(storage.clone(), 4)).unwrap();
    for i in 0..20 {
        let c = ledger
            .try_charge(ANALYSTS[i % 3], EPSILONS[i % 4], 1e-9)
            .unwrap();
        if i % 2 == 0 {
            ledger.settle(&c);
        }
    }
    let expected = state_bytes(&ledger);
    let (recovered, report) = BudgetLedger::with_wal(
        generous_policy(),
        2,
        wal_on(FaultStorage::with_bytes(&written_bytes(&storage)), 0),
    )
    .unwrap();
    assert!(!report.snapshot_restored, "every rewrite failed");
    assert_eq!(state_bytes(&recovered), expected);
}

/// A `Settle` is written and never synced, so a crash can lose it:
/// recovery then differs from the live ledger in `outstanding` only —
/// spend, query counts and policies are bitwise the same.
#[test]
fn a_lost_settle_changes_only_outstanding() {
    let storage = FaultStorage::new();
    let (ledger, _) =
        BudgetLedger::with_wal(generous_policy(), 2, wal_on(storage.clone(), 0)).unwrap();
    for (i, analyst) in ANALYSTS.iter().enumerate() {
        let c = ledger.try_charge(analyst, EPSILONS[i], DELTAS[i]).unwrap();
        ledger.barrier(&c).unwrap();
        ledger.settle(&c);
    }
    let live = ledger.snapshot();
    storage.crash();
    let (recovered, report) =
        BudgetLedger::with_wal(generous_policy(), 2, wal_on(storage.clone(), 0)).unwrap();
    // Three charges, and the two settles the next charge's fsync carried.
    assert_eq!(report.replayed_records, 5);
    let mut recovered = recovered.snapshot();
    assert_ne!(recovered, live, "carol's settle was in the page cache");
    assert_eq!(recovered.accounts[2].outstanding.len(), 1);
    recovered.accounts[2].outstanding.clear();
    assert_eq!(recovered, live);
}

/// Group commit under contention: eight threads, two per analyst, fifty
/// charges each, every charge through the barrier. The first round is
/// pinned behind one held fsync, so fewer fsyncs than charges is certain
/// rather than likely; all 400 charges are durable; and the log's
/// per-analyst order is the commit order — the replay is bitwise the
/// live ledger, which float addition would not forgive otherwise.
#[test]
fn concurrent_charges_share_fsyncs_and_keep_commit_order() {
    const THREADS: usize = 8;
    const CHARGES: usize = 50;
    let storage = FaultStorage::new();
    let (ledger, _) =
        BudgetLedger::with_wal(generous_policy(), 4, wal_on(storage.clone(), 0)).unwrap();
    storage.pause_syncs();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ledger = &ledger;
            scope.spawn(move || {
                let analyst = format!("analyst-{}", t % 4);
                for k in 0..CHARGES {
                    // Distinct non-dyadic amounts: a reordered replay
                    // would round differently.
                    let eps = 1e-3 * (1 + t + THREADS * k) as f64 / 7.0;
                    let c = ledger.try_charge(&analyst, eps, 1e-9).unwrap();
                    ledger.barrier(&c).unwrap();
                }
            });
        }
        // Every thread has written its first charge; one leads the held
        // fsync and seven wait behind it.
        while storage.appends() < THREADS as u64 || storage.syncs_held() == 0 {
            std::thread::yield_now();
        }
        storage.resume_syncs();
    });
    let wal = ledger.wal().unwrap();
    let charges = (THREADS * CHARGES) as u64;
    assert_eq!(wal.appends(), charges);
    assert!(wal.fsyncs() < charges, "{} fsyncs", wal.fsyncs());
    // Every barrier returned: nothing is left in the page cache.
    assert_eq!(storage.durable_len(), storage.total_len());
    let (recovered, report) = BudgetLedger::with_wal(
        generous_policy(),
        1,
        wal_on(FaultStorage::with_bytes(&storage.durable_bytes()), 0),
    )
    .unwrap();
    assert_eq!(report.replayed_records, charges);
    assert_eq!(state_bytes(&recovered), state_bytes(&ledger));
}

// ---------------------------------------------------------------------
// Service-level fault injection: the WAL sits inside the full serving
// pipeline (cache shard lock → ledger shard lock → WAL writer lock).
// ---------------------------------------------------------------------

fn test_db() -> Arc<flex_db::Database> {
    let mut db = flex_db::Database::new();
    db.create_table(
        "trips",
        Schema::of(&[("id", DataType::Int), ("city_id", DataType::Int)]),
    )
    .unwrap();
    db.insert(
        "trips",
        (0..400)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    Arc::new(db)
}

fn wal_config() -> ServiceConfig {
    ServiceConfig {
        seed: Some(0xFEED),
        wal_fsync: FsyncPolicy::Always,
        ..ServiceConfig::default()
    }
}

/// A service restarted over the same WAL bytes recovers every analyst's
/// spend exactly — and, under an explicit noise seed, re-releases the
/// same answers.
#[test]
fn service_restart_recovers_spend_and_releases() {
    let storage = FaultStorage::new();
    let p = PrivacyParams::new(0.5, 1e-9).unwrap();
    let svc =
        QueryService::with_storage(test_db(), wal_config(), Box::new(storage.clone())).unwrap();
    let first = svc.query("alice", "SELECT COUNT(*) FROM trips", p).unwrap();
    svc.query("bob", "SELECT COUNT(*) FROM trips WHERE city_id = 2", p)
        .unwrap();
    let spend_alice = svc.ledger().spent("alice");
    let spend_bob = svc.ledger().spent("bob");
    drop(svc);

    let svc2 =
        QueryService::with_storage(test_db(), wal_config(), Box::new(storage.clone())).unwrap();
    assert!(svc2.recovery_report().replayed_records >= 4);
    assert_eq!(svc2.ledger().spent("alice"), spend_alice);
    assert_eq!(svc2.ledger().spent("bob"), spend_bob);
    // Same noise seed + same data: the restarted service re-releases
    // identical bytes (the cold cache recomputes, the seed re-derives).
    let again = svc2
        .query("carol", "SELECT COUNT(*) FROM trips", p)
        .unwrap();
    assert_eq!(again.rows, first.rows);
}

/// Injected WAL failures mid-serving: queries that were acknowledged
/// before the fault survive a crash; queries after it are rejected
/// fail-closed, never admitted uncharged.
#[test]
fn wal_fault_mid_serving_rejects_and_preserves_prior_spend() {
    let storage = FaultStorage::new();
    let p = PrivacyParams::new(0.25, 1e-9).unwrap();
    let svc =
        QueryService::with_storage(test_db(), wal_config(), Box::new(storage.clone())).unwrap();
    svc.query("alice", "SELECT COUNT(*) FROM trips", p).unwrap();
    let spend_before = svc.ledger().spent("alice");

    // Every append from now on fails.
    storage.fail_appends_after(storage.appends());
    let err = svc
        .query("alice", "SELECT COUNT(*) FROM trips WHERE city_id = 1", p)
        .unwrap_err();
    assert!(matches!(err, ServiceError::WalUnavailable(_)), "{err:?}");
    assert_eq!(
        svc.ledger().spent("alice"),
        spend_before,
        "the rejected query must not be admitted uncharged or charged unlogged"
    );
    drop(svc);

    // Crash and recover: the durable log still carries the acknowledged
    // spend.
    storage.clear_faults();
    storage.crash();
    let svc2 =
        QueryService::with_storage(test_db(), wal_config(), Box::new(storage.clone())).unwrap();
    assert_eq!(svc2.ledger().spent("alice"), spend_before);
}

/// A torn tail (short write of the final record) is discarded on
/// recovery without losing any earlier acknowledged record.
#[test]
fn torn_tail_is_discarded_not_fatal() {
    let storage = FaultStorage::new();
    let (ledger, _) =
        BudgetLedger::with_wal(generous_policy(), 1, wal_on(storage.clone(), 0)).unwrap();
    let c1 = ledger.try_charge("alice", 0.3, 1e-9).unwrap();
    ledger.settle(&c1);
    let intact = state_bytes(&ledger);
    let whole = storage.total_len();
    // Append one more charge, then tear all but 3 bytes of its record.
    ledger.try_charge("alice", 0.07, 1e-9).unwrap();
    let torn = FaultStorage::with_bytes(&written_bytes(&storage)[..whole + 3]);
    let (recovered, report) =
        BudgetLedger::with_wal(generous_policy(), 1, wal_on(torn, 0)).unwrap();
    assert_eq!(report.torn_bytes_discarded, 3);
    assert_eq!(report.replayed_records, 2, "charge + settle survive");
    assert_eq!(state_bytes(&recovered), intact);
}

/// Flipping any single bit of a settled record's bytes must not replay
/// silently: CRC-32 catches it and recovery stops at the corruption.
#[test]
fn bit_flip_in_the_log_never_replays_silently() {
    let storage = FaultStorage::new();
    let (ledger, _) =
        BudgetLedger::with_wal(generous_policy(), 1, wal_on(storage.clone(), 0)).unwrap();
    let c = ledger.try_charge("alice", 0.1, 1e-9).unwrap();
    ledger.settle(&c);
    let bytes = written_bytes(&storage);
    let mut rng = StdRng::seed_from_u64(0xB17F);
    for _ in 0..64 {
        let corrupted = FaultStorage::with_bytes(&bytes);
        let byte = rng.gen_range(0..bytes.len());
        corrupted.flip_bit(byte, rng.gen_range(0..8));
        let (recovered, _) =
            BudgetLedger::with_wal(generous_policy(), 1, wal_on(corrupted, 0)).unwrap();
        // The flip lands in the first record (charge) or the second
        // (settle); either way nothing corrupt is applied — the ledger
        // sees the uncorrupted prefix only.
        let (eps, _) = recovered.spent("alice");
        assert!(
            eps == 0.0 || eps == 0.1,
            "corrupted replay produced spend {eps} (flipped byte {byte})"
        );
    }
}

fn params(eps: f64) -> PrivacyParams {
    PrivacyParams::new(eps, 1e-9).unwrap()
}

/// A sync that fails while a release is waiting on it: the owner and the
/// waiter coalesced onto it get `WalUnavailable`, nothing is cached or
/// charged in memory, and a crash never shows less spend than a response
/// a client saw.
#[test]
fn failed_sync_fails_owner_and_waiter_and_releases_nothing() {
    let storage = FaultStorage::new();
    let svc =
        QueryService::with_storage(test_db(), wal_config(), Box::new(storage.clone())).unwrap();
    let p = params(0.5);
    // A release a client holds from before the fault.
    let seen = svc.query("alice", "SELECT COUNT(*) FROM trips", p).unwrap();
    let sql = "SELECT COUNT(*) FROM trips WHERE city_id = 1";
    storage.pause_syncs();
    let (owner, waiter) = std::thread::scope(|scope| {
        let owner = scope.spawn(|| svc.query("alice", sql, p));
        while storage.syncs_held() == 0 {
            std::thread::yield_now();
        }
        // The charge's fsync is in flight, so its release cannot pass the
        // barrier and the key stays pending: this request coalesces.
        let waiter = svc.submit("bob", sql, p);
        // Fail the held sync (the latest one) and every later one.
        storage.fail_syncs_after(storage.syncs() - 1);
        storage.resume_syncs();
        (owner.join().unwrap(), waiter.wait())
    });
    for outcome in [owner, waiter] {
        let err = outcome.unwrap_err();
        assert!(matches!(err, ServiceError::WalUnavailable(_)), "{err:?}");
    }
    let t = svc.telemetry();
    assert_eq!((t.coalesced, t.completed), (1, 1), "snapshot: {t}");
    assert_eq!(svc.cached_answers(), 1, "only the release before the fault");
    assert_eq!(svc.ledger().spent("alice"), seen.charged, "refunded");
    assert_eq!(svc.ledger().spent("bob"), (0.0, 0.0));
    // Poisoned: nothing new is admitted; what was released still serves.
    assert!(svc
        .query("bob", "SELECT COUNT(*) FROM trips WHERE city_id = 2", p)
        .is_err());
    assert!(
        svc.query("bob", "SELECT COUNT(*) FROM trips", p)
            .unwrap()
            .from_cache
    );
    drop(svc);

    storage.clear_faults();
    storage.crash();
    let svc2 = QueryService::with_storage(test_db(), wal_config(), Box::new(storage)).unwrap();
    assert!(svc2.ledger().spent("alice").0 >= seen.charged.0);
}

/// What a client saw: who asked, which canonical query, what it cost.
type Seen = (String, String, f64);

/// The restated contract against one crash image: per analyst, the
/// recovered spend covers every charged response seen, and there is a
/// surviving charge for every distinct release seen by anyone — owner,
/// coalesced waiter or cache hit.
fn assert_image_covers(image: &[u8], seen: &[Seen], context: &str) {
    let (recovered, _) = BudgetLedger::with_wal(
        ServiceConfig::default().policy,
        1,
        wal_on(FaultStorage::with_bytes(image), 0),
    )
    .unwrap();
    let mut analysts: Vec<&str> = seen.iter().map(|s| s.0.as_str()).collect();
    analysts.sort_unstable();
    analysts.dedup();
    for analyst in analysts {
        let floor: f64 = seen.iter().filter(|s| s.0 == analyst).map(|s| s.2).sum();
        let (spent, _) = recovered.spent(analyst);
        assert!(
            spent >= floor - 1e-9,
            "{context}: {analyst} saw {floor} charged, the crash image holds {spent}"
        );
    }
    let mut releases: Vec<&str> = seen.iter().map(|s| s.1.as_str()).collect();
    releases.sort_unstable();
    releases.dedup();
    let charges: u32 = recovered
        .analysts()
        .iter()
        .map(|a| recovered.queries(a))
        .sum();
    assert!(
        charges as usize >= releases.len(),
        "{context}: {} distinct releases seen, {charges} charges in the crash image",
        releases.len()
    );
}

/// Serve `clients` × 12 requests (six distinct queries, so owners,
/// coalesced waiters and cache hits all occur) on `workers` workers,
/// failing every sync past `fail_syncs_after`, and hold every response
/// against crash images taken at that moment: by the client itself the
/// instant `wait()` returns (the durable bytes), and by a monitor that
/// crashes the log at arbitrary points (durable bytes plus a random
/// part of the unsynced tail).
fn serve_and_check(workers: usize, clients: usize, fail_syncs_after: Option<u64>) {
    let context = format!("{workers} workers, {clients} clients, fail after {fail_syncs_after:?}");
    let storage = FaultStorage::new();
    if let Some(n) = fail_syncs_after {
        storage.fail_syncs_after(n);
    }
    let config = ServiceConfig {
        workers,
        ..wal_config()
    };
    let svc = QueryService::with_storage(test_db(), config, Box::new(storage.clone())).unwrap();
    let seen: std::sync::Mutex<Vec<Seen>> = std::sync::Mutex::new(Vec::new());
    let serving = std::sync::atomic::AtomicUsize::new(clients);
    std::thread::scope(|scope| {
        for t in 0..clients {
            let (svc, seen, storage, serving, context) =
                (&svc, &seen, &storage, &serving, &context);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC11E + t as u64);
                let analyst = format!("analyst-{}", t % 3);
                for _ in 0..12 {
                    let sql = format!(
                        "SELECT COUNT(*) FROM trips WHERE id < {}",
                        100 + rng.gen_range(0..6)
                    );
                    match svc.query(&analyst, &sql, params(0.01)) {
                        Ok(r) => {
                            let mut seen = seen.lock().unwrap();
                            seen.push((analyst.clone(), r.canonical_sql, r.charged.0));
                            assert_image_covers(&storage.durable_bytes(), &seen, context);
                        }
                        Err(ServiceError::WalUnavailable(_)) if fail_syncs_after.is_some() => {}
                        Err(e) => panic!("{context}: {e:?}"),
                    }
                }
                serving.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        // The monitor. The responses are read first and the log second:
        // whatever a client had seen by then, the later image must cover.
        let mut rng = StdRng::seed_from_u64(0xC4A5);
        while serving.load(std::sync::atomic::Ordering::SeqCst) > 0 {
            let seen = seen.lock().unwrap().clone();
            let durable = storage.durable_len();
            let written = written_bytes(&storage);
            let crash_offset = rng.gen_range(durable..=written.len());
            assert_image_covers(&written[..crash_offset], &seen, &context);
            std::thread::yield_now();
        }
    });
    let seen = seen.into_inner().unwrap();
    if fail_syncs_after.is_none() {
        assert_eq!(
            seen.len(),
            clients * 12,
            "{context}: every request answered"
        );
        assert_eq!(svc.telemetry().wal_errors, 0);
    }
    storage.crash();
    assert_image_covers(&storage.durable_bytes(), &seen, &context);
}

/// Every `Ok` response a client holds has its charge on disk the moment
/// `wait()` returns, at one worker and eight, one client and eight.
#[test]
fn every_response_has_a_durable_charge_when_wait_returns() {
    for (workers, clients) in [(1, 1), (1, 8), (8, 1), (8, 8)] {
        serve_and_check(workers, clients, None);
    }
}

/// The same under injected sync failures: whichever sync fails, and
/// wherever the log is crashed, no response lacks a durable charge and
/// recovered spend never undercuts the responses seen.
#[test]
fn no_response_without_a_durable_charge_across_sync_failures_and_crashes() {
    for fail_after in [0, 1, 2, 3, 5, 8] {
        serve_and_check(1, 8, Some(fail_after));
        serve_and_check(8, 8, Some(fail_after));
    }
}

/// A clean stop syncs the tail once the workers have drained: the
/// trailing settle under `Always`, everything under `EveryN`/`Never`.
#[test]
fn clean_stop_leaves_nothing_unsynced() {
    for policy in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(64),
        FsyncPolicy::Never,
    ] {
        let storage = FaultStorage::new();
        let config = ServiceConfig {
            wal_fsync: policy,
            ..wal_config()
        };
        let svc = QueryService::with_storage(test_db(), config, Box::new(storage.clone())).unwrap();
        for city in 0..3 {
            let sql = format!("SELECT COUNT(*) FROM trips WHERE city_id = {city}");
            svc.query("alice", &sql, params(0.1)).unwrap();
        }
        let live = state_bytes(svc.ledger());
        assert!(storage.durable_len() < storage.total_len(), "{policy:?}");
        if policy != FsyncPolicy::Always {
            assert_eq!(
                storage.durable_len(),
                0,
                "{policy:?}: the barrier is a no-op"
            );
        }
        let t = svc.shutdown();
        assert_eq!(t.wal_errors, 0);
        assert_eq!(storage.durable_len(), storage.total_len(), "{policy:?}");
        storage.crash();
        let (recovered, _) =
            BudgetLedger::with_wal(wal_config().policy, 1, wal_on(storage, 0)).unwrap();
        assert_eq!(state_bytes(&recovered), live, "{policy:?}");
    }
}

/// What an operator reads: a lone client under `Always` pays one fsync
/// per release for two records (the settle rides along), every release
/// records its wait at the barrier, and without a WAL that wait is zero.
#[test]
fn telemetry_shows_records_per_fsync_and_the_barrier_wait() {
    let svc =
        QueryService::with_storage(test_db(), wal_config(), Box::new(FaultStorage::new())).unwrap();
    for city in 0..3 {
        let sql = format!("SELECT COUNT(*) FROM trips WHERE city_id = {city}");
        let r = svc.query("alice", &sql, params(0.1)).unwrap();
        assert!(r.trace.is_some());
    }
    let t = svc.telemetry();
    assert_eq!((t.wal_appends, t.wal_fsyncs), (6, 3), "snapshot: {t}");
    assert_eq!(t.wal_records_per_fsync(), 2.0);
    assert_eq!(t.durability_latency.count(), 3);
    assert!(t.to_string().contains("wal records/fsync"), "snapshot: {t}");
    assert_eq!(
        svc.shutdown().wal_fsyncs,
        4,
        "the stop syncs the last settle"
    );

    let plain = QueryService::new(test_db(), wal_config());
    let r = plain
        .query("alice", "SELECT COUNT(*) FROM trips", params(0.1))
        .unwrap();
    assert_eq!(r.trace.unwrap().durability, std::time::Duration::ZERO);
    assert_eq!(plain.telemetry().wal_records_per_fsync(), 0.0);
}
