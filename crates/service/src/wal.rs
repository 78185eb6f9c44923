//! Append-only, checksummed write-ahead log for the budget ledger.
//!
//! The ledger is the one component of the service that must never
//! forget: a crash that loses charges lets analysts re-spend ε and
//! silently voids the differential-privacy guarantee. This module makes
//! the ledger durable with a deliberately boring design — an
//! append-only log of fixed-framing records over a pluggable
//! [`Storage`] backend, plus snapshot compaction:
//!
//! - **Framing.** Every record is `[len: u32 LE][crc: u32 LE][payload]`
//!   where `crc` is the IEEE CRC-32 of the payload. Recovery walks the
//!   log from the front and stops at the first record whose length or
//!   checksum fails — a torn tail from a crash mid-append (or a
//!   bit-flip) discards that record *and everything after it*, because
//!   framing downstream of a corrupt record cannot be trusted.
//! - **Payloads.** One tagged record per ledger mutation that changes
//!   what a restart must remember ([`WalOp::Charge`],
//!   [`WalOp::Refund`], [`WalOp::SetPolicy`]) plus a
//!   [`WalOp::Snapshot`] record holding the complete ledger state;
//!   compaction atomically replaces the log with a single snapshot
//!   record. All floats are stored as raw IEEE-754 bits, so replay is
//!   *bitwise* exact, not merely approximate. Settling a charge (its
//!   answer was released) writes nothing: it only drops the charge from
//!   the refundable set, and no charge is refundable across a restart.
//!   Logs written by earlier versions hold a settle record (tag 3) per
//!   release; it decodes to no op and replay skips it.
//! - **Written vs. durable.** The log has two operations, not one.
//!   [`Wal::write`] puts a record into the file and returns its
//!   sequence number (its [`Lsn`]); the ledger calls it under the
//!   analyst's shard lock, so per-analyst log order equals commit
//!   order. [`Wal::commit`] makes everything up to an LSN *durable*,
//!   and is called outside every lock: the first caller to find its LSN
//!   unsynced fsyncs once for everything written so far, and callers
//!   whose LSN that fsync covered return without touching the disk
//!   (group commit — no timer, no knob). The log has no thread of its
//!   own: its callers drive it. An fsync covers the whole file, so a
//!   durable LSN implies a durable prefix. Every record is synced
//!   before anything depends on it: a charge by the service's log
//!   flusher thread while its query runs, and in any case at the
//!   barrier the service passes before any answer it paid for is
//!   released; a refund or a policy change by its writer before its
//!   call returns; a snapshot inside the rewrite. There is no weaker policy: a log that
//!   let a crash forget a charge whose answer was out would let its
//!   analyst spend that ε twice.
//! - **What the tail may hold.** After a crash the bytes past the last
//!   completed fsync are whatever the OS happened to flush: a `Refund`
//!   or `SetPolicy` whose caller had not been answered yet, and at most
//!   the `Charge`s whose answers were never released (their barrier had
//!   not returned). Recovery replays the intact prefix and stops at the
//!   first bad record, so it keeps every charge an answer was ever
//!   released for.
//! - **Fail closed.** A write or sync error *poisons* the log: the
//!   failed write may have left partial bytes, so later records could
//!   land after an unreadable gap and be silently discarded by
//!   recovery, and after a failed fsync the OS may report the next one
//!   clean without having written anything. Once poisoned, every
//!   further write fails fast and so does every commit of an LSN that
//!   is not already durable, which the ledger and the service turn into
//!   query rejection — never an uncharged admission, never an answer
//!   whose charge is not on disk.
//!
//! Cache contents and telemetry are deliberately *not* logged: both are
//! reconstructible (or disposable) and neither guards privacy.

use crate::ledger::LedgerPolicy;
use crate::sync::lock;
use flex_core::Composition;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How often the log forces written records to stable storage. One
/// policy is offered, the one under which a crash can never forget the
/// charge behind a released answer; the type stays so that existing
/// callers of [`Wal::new`] and `ServiceConfig::wal_fsync` keep naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every committed record is synced: a charge is on disk before the
    /// answer it paid for is released.
    Always,
}

/// Pluggable byte-level backend for the log — the seam the
/// fault-injection harness ([`crate::fault::FaultStorage`]) plugs into.
///
/// Implementations must make `replace` atomic (readers observe either
/// the old log or the new one, never a mix) and durable on return.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Append raw bytes to the end of the log.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Force to stable storage every byte whose `append` returned before
    /// this call. An `append` may run while a `sync` is in flight.
    fn sync(&self) -> io::Result<()>;
    /// Read the entire log contents.
    fn read(&self) -> io::Result<Vec<u8>>;
    /// Atomically replace the entire log with `bytes` (compaction).
    fn replace(&self, bytes: &[u8]) -> io::Result<()>;
}

/// File-backed [`Storage`]: an append-mode file plus atomic
/// tmp-write → fsync → rename replacement for compaction.
#[derive(Debug)]
pub struct FileStorage {
    path: PathBuf,
    /// The lock orders appends (and the swap in `replace`); `sync`
    /// takes it only to clone the handle, so an append never waits for
    /// an fsync in flight.
    file: Mutex<Arc<File>>,
}

impl FileStorage {
    /// Open (or create) the log file at `path`. A file this call
    /// created is not durable until its directory entry is: the parent
    /// directory is synced before returning, or a crash after the first
    /// acknowledged charge could lose the whole log.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<FileStorage> {
        let path = path.into();
        let mut options = OpenOptions::new();
        options.append(true);
        let file = match options.clone().create_new(true).open(&path) {
            Ok(file) => {
                Self::sync_parent_dir(&path);
                file
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => options.open(&path)?,
            Err(e) => return Err(e),
        };
        Ok(FileStorage {
            path,
            file: Mutex::new(Arc::new(file)),
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Best-effort fsync of the directory holding `path`, so a file
    /// created in it or renamed into it is itself durable. Ignored on platforms where opening a
    /// directory for sync is not supported.
    fn sync_parent_dir(path: &Path) {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
}

impl Storage for FileStorage {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let file = lock(&self.file);
        (&**file).write_all(bytes)
    }

    fn sync(&self) -> io::Result<()> {
        let file = Arc::clone(&lock(&self.file));
        file.sync_all()
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        std::fs::read(&self.path)
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        // Hold the file lock across the swap so no append can land on
        // the about-to-be-replaced inode.
        let mut guard = lock(&self.file);
        let tmp = self.path.with_extension("wal-tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        Self::sync_parent_dir(&self.path);
        *guard = Arc::new(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }
}

/// One logged ledger mutation. Every float crosses the log as raw bits;
/// see the module docs for the record framing around the payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// An admission: written *before* the in-memory charge commits, and
    /// durable before the answer it paid for is released.
    Charge {
        /// Charged analyst.
        analyst: String,
        /// Globally unique charge id.
        id: u64,
        /// Admitted ε (the pinned value in strong mode).
        epsilon: f64,
        /// Admitted δ (the pinned value in strong mode).
        delta: f64,
    },
    /// A refund of a still-outstanding charge.
    Refund {
        /// Refunded analyst.
        analyst: String,
        /// The refunded charge's id.
        id: u64,
        /// The charge's ε.
        epsilon: f64,
        /// The charge's δ.
        delta: f64,
    },
    /// A per-analyst policy override (account reset to the new policy).
    SetPolicy {
        /// The analyst whose policy changed.
        analyst: String,
        /// The new policy.
        policy: LedgerPolicy,
    },
    /// Complete ledger state; replay resets to exactly this state.
    /// Compaction rewrites the log to a single snapshot record.
    Snapshot(LedgerSnapshot),
}

/// A full, deterministic picture of ledger state: accounts sorted by
/// analyst, outstanding charge ids sorted. Two ledgers are bitwise
/// identical exactly when their snapshots encode to the same bytes
/// ([`WalOp::encode`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerSnapshot {
    /// The ledger's next unallocated charge id.
    pub next_charge_id: u64,
    /// Every account, sorted by analyst name.
    pub accounts: Vec<AccountSnapshot>,
}

/// One analyst's account state inside a [`LedgerSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct AccountSnapshot {
    /// The analyst name.
    pub analyst: String,
    /// The account's policy (caps + composition strategy).
    pub policy: LedgerPolicy,
    /// Sequential-mode spent `(ε, δ)` accumulator (strong mode leaves
    /// it zero and composes from `pinned` × `queries`).
    pub spent: (f64, f64),
    /// Admitted (non-refunded) query count.
    pub queries: u32,
    /// Strong-mode pinned `(ε, δ)`, if any.
    pub pinned: Option<(f64, f64)>,
    /// Outstanding (refundable) charge ids, sorted.
    pub outstanding: Vec<u64>,
}

/// What recovery found when replaying a log at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Intact records replayed (snapshot records and skipped retired
    /// settle records included).
    pub replayed_records: u64,
    /// Whether a snapshot record was restored.
    pub snapshot_restored: bool,
    /// Bytes discarded at the tail (torn/corrupt suffix). Nonzero after
    /// a crash mid-append; the discarded record was never acknowledged.
    pub torn_bytes_discarded: u64,
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — pure std.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the checksum guarding every record).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Payload codec.
// ---------------------------------------------------------------------

const TAG_CHARGE: u8 = 1;
const TAG_REFUND: u8 = 2;
/// A settled charge (analyst, id), written by earlier versions on every
/// release. It changed only the refundable set, which a restart clears,
/// so it is no longer written; a log that holds one still replays in
/// full. Never reuse the tag: an unknown tag ends replay as a torn tail.
const TAG_RETIRED_SETTLE: u8 = 3;
const TAG_SET_POLICY: u8 = 4;
const TAG_SNAPSHOT: u8 = 5;

const COMPOSITION_SEQUENTIAL: u8 = 0;
const COMPOSITION_STRONG: u8 = 1;

/// Records larger than this are rejected as corrupt during decode: the
/// largest legitimate record is a snapshot, and even a million-analyst
/// snapshot stays far below this bound per compaction shard of state.
const MAX_RECORD_LEN: u32 = 1 << 30;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_policy(out: &mut Vec<u8>, p: &LedgerPolicy) {
    put_f64(out, p.epsilon_cap);
    put_f64(out, p.delta_cap);
    match p.composition {
        Composition::Sequential => {
            out.push(COMPOSITION_SEQUENTIAL);
            put_f64(out, 0.0);
        }
        Composition::Strong { delta_slack } => {
            out.push(COMPOSITION_STRONG);
            put_f64(out, delta_slack);
        }
    }
}

/// A byte cursor over a record payload; every getter fails (instead of
/// panicking) on truncation, so corrupt payloads decode to `None`.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn policy(&mut self) -> Option<LedgerPolicy> {
        let epsilon_cap = self.f64()?;
        let delta_cap = self.f64()?;
        let tag = self.u8()?;
        let slack = self.f64()?;
        let composition = match tag {
            COMPOSITION_SEQUENTIAL => Composition::Sequential,
            COMPOSITION_STRONG => Composition::Strong { delta_slack: slack },
            _ => return None,
        };
        Some(LedgerPolicy {
            epsilon_cap,
            delta_cap,
            composition,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl WalOp {
    /// Encode this op as one framed record:
    /// `[len u32 LE][crc32 u32 LE][payload]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            WalOp::Charge {
                analyst,
                id,
                epsilon,
                delta,
            } => {
                payload.push(TAG_CHARGE);
                put_str(&mut payload, analyst);
                put_u64(&mut payload, *id);
                put_f64(&mut payload, *epsilon);
                put_f64(&mut payload, *delta);
            }
            WalOp::Refund {
                analyst,
                id,
                epsilon,
                delta,
            } => {
                payload.push(TAG_REFUND);
                put_str(&mut payload, analyst);
                put_u64(&mut payload, *id);
                put_f64(&mut payload, *epsilon);
                put_f64(&mut payload, *delta);
            }
            WalOp::SetPolicy { analyst, policy } => {
                payload.push(TAG_SET_POLICY);
                put_str(&mut payload, analyst);
                put_policy(&mut payload, policy);
            }
            WalOp::Snapshot(snap) => {
                payload.push(TAG_SNAPSHOT);
                put_u64(&mut payload, snap.next_charge_id);
                put_u32(&mut payload, snap.accounts.len() as u32);
                for a in &snap.accounts {
                    put_str(&mut payload, &a.analyst);
                    put_policy(&mut payload, &a.policy);
                    put_f64(&mut payload, a.spent.0);
                    put_f64(&mut payload, a.spent.1);
                    put_u32(&mut payload, a.queries);
                    match a.pinned {
                        Some((e, d)) => {
                            payload.push(1);
                            put_f64(&mut payload, e);
                            put_f64(&mut payload, d);
                        }
                        None => payload.push(0),
                    }
                    put_u32(&mut payload, a.outstanding.len() as u32);
                    for id in &a.outstanding {
                        put_u64(&mut payload, *id);
                    }
                }
            }
        }
        let mut record = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut record, payload.len() as u32);
        put_u32(&mut record, crc32(&payload));
        record.extend_from_slice(&payload);
        record
    }

    /// `Some(None)` is a well-formed retired record, which replay skips.
    fn decode_payload(payload: &[u8]) -> Option<Option<WalOp>> {
        let mut c = Cursor::new(payload);
        let op = match c.u8()? {
            TAG_CHARGE => Some(WalOp::Charge {
                analyst: c.str()?,
                id: c.u64()?,
                epsilon: c.f64()?,
                delta: c.f64()?,
            }),
            TAG_REFUND => Some(WalOp::Refund {
                analyst: c.str()?,
                id: c.u64()?,
                epsilon: c.f64()?,
                delta: c.f64()?,
            }),
            TAG_RETIRED_SETTLE => {
                let (_analyst, _id) = (c.str()?, c.u64()?);
                None
            }
            TAG_SET_POLICY => Some(WalOp::SetPolicy {
                analyst: c.str()?,
                policy: c.policy()?,
            }),
            TAG_SNAPSHOT => {
                let next_charge_id = c.u64()?;
                let n = c.u32()? as usize;
                let mut accounts = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let analyst = c.str()?;
                    let policy = c.policy()?;
                    let spent = (c.f64()?, c.f64()?);
                    let queries = c.u32()?;
                    let pinned = match c.u8()? {
                        0 => None,
                        1 => Some((c.f64()?, c.f64()?)),
                        _ => return None,
                    };
                    let k = c.u32()? as usize;
                    let mut outstanding = Vec::with_capacity(k.min(1 << 20));
                    for _ in 0..k {
                        outstanding.push(c.u64()?);
                    }
                    accounts.push(AccountSnapshot {
                        analyst,
                        policy,
                        spent,
                        queries,
                        pinned,
                        outstanding,
                    });
                }
                Some(WalOp::Snapshot(LedgerSnapshot {
                    next_charge_id,
                    accounts,
                }))
            }
            _ => return None,
        };
        // Trailing garbage inside a checksummed payload means the
        // writer and reader disagree about the format: reject.
        c.done().then_some(op)
    }

    /// Decode one framed record from the front of `bytes`. Returns the
    /// op — `None` for a retired settle record (tag 3), which replay
    /// skips — and the bytes consumed; or `None` if the prefix is
    /// truncated, fails its checksum, or decodes to no valid record —
    /// recovery treats all three identically (torn tail: discard from
    /// here on).
    pub fn decode(bytes: &[u8]) -> Option<(Option<WalOp>, usize)> {
        if bytes.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return None;
        }
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let end = 8usize.checked_add(len as usize)?;
        if bytes.len() < end {
            return None;
        }
        let payload = &bytes[8..end];
        if crc32(payload) != crc {
            return None;
        }
        Some((Self::decode_payload(payload)?, end))
    }
}

// ---------------------------------------------------------------------
// The log itself.
// ---------------------------------------------------------------------

/// A record's position in the log's write order: the first record
/// written through a [`Wal`] is 1, and 0 stands for "nothing" (an LSN
/// that is durable by definition — what a ledger without a log hands
/// out). LSNs count writes, not bytes, and keep counting across
/// compactions.
pub type Lsn = u64;

/// The write-ahead log: a [`Storage`] backend and lock-free wear
/// counters for telemetry.
#[derive(Debug)]
pub struct Wal {
    storage: Box<dyn Storage>,
    /// Records between snapshot compactions (0 disables compaction).
    snapshot_threshold: u64,
    /// Serializes writes, so records land in storage in LSN order.
    writer: Mutex<()>,
    /// Serializes syncs: its holder is the group-commit leader. Never
    /// taken by a writer, so a write proceeds while an fsync is in
    /// flight; `rewrite` takes `writer` then `syncer`, nothing takes
    /// them the other way round.
    syncer: Mutex<()>,
    /// LSN of the last record written. Stored (Release) under `writer`
    /// once the record's bytes are in storage; a sync leader's Acquire
    /// load therefore names only records its fsync will cover.
    written: AtomicU64,
    /// Every record at or below this LSN is on stable storage. Stored
    /// (Release) under `syncer`; `commit` reads it (Acquire) without a
    /// lock first.
    durable: AtomicU64,
    records_since_snapshot: AtomicU64,
    /// Set on the first write/sync error; all later writes and syncs
    /// fail fast (see the module docs on failing closed).
    poisoned: AtomicBool,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    errors: AtomicU64,
}

impl Wal {
    /// A log over `storage`, compacting every `snapshot_threshold`
    /// records (0 = never compact). `FsyncPolicy::Always` is the only
    /// policy there is.
    pub fn new(storage: Box<dyn Storage>, _fsync: FsyncPolicy, snapshot_threshold: u64) -> Wal {
        Wal {
            storage,
            snapshot_threshold,
            writer: Mutex::new(()),
            syncer: Mutex::new(()),
            written: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            records_since_snapshot: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    fn fail<T>(&self, e: io::Error) -> io::Result<T> {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.poisoned.store(true, Ordering::Relaxed);
        Err(e)
    }

    fn check_poison(&self) -> io::Result<()> {
        if self.poisoned.load(Ordering::Relaxed) {
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(
                "wal poisoned by an earlier write error; restart to recover",
            ));
        }
        Ok(())
    }

    /// Write one record and return its LSN. Nothing is synced: the
    /// record is durable only once [`Wal::commit`] (or a later record's
    /// commit) has covered its LSN. On `Err` the log is poisoned and
    /// every later write fails too. The caller decides direction — the
    /// ledger rejects the admission (fail closed) but still applies
    /// refunds in memory.
    pub fn write(&self, op: &WalOp) -> io::Result<Lsn> {
        let record = op.encode();
        let _w = lock(&self.writer);
        self.check_poison()?;
        if let Err(e) = self.storage.append(&record) {
            return self.fail(e);
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.records_since_snapshot.fetch_add(1, Ordering::Relaxed);
        let lsn = self.written.load(Ordering::Relaxed) + 1;
        self.written.store(lsn, Ordering::Release);
        Ok(lsn)
    }

    /// Make the records up to `lsn` durable and return once they are:
    /// at once if they already are, else as the leader of one fsync for
    /// every record written before it starts — or behind another leader
    /// whose fsync turns out to have covered them. Call it outside every
    /// lock. An `lsn` already covered costs one atomic load. On `Err`
    /// the log is poisoned and nothing at or past the first uncovered
    /// LSN may be assumed durable.
    pub fn commit(&self, lsn: Lsn) -> io::Result<()> {
        let covered = || self.durable.load(Ordering::Acquire) >= lsn;
        if covered() {
            return Ok(());
        }
        let _s = lock(&self.syncer);
        if covered() {
            return Ok(());
        }
        self.check_poison()?;
        let target = self.written.load(Ordering::Acquire);
        if let Err(e) = self.storage.sync() {
            return self.fail(e);
        }
        self.durable.store(target, Ordering::Release);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Sync everything written so far (a clean stop's flush: a writer
    /// that did not reach its own commit leaves nothing in the page
    /// cache).
    pub fn sync(&self) -> io::Result<()> {
        self.commit(self.written.load(Ordering::Acquire))
    }

    /// [`Wal::write`] then [`Wal::commit`] of the record just written:
    /// the one-call form for a caller that holds no lock.
    pub fn append(&self, op: &WalOp) -> io::Result<()> {
        self.commit(self.write(op)?)
    }

    /// Read and decode every intact record, in order, and report what
    /// replaying them finds: every intact record counts as replayed (a
    /// retired settle record too, though it yields no op), and the
    /// torn/corrupt tail is measured in bytes (0 for a clean log).
    pub fn read_ops(&self) -> io::Result<(Vec<WalOp>, RecoveryReport)> {
        let bytes = self.storage.read()?;
        let mut ops = Vec::new();
        let mut report = RecoveryReport::default();
        let mut pos = 0usize;
        while let Some((op, used)) = WalOp::decode(&bytes[pos..]) {
            report.replayed_records += 1;
            report.snapshot_restored |= matches!(op, Some(WalOp::Snapshot(_)));
            ops.extend(op);
            pos += used;
        }
        report.torn_bytes_discarded = (bytes.len() - pos) as u64;
        Ok((ops, report))
    }

    /// Has the record count since the last compaction crossed the
    /// threshold? (Cheap: one relaxed load.)
    pub fn wants_snapshot(&self) -> bool {
        self.snapshot_threshold > 0
            && self.records_since_snapshot.load(Ordering::Relaxed) >= self.snapshot_threshold
    }

    /// Compact: atomically replace the whole log with one snapshot
    /// record. The caller must guarantee `snap` is consistent with
    /// every record already appended (the ledger holds all its shard
    /// locks while building it).
    pub fn rewrite(&self, snap: &LedgerSnapshot) -> io::Result<()> {
        let record = WalOp::Snapshot(snap.clone()).encode();
        let _w = lock(&self.writer);
        let _s = lock(&self.syncer);
        if let Err(e) = self.storage.replace(&record) {
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // A fresh, fully-synced log: clear any poisoning — the torn
        // bytes a failed append may have left are gone with the old log
        // — and everything written so far is durable inside the snapshot.
        self.poisoned.store(false, Ordering::Relaxed);
        self.records_since_snapshot.store(0, Ordering::Relaxed);
        self.durable
            .store(self.written.load(Ordering::Relaxed), Ordering::Release);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Records written so far (snapshot rewrites excluded).
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Fsyncs issued so far (compaction rewrites included).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Append/sync/replace errors observed so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultStorage;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Charge {
                analyst: "alice".into(),
                id: 0,
                epsilon: 0.1,
                delta: 1e-9,
            },
            WalOp::SetPolicy {
                analyst: "bob".into(),
                policy: LedgerPolicy::strong(2.0, 1e-4, 1e-6),
            },
            WalOp::Refund {
                analyst: "alice".into(),
                id: 0,
                epsilon: 0.1,
                delta: 1e-9,
            },
            WalOp::Snapshot(LedgerSnapshot {
                next_charge_id: 42,
                accounts: vec![AccountSnapshot {
                    analyst: "carol".into(),
                    policy: LedgerPolicy::sequential(1.0, 1e-6),
                    spent: (0.25, 1e-9),
                    queries: 3,
                    pinned: Some((0.01, 1e-9)),
                    outstanding: vec![3, 9, 11],
                }],
            }),
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn ops_roundtrip_through_the_codec() {
        for op in sample_ops() {
            let rec = op.encode();
            let (back, used) = WalOp::decode(&rec).expect("decodes");
            assert_eq!(back, Some(op));
            assert_eq!(used, rec.len());
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The log's byte format, one record of each kind: a change to any
    /// of them is a format change that older logs must still replay
    /// through, so it shows here as a diff rather than as a torn tail.
    #[test]
    fn record_bytes_are_pinned() {
        let pinned = [
            (
                WalOp::Charge {
                    analyst: "a".into(),
                    id: 1,
                    epsilon: 0.5,
                    delta: 1e-9,
                },
                "1e0000006812eca70101000000610100000000000000000000000000e03f95d626e80b2e113e",
            ),
            (
                WalOp::Refund {
                    analyst: "a".into(),
                    id: 1,
                    epsilon: 0.5,
                    delta: 1e-9,
                },
                "1e00000070374de30201000000610100000000000000000000000000e03f95d626e80b2e113e",
            ),
            (
                WalOp::SetPolicy {
                    analyst: "b".into(),
                    policy: LedgerPolicy::strong(2.0, 1e-4, 1e-6),
                },
                "1f000000200bc13c04010000006200000000000000402d431cebe2361a3f018dedb5a0f7c6b03e",
            ),
            (
                WalOp::Snapshot(LedgerSnapshot {
                    next_charge_id: 2,
                    accounts: vec![AccountSnapshot {
                        analyst: "c".into(),
                        policy: LedgerPolicy::sequential(1.0, 1e-6),
                        spent: (0.25, 1e-9),
                        queries: 3,
                        pinned: Some((0.01, 1e-9)),
                        outstanding: vec![1],
                    }],
                }),
                concat!(
                    "5c0000001c158568050200000000000000010000000100000063000000000000f03f",
                    "8dedb5a0f7c6b03e000000000000000000000000000000d03f95d626e80b2e113e",
                    "03000000017b14ae47e17a843f95d626e80b2e113e010000000100000000000000",
                ),
            ),
        ];
        for (op, bytes) in pinned {
            assert_eq!(hex(&op.encode()), bytes, "{op:?}");
        }
        // A settle record (tag 3, analyst "a", charge 1) as earlier
        // versions framed it: it decodes, whole, to no op.
        let settle = "0e000000e010fef70301000000610100000000000000";
        let record: Vec<u8> = (0..settle.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&settle[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(WalOp::decode(&record), Some((None, record.len())));
    }

    #[test]
    fn log_roundtrips_through_storage() {
        let storage = FaultStorage::new();
        let wal = Wal::new(Box::new(storage), FsyncPolicy::Always, 0);
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        let (ops, report) = wal.read_ops().unwrap();
        assert_eq!(ops, sample_ops());
        assert_eq!(report.torn_bytes_discarded, 0);
        assert_eq!(wal.appends(), 4);
        assert_eq!(wal.fsyncs(), 4);
        assert_eq!(wal.errors(), 0);
    }

    #[test]
    fn every_truncation_point_keeps_only_whole_records() {
        let storage = FaultStorage::new();
        let wal = Wal::new(Box::new(storage.clone()), FsyncPolicy::Always, 0);
        let ops = sample_ops();
        let mut ends = Vec::new();
        for op in &ops {
            wal.append(op).unwrap();
            ends.push(storage.durable_len());
        }
        let total = storage.durable_len();
        for cut in 0..=total {
            let trimmed = FaultStorage::with_bytes(&storage.durable_bytes()[..cut]);
            let wal2 = Wal::new(Box::new(trimmed), FsyncPolicy::Always, 0);
            let (got, report) = wal2.read_ops().unwrap();
            let expect = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(got.len(), expect, "cut at byte {cut}");
            assert_eq!(got[..], ops[..expect]);
            let last_end = ends[..expect].last().copied().unwrap_or(0);
            assert_eq!(
                report.torn_bytes_discarded,
                (cut - last_end) as u64,
                "torn bytes at cut {cut}"
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let storage = FaultStorage::new();
        let wal = Wal::new(Box::new(storage.clone()), FsyncPolicy::Always, 0);
        wal.append(&sample_ops()[0]).unwrap();
        let clean = storage.durable_bytes();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let flipped = FaultStorage::with_bytes(&clean);
                flipped.flip_bit(byte, bit);
                let wal2 = Wal::new(Box::new(flipped), FsyncPolicy::Always, 0);
                let (ops, _) = wal2.read_ops().unwrap();
                // A flip in the length prefix can only shrink/grow the
                // frame into a checksum mismatch or truncation; a flip
                // in the checksum or payload is a CRC mismatch. Either
                // way the record must be rejected, never reinterpreted.
                assert!(
                    ops.is_empty(),
                    "bit flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_append_syncs_once() {
        let storage = FaultStorage::new();
        let wal = Wal::new(Box::new(storage), FsyncPolicy::Always, 0);
        for _ in 0..6 {
            wal.append(&sample_ops()[0]).unwrap();
        }
        assert_eq!(wal.fsyncs(), 6);
    }

    /// `write` never syncs; `commit` syncs once for everything written
    /// and is free for an LSN an earlier sync covered.
    #[test]
    fn write_is_not_durable_until_a_commit_covers_it() {
        let storage = FaultStorage::new();
        let wal = Wal::new(Box::new(storage.clone()), FsyncPolicy::Always, 0);
        let ops = sample_ops();
        let lsns: Vec<Lsn> = ops.iter().map(|op| wal.write(op).unwrap()).collect();
        assert_eq!(lsns, [1, 2, 3, 4]);
        assert_eq!((wal.fsyncs(), storage.durable_len()), (0, 0));
        // Committing the third record makes the whole file durable — an
        // fsync has no narrower unit — so the later LSNs are free too.
        wal.commit(3).unwrap();
        assert_eq!(storage.durable_len(), storage.total_len());
        for lsn in lsns {
            wal.commit(lsn).unwrap();
        }
        assert_eq!(wal.fsyncs(), 1);
        // `sync` with nothing unsynced touches no disk either.
        wal.sync().unwrap();
        assert_eq!((wal.fsyncs(), storage.syncs()), (1, 1));
    }

    /// (d) A write runs to completion while a sync is in flight, and the
    /// sync's leader claims durable only what it was started for.
    #[test]
    fn a_write_proceeds_while_a_sync_is_in_flight() {
        let storage = FaultStorage::new();
        let wal = &Wal::new(Box::new(storage.clone()), FsyncPolicy::Always, 0);
        let ops = &sample_ops();
        storage.pause_syncs();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| wal.append(&ops[0]));
            while storage.syncs_held() == 0 {
                std::thread::yield_now();
            }
            // On its own thread, so a writer lock held across the sync
            // shows as a timeout here rather than a hung test.
            let (tx, rx) = std::sync::mpsc::channel();
            let second = scope.spawn(move || tx.send(wal.write(&ops[1])));
            let lsn = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("the write must not wait for the sync in flight");
            assert_eq!(lsn.unwrap(), 2);
            assert_eq!(storage.durable_len(), 0, "the sync is still held");
            storage.resume_syncs();
            first.join().unwrap().unwrap();
            second.join().unwrap().unwrap();
        });
        // The held sync began before record 2 was written: only record 1
        // is durable, and committing record 2 takes a second fsync.
        let one = ops[0].encode().len();
        assert_eq!((wal.fsyncs(), storage.durable_len()), (1, one));
        wal.commit(2).unwrap();
        assert_eq!(wal.fsyncs(), 2);
        assert_eq!(storage.durable_len(), storage.total_len());
    }

    /// Group commit: everyone who wrote while one fsync was in flight
    /// is covered by the next one — two fsyncs for eight committers (a
    /// third if the release catches the last writer between its append
    /// and the publication of its LSN).
    #[test]
    fn committers_behind_a_sync_in_flight_share_the_next_one() {
        const N: u64 = 8;
        let storage = FaultStorage::new();
        let wal = Wal::new(Box::new(storage.clone()), FsyncPolicy::Always, 0);
        let op = &sample_ops()[0];
        storage.pause_syncs();
        std::thread::scope(|scope| {
            for _ in 0..N {
                scope.spawn(|| wal.append(op).unwrap());
            }
            // One committer leads a (held) fsync; the others have
            // written and queue behind it.
            while storage.appends() < N || storage.syncs_held() == 0 {
                std::thread::yield_now();
            }
            storage.resume_syncs();
        });
        assert_eq!(wal.appends(), N);
        assert!(wal.fsyncs() <= 3, "{} fsyncs for {N} records", wal.fsyncs());
        assert_eq!(storage.durable_len(), storage.total_len());
    }

    /// A failed fsync poisons the log: the record it was for, the
    /// records behind it and every later write fail closed, and no
    /// second fsync is attempted (the OS may report it clean without
    /// having written anything) — until compaction rewrites the log.
    #[test]
    fn sync_error_poisons_commits_and_writes_until_compaction() {
        let storage = FaultStorage::new();
        let wal = Wal::new(Box::new(storage.clone()), FsyncPolicy::Always, 0);
        let op = &sample_ops()[0];
        wal.append(op).unwrap();
        let (a, b) = (wal.write(op).unwrap(), wal.write(op).unwrap());
        storage.fail_syncs_after(storage.syncs());
        assert!(wal.commit(a).is_err());
        storage.clear_faults();
        assert!(wal.commit(a).is_err() && wal.commit(b).is_err());
        assert!(wal.write(op).is_err());
        assert_eq!(storage.syncs(), 2, "no fsync after the failed one");
        // What was durable stays committed, for free.
        wal.commit(1).unwrap();
        // The snapshot the caller hands `rewrite` holds everything
        // written so far, so every written LSN is durable after it.
        wal.rewrite(&LedgerSnapshot::default()).unwrap();
        wal.commit(b).unwrap();
        wal.append(op).unwrap();
    }

    #[test]
    fn append_error_poisons_the_log_until_compaction() {
        let storage = FaultStorage::new();
        storage.fail_appends_after(1);
        let wal = Wal::new(Box::new(storage.clone()), FsyncPolicy::Always, 0);
        wal.append(&sample_ops()[0]).unwrap();
        assert!(wal.append(&sample_ops()[0]).is_err());
        // Even with the fault cleared, the log stays poisoned: the
        // failed append may have torn the tail.
        storage.clear_faults();
        assert!(wal.append(&sample_ops()[0]).is_err());
        assert!(wal.errors() >= 2);
        // Compaction rewrites the log wholesale and clears the poison.
        wal.rewrite(&LedgerSnapshot::default()).unwrap();
        wal.append(&sample_ops()[0]).unwrap();
        let (ops, report) = wal.read_ops().unwrap();
        assert_eq!(report.torn_bytes_discarded, 0);
        assert_eq!(ops.len(), 2); // snapshot + fresh charge
    }

    #[test]
    fn short_write_leaves_recoverable_prefix() {
        let storage = FaultStorage::new();
        let wal = Wal::new(Box::new(storage.clone()), FsyncPolicy::Always, 0);
        wal.append(&sample_ops()[0]).unwrap();
        storage.short_write_next(3);
        assert!(wal.append(&sample_ops()[1]).is_err());
        // The torn bytes are visible in storage, but recovery stops
        // cleanly after the first intact record.
        let (ops, report) = wal.read_ops().unwrap();
        assert_eq!(ops, sample_ops()[..1]);
        assert_eq!(report.torn_bytes_discarded, 3);
    }

    #[test]
    fn file_storage_roundtrips_and_compacts() {
        let dir = std::env::temp_dir().join(format!("flex-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::new(
                Box::new(FileStorage::open(&path).unwrap()),
                FsyncPolicy::Always,
                0,
            );
            for op in sample_ops() {
                wal.append(&op).unwrap();
            }
        }
        // Reopen: all records survive the handle being dropped.
        let wal = Wal::new(
            Box::new(FileStorage::open(&path).unwrap()),
            FsyncPolicy::Always,
            0,
        );
        let (ops, report) = wal.read_ops().unwrap();
        assert_eq!(ops, sample_ops());
        assert_eq!(report.torn_bytes_discarded, 0);
        // Compaction replaces the file and appends keep working.
        wal.rewrite(&LedgerSnapshot::default()).unwrap();
        wal.append(&sample_ops()[0]).unwrap();
        let (ops, _) = wal.read_ops().unwrap();
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], WalOp::Snapshot(_)));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
