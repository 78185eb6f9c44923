//! The query service: the front door of the FLEX system.
//!
//! [`QueryService`] accepts SQL from named analysts and drives the full
//! parse → canonicalize → admission → analyze → execute → smooth → noise
//! pipeline, on the thread that waits for the answer or, for a backlog,
//! on a pool of worker threads. On a ledger with a WAL, one log flusher
//! thread syncs each admitted charge while its query runs, so a release
//! waits for the disk only if the fsync outlasts the query.
//! Three components make it a subsystem rather than a wrapper:
//!
//! 1. the per-analyst [`BudgetLedger`] — a request
//!    that would overspend is rejected *before* any computation;
//! 2. the [`AnswerCache`] keyed on canonical ASTs — a
//!    repeated query returns the *same* released answer at zero marginal
//!    budget, and a repeated *text* whose answer it served is looked up
//!    in a text memo beside it instead of being parsed again;
//! 3. [`Telemetry`] — hit/miss/reject counters, queue
//!    depth and per-stage timings, snapshotable for ops.
//!
//! The service is the one way to spend ε: the ledger charges before a
//! query runs, the charge is durable before its answer is released, and
//! nothing else in the workspace keeps an account. A [`ServiceResponse`]
//! is the release and nothing more — noised rows plus what the analyst
//! already knows or paid for. True values, row counts and timings stay
//! with the operator, in [`QueryService::telemetry`] and
//! [`QueryService::metrics`].

use crate::cache::{
    Admission, AnswerCache, CacheKey, CachedAnswer, Columns, Memoized, Reply, Rows, Text, TextMemo,
    DEFAULT_CACHE_SHARDS,
};
use crate::error::{ServiceError, ServiceResult};
use crate::export::MetricsReport;
use crate::ledger::{BudgetLedger, Charge, LedgerPolicy, DEFAULT_LEDGER_SHARDS};
use crate::prf;
use crate::queue::{PushError, Slot, WorkQueue};
use crate::sync;
use crate::telemetry::{Metric, QueryTrace, SlowQuery, Telemetry, TelemetrySnapshot};
use crate::wal::{FileStorage, FsyncPolicy, Lsn, RecoveryReport, Storage, Wal};
use flex_core::{run_query_deadline, Composition, FlexOptions, PrivacyParams};
use flex_db::{Column, ColumnData, Database, Value};
use flex_sql::{canonical_form, parse_query_nesting, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The most pipelines executing at once, on any thread, and the size
    /// of the worker pool. An admitted query runs on the thread that
    /// waits for it ([`Ticket::wait`]) when one of these slots is free;
    /// a worker runs it when that thread is busy elsewhere (a burst
    /// submitted before any wait, a dropped ticket, a request coalesced
    /// onto a job its submitter has not waited for), when no slot is, or
    /// when the query nests too deep for a caller's stack
    /// ([`CALLER_NESTING_DEPTH`]). A WAL's fsync runs on the service's
    /// log flusher, not on a worker. Clamped to at least 1.
    pub workers: usize,
    /// Intra-query worker threads of the vectorized execution engine
    /// (morsel-driven parallel scans, joins and aggregations). Clamped to
    /// at least 1; 1 (the default) keeps execution single-threaded per
    /// query, which is usually right when `workers` already runs several
    /// queries concurrently — raise it for latency-sensitive deployments
    /// with idle cores. Wired to the shared [`Database`] at construction
    /// and observed through `Database::execute_traced`; results (and
    /// therefore DP noise seeds) are byte-identical at every setting.
    pub parallelism: usize,
    /// Default per-analyst `(ε, δ)` caps and composition strategy.
    pub policy: LedgerPolicy,
    /// Maximum cached answers; 0 disables the cache entirely (identical
    /// in-flight queries still coalesce onto one computation). It also
    /// bounds the text memo, which lets a repeated SQL text whose answer
    /// is cached skip the parse: each thread's stripe keeps at most
    /// [`MEMO_TEXTS_PER_ANSWER`](crate::cache::MEMO_TEXTS_PER_ANSWER)
    /// texts per answer, none longer than
    /// [`MEMO_MAX_TEXT_BYTES`](crate::cache::MEMO_MAX_TEXT_BYTES); 0
    /// disables the memo too.
    pub cache_capacity: usize,
    /// Memory bound for the noisy-answer cache, in bytes (key text plus
    /// serialized-result size per entry); 0 means no byte bound. Split
    /// evenly across the cache shards; past either bound each shard
    /// evicts by CLOCK (an answer hit since the sweep last passed it gets
    /// a second chance). Evicted answers recompute to the same
    /// bytes — noise seeds do not depend on cache state.
    pub cache_max_bytes: usize,
    /// Lock stripes for the noisy-answer cache (clamped to ≥ 1). Pure
    /// contention tuning: placement is by cache-key hash and never feeds
    /// noise seeds, so answers are byte-identical at every setting. The
    /// text memo is not striped by it: it has one stripe per request
    /// thread.
    pub cache_shards: usize,
    /// Lock stripes for the budget ledger's analyst accounts (clamped to
    /// ≥ 1). Pure contention tuning, like [`ServiceConfig::cache_shards`]:
    /// observable ledger state is identical at every setting.
    pub ledger_shards: usize,
    /// Optional secret base seed for noise generation.
    ///
    /// `None` (the default) draws a fresh random secret from the OS for
    /// each service instance — the safe choice, since DP noise that an
    /// adversary can recompute is no noise at all.
    ///
    /// `Some(seed)` makes noise a deterministic function of
    /// `(seed, canonical query, ε, δ, dataset fingerprint)`, so a service
    /// restarted with the same seed over the *same data* re-releases
    /// identical answers instead of burning fresh budget on a cold cache;
    /// any change to the database contents re-keys the noise. **The seed
    /// is then the privacy guarantee:** it must be generated per
    /// deployment, kept secret, and never committed to source or config
    /// files an analyst could read — anyone who knows it can strip the
    /// noise from every release.
    pub seed: Option<u64>,
    /// Path of the budget write-ahead log. `None` (the default) keeps
    /// the ledger in memory only; `Some(path)` makes every admission
    /// durable — a charge is logged *before* the query is admitted and
    /// on disk *before* its answer is released, and a restart over the
    /// same path replays the log into bitwise-identical ledger state. A WAL failure rejects the query
    /// fail-closed rather than admitting it uncharged or releasing an
    /// answer whose charge is not on disk. Durability knobs never feed
    /// noise seeds: released bytes are identical with or without a WAL.
    pub wal_path: Option<PathBuf>,
    /// When the WAL syncs to durable storage. [`FsyncPolicy::Always`]
    /// is the only policy: the charge behind every released answer
    /// survives a crash. Ignored without [`ServiceConfig::wal_path`].
    pub wal_fsync: FsyncPolicy,
    /// Compact the WAL into a snapshot record once this many records
    /// accumulate since the last snapshot (0 disables compaction).
    /// Ignored without [`ServiceConfig::wal_path`].
    pub wal_snapshot_threshold: u64,
    /// Per-query deadline, measured from submission — less the time a
    /// job sat queued before its own submitter took it back to run it,
    /// which is the caller's delay in calling [`Ticket::wait`], not the
    /// service's. A job past its
    /// deadline is abandoned at the next pipeline-stage boundary (never
    /// after its answer is released), its charge refunded, and the
    /// caller gets [`ServiceError::Timeout`]. `None` (default) disables
    /// deadlines. The check never touches the noise RNG — a query that
    /// completes in time releases identical bytes at every setting.
    pub query_timeout: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            parallelism: 1,
            policy: LedgerPolicy {
                epsilon_cap: 10.0,
                delta_cap: 1e-4,
                composition: Composition::Sequential,
            },
            cache_capacity: 1024,
            cache_max_bytes: 64 << 20,
            cache_shards: DEFAULT_CACHE_SHARDS,
            ledger_shards: DEFAULT_LEDGER_SHARDS,
            seed: None,
            wal_path: None,
            wal_fsync: FsyncPolicy::Always,
            wal_snapshot_threshold: 4096,
            query_timeout: None,
        }
    }
}

/// A differentially-private answer released to an analyst.
///
/// The canonical text, columns and rows are shared, not copied: every
/// response for one release — the request that computed it, each
/// coalesced waiter and each cache hit — reads the cache's one
/// allocation of them through one reply handle, so a response costs the
/// same whatever the answer's size. They read as `&str`, `&[String]` and
/// `&[Vec<Value>]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// The analyst the answer was released to.
    pub analyst: String,
    /// Canonical SQL the answer was computed for (also the cache key).
    pub canonical_sql: Text,
    /// Output column names.
    pub columns: Columns,
    /// Noised rows (label cells pass through, aggregates carry noise).
    pub rows: Rows,
    /// Whether this answer was served from the noisy-answer cache. A
    /// request coalesced onto an identical in-flight computation reports
    /// `false` here (the answer was freshly computed, just not charged to
    /// this request) — check `charged == (0.0, 0.0)` for "free".
    pub from_cache: bool,
    /// `(ε, δ)` charged to the analyst for this answer; `(0, 0)` on a
    /// cache hit or a coalesced request.
    pub charged: (f64, f64),
    /// Number of joins in the query — a fact of the query text, not of
    /// the data (it drives the elastic-sensitivity join analysis).
    pub join_count: usize,
}

impl ServiceResponse {
    /// A response reading its text, columns and rows through `reply`.
    fn new(analyst: String, reply: Arc<Reply>, from_cache: bool, charged: (f64, f64)) -> Self {
        ServiceResponse {
            analyst,
            join_count: reply.answer.join_count,
            canonical_sql: Text(Arc::clone(&reply)),
            columns: Columns(Arc::clone(&reply)),
            rows: Rows(reply),
            from_cache,
            charged,
        }
    }

    /// The noised scalar of a 1×1 result.
    pub fn scalar(&self) -> Option<f64> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            self.rows[0][0].as_f64()
        } else {
            None
        }
    }
}

/// Queued jobs allowed per worker: admission refuses new work once
/// `workers × QUEUE_DEPTH` jobs are waiting — admitted, not yet
/// executing on any thread (the charge is refunded and the caller gets
/// the retryable [`ServiceError::Overloaded`]). A fixed bound, not a
/// knob.
pub(crate) const QUEUE_DEPTH: usize = 1024;

/// Deepest query, in the parser's nesting levels, that the thread
/// waiting for it may run. A fixed bound, not a knob: a worker's 2 MiB
/// stack is sized for a query at the parser's cap (`MAX_NESTING_DEPTH`,
/// 64), but the waiting thread's stack is the embedder's. Every stage
/// after the parser recurses in step with the nesting, so a query at a
/// quarter of the cap needs less stack on that thread than parsing one
/// at the cap already does in `submit`; a deeper one runs on a worker.
pub const CALLER_NESTING_DEPTH: usize = 16;

/// Handle to a request; [`Ticket::wait`] blocks for the outcome.
///
/// An admitted query runs on the thread that waits for it, so it starts
/// when [`Ticket::wait`] is called, not when `submit` returns — unless a
/// worker took it first (a burst). Submitting, doing other work, then
/// waiting does not overlap the two; the deadline does not count the
/// gap. With a WAL, the charge's fsync starts at `submit`, on the log
/// flusher, and `wait` returns only once the charge is durable. A ticket
/// that is never waited for leaves its job to the worker pool: dropping
/// it wakes a worker, and the release (and its charge) happens anyway.
#[derive(Debug)]
pub struct Ticket(Outcome);

#[derive(Debug)]
enum Outcome {
    /// Resolved inside `submit` — a cache hit, a rejection, a parse
    /// error, a shed: nothing crosses a thread.
    Ready(ServiceResult<ServiceResponse>),
    /// Parked on an identical in-flight computation, or queued for a
    /// worker only (too deep for a caller's stack); whoever computes the
    /// release sends the outcome here.
    Pending(Receiver<ServiceResult<ServiceResponse>>),
    /// Admitted and queued: `wait` runs the job itself and keeps the
    /// outcome it returns; only a worker that took the job first sends
    /// it here.
    Queued(Claim, Receiver<ServiceResult<ServiceResponse>>),
}

/// A submitter's hold on its queued job: the queue id it takes the job
/// back by. Dropped before [`Ticket::wait`] took it, it hands the job to
/// a worker.
struct Claim {
    shared: Arc<Shared>,
    /// The job's queue id; `None` once `wait` tried to take it.
    job: Option<u64>,
}

impl Claim {
    /// Run the job on this thread if it is still queued and a slot is
    /// free, and return its outcome; `None` when a worker has it or will.
    fn run_here(&mut self) -> Option<ServiceResult<ServiceResponse>> {
        let shared = &*self.shared;
        let (mut job, slot) = self.job.take().and_then(|id| shared.queue.take(id))?;
        // The job sat queued for this thread, not for a worker: the
        // deadline does not count the wait (the trace's queue span does).
        if let Some(deadline) = &mut job.deadline {
            *deadline += job.enqueued_at.elapsed();
        }
        shared.telemetry.record_dequeued();
        shared.telemetry.incr(Metric::JobsRunBySubmitter);
        Some(run_job(shared, job, slot))
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.job.is_some() {
            self.shared.queue.nudge();
        }
    }
}

impl std::fmt::Debug for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Claim").field("job", &self.job).finish()
    }
}

impl Ticket {
    fn ready(outcome: ServiceResult<ServiceResponse>) -> Self {
        Ticket(Outcome::Ready(outcome))
    }

    /// Block until the request resolves (released answer, rejection, or
    /// [`ServiceError::Shutdown`] if the service dropped first). An
    /// admitted query no worker has taken yet runs here, on the calling
    /// thread, if it nests at most [`CALLER_NESTING_DEPTH`] levels: the
    /// calling thread never needs more stack than parsing a query at the
    /// parser's cap already took in `submit`.
    pub fn wait(self) -> ServiceResult<ServiceResponse> {
        let reply = match self.0 {
            Outcome::Ready(outcome) => return outcome,
            Outcome::Pending(reply) => reply,
            Outcome::Queued(mut claim, reply) => match claim.run_here() {
                Some(outcome) => return outcome,
                None => reply,
            },
        };
        reply.recv().unwrap_or(Err(ServiceError::Shutdown))
    }
}

/// Where a release computed on another thread is sent: a
/// `sync_channel(1)`, as each carries one message (an unbounded channel
/// allocates a block of 31 slots on its first send).
type Respond = SyncSender<ServiceResult<ServiceResponse>>;

struct Job {
    query: Query,
    key: CacheKey,
    params: PrivacyParams,
    charge: Charge,
    /// Where a worker that runs the job sends its outcome; a submitter
    /// that runs it keeps the outcome instead.
    respond: Respond,
    /// Front-door spans measured by `submit`, carried into the worker so
    /// the released trace covers the whole pipeline.
    parse: std::time::Duration,
    canonicalize: std::time::Duration,
    admission: std::time::Duration,
    /// When the job entered the queue; the worker turns it into the
    /// queue-wait span.
    enqueued_at: Instant,
    /// Absolute deadline (submission time + `query_timeout`); checked at
    /// dequeue and between pipeline stages, never after release.
    deadline: Option<Instant>,
}

/// A parked requester: who asked, and where to send the release.
type Waiter = (String, Respond);

struct Shared {
    db: Arc<Database>,
    ledger: BudgetLedger,
    /// Sharded noisy-answer cache with built-in single-flight: each
    /// shard slot is a released answer or an in-flight computation with
    /// its piggybacking waiters, so the miss → coalesce → admit decision
    /// is one shard-lock acquisition (see [`AnswerCache::admit`]).
    cache: AnswerCache<Waiter>,
    /// Exact SQL text → the `cache` entry its answer was served from, one
    /// stripe per thread: a repeat skips parse → canonicalize → print and
    /// every lock another thread takes.
    memo: TextMemo,
    /// The bounded job queue: submitters take their own jobs back off
    /// it, workers pop the rest, and its slots bound both together.
    queue: WorkQueue<Job>,
    /// Charges waiting for the log flusher's fsync (WAL only).
    flush: FlushRequests,
    telemetry: Telemetry,
    /// Secret 128-bit key for the per-query noise-seed PRF. Derived from
    /// `ServiceConfig::seed` when set, otherwise drawn from OS entropy.
    noise_key: [u64; 2],
    /// Fingerprint of the database (contents, schemas, public-table
    /// markings, metrics catalog) and FLEX options, bound into every
    /// noise seed: an explicit seed reused after anything that shifts
    /// the truth or the noise scale changes draws fresh noise instead of
    /// re-applying the old stream (which an analyst could difference
    /// away).
    db_fingerprint: u64,
    /// What WAL recovery replayed when this service's ledger was built
    /// (all-zero without a WAL or over a fresh log).
    recovery: RecoveryReport,
    /// Per-query deadline from [`ServiceConfig::query_timeout`].
    query_timeout: Option<Duration>,
    #[cfg(test)]
    executing: failpoint::HighWater,
}

/// A concurrent multi-analyst DP query service over one database.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The log flusher, on a ledger with a WAL.
    flusher: Option<JoinHandle<()>>,
}

/// What `submit` asks of the log flusher: the highest charge LSN to make
/// durable, and whether the service is stopping. `submit` only notifies;
/// nobody waits here but the flusher.
#[derive(Default)]
struct FlushRequests {
    /// (highest LSN requested, stop).
    state: Mutex<(Lsn, bool)>,
    wake: Condvar,
}

impl FlushRequests {
    /// Ask for every record up to `lsn` to be synced. Never waits.
    fn request(&self, lsn: Lsn) {
        let mut state = sync::lock(&self.state);
        if lsn > state.0 {
            state.0 = lsn;
            drop(state);
            self.wake.notify_one();
        }
    }

    fn stop(&self) {
        sync::lock(&self.state).1 = true;
        self.wake.notify_one();
    }

    /// The flusher's next LSN to sync, one past `done`, parking until
    /// one is requested; `None` once stopped.
    fn next(&self, done: Lsn) -> Option<Lsn> {
        let mut state = sync::lock(&self.state);
        while state.0 <= done && !state.1 {
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        (!state.1).then_some(state.0)
    }
}

/// The log flusher: syncs each requested charge through the ledger's
/// group commit while the query it paid for runs on its caller. A
/// failure poisons the log and is the job's to report — its barrier
/// fails too — so the flusher never retries an LSN.
fn flusher_loop(shared: &Shared) {
    let mut done = 0;
    while let Some(lsn) = shared.flush.next(done) {
        let _ = shared.ledger.barrier_at(lsn);
        done = lsn;
    }
}

/// A stable fingerprint of everything that determines a release's true
/// answer or its noise scale: table names, schemas (column names and
/// types), public-table markings, every row value, and the metrics
/// catalog (max-frequency and value-range entries, including manual
/// overrides), chained through the keyed PRF with a fixed public key.
/// Computed once at service construction.
///
/// Anything left out of this fingerprint is an attack surface under an
/// explicit seed: if a change can move the truth (or the noise scale)
/// without re-keying the noise, an analyst can difference two releases
/// taken across the change and cancel the noise exactly.
fn db_fingerprint(db: &Database) -> u64 {
    let mut acc = 0x666c_6578_5f64_6266u64; // "flex_dbf"
    let mut names: Vec<&str> = db.table_names().collect();
    names.sort_unstable();
    let mut buf = Vec::new();
    let mut row_bufs = vec![Vec::new(); ROWS_PER_CHUNK];
    for name in names {
        let Some(table) = db.table(name) else {
            continue;
        };
        acc = prf::siphash24([acc, table.len() as u64], name.as_bytes());
        buf.clear();
        buf.push(db.is_public(name) as u8);
        for col in &table.schema.columns {
            buf.extend_from_slice(col.name.as_bytes());
            buf.push(0);
            buf.extend_from_slice(col.data_type.name().as_bytes());
            buf.push(0);
        }
        acc = prf::siphash24([acc, table.schema.columns.len() as u64], &buf);
        let columns = &table.columnar().columns;
        for start in (0..table.len()).step_by(ROWS_PER_CHUNK) {
            let rows = start..table.len().min(start + ROWS_PER_CHUNK);
            let bufs = &mut row_bufs[..rows.len()];
            bufs.iter_mut().for_each(Vec::clear);
            for col in columns {
                push_cells(bufs, col, rows.clone());
            }
            for row_buf in bufs.iter() {
                acc = prf::siphash24([acc, columns.len() as u64], row_buf);
            }
        }
    }
    for (table, column, mf, vr) in db.metrics().sorted_entries() {
        buf.clear();
        buf.extend_from_slice(table.as_bytes());
        buf.push(0);
        buf.extend_from_slice(column.as_bytes());
        buf.push(0);
        match mf {
            Some(v) => {
                buf.push(1);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            None => buf.push(0),
        }
        match vr {
            Some(v) => {
                buf.push(1);
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            None => buf.push(0),
        }
        acc = prf::siphash24([acc, buf.len() as u64], &buf);
    }
    acc
}

/// Rows whose fingerprint bytes [`db_fingerprint`] writes at a time, one
/// column after another.
const ROWS_PER_CHUNK: usize = 256;

/// Append the fingerprint bytes of `col`'s cells in `rows`, one to each of
/// `bufs`: a type tag, then the value's bytes — the bytes the row-major
/// value `col.value(i)` encodes to ([`push_value`]), read straight from the
/// typed column, whose type is matched once.
fn push_cells(bufs: &mut [Vec<u8>], col: &Column, rows: std::ops::Range<usize>) {
    let cells = rows.zip(bufs);
    macro_rules! typed {
        ($write:expr) => {{
            let write = $write;
            let has_nulls = col.nulls.any();
            for (i, buf) in cells {
                if has_nulls && col.is_null(i) {
                    buf.push(0);
                } else {
                    write(buf, i);
                }
            }
        }};
    }
    match &col.data {
        ColumnData::Bool(bs) => {
            typed!(|buf: &mut Vec<u8>, i: usize| tagged(buf, 1, &[bs[i] as u8]))
        }
        ColumnData::Int64(xs) => {
            typed!(|buf: &mut Vec<u8>, i: usize| tagged(buf, 2, &xs[i].to_le_bytes()))
        }
        ColumnData::Float64(xs) => {
            typed!(|buf: &mut Vec<u8>, i: usize| tagged(buf, 3, &xs[i].to_bits().to_le_bytes()))
        }
        ColumnData::Str(ss) => typed!(|buf: &mut Vec<u8>, i: usize| string(buf, &ss[i])),
        // A mixed column keeps its NULLs as values.
        ColumnData::Mixed(vs) => {
            for (i, buf) in cells {
                push_value(buf, &vs[i]);
            }
        }
    }
}

/// Append a value's fingerprint bytes.
fn push_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => tagged(buf, 1, &[*b as u8]),
        Value::Int(i) => tagged(buf, 2, &i.to_le_bytes()),
        Value::Float(f) => tagged(buf, 3, &f.to_bits().to_le_bytes()),
        Value::Str(s) => string(buf, s),
    }
}

fn tagged(buf: &mut Vec<u8>, tag: u8, bytes: &[u8]) {
    buf.push(tag);
    buf.extend_from_slice(bytes);
}

fn string(buf: &mut Vec<u8>, s: &str) {
    tagged(buf, 4, &(s.len() as u64).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

impl QueryService {
    /// Start a service over `db`: spawns the worker pool, pins the
    /// database fingerprint (schema, content, options, fold grid) that
    /// keys deterministic noise, and applies `config.parallelism` to the
    /// database's execution tuning.
    ///
    /// Panics if the WAL at [`ServiceConfig::wal_path`] cannot be opened
    /// or recovered; use [`QueryService::try_new`] to handle that case.
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> Self {
        Self::try_new(db, config).expect("service construction failed")
    }

    /// Fallible construction: like [`QueryService::new`] but surfacing a
    /// WAL that cannot be opened or replayed as
    /// [`ServiceError::WalUnavailable`] instead of panicking.
    pub fn try_new(db: Arc<Database>, config: ServiceConfig) -> ServiceResult<Self> {
        let wal = match &config.wal_path {
            Some(path) => {
                let storage = FileStorage::open(path)
                    .map_err(|e| ServiceError::WalUnavailable(e.to_string()))?;
                Some(Arc::new(Wal::new(
                    Box::new(storage),
                    config.wal_fsync,
                    config.wal_snapshot_threshold,
                )))
            }
            None => None,
        };
        Self::build(db, config, wal)
    }

    /// Construct over an injectable [`Storage`] backend (e.g. a
    /// [`crate::fault::FaultStorage`] in crash tests): the ledger writes
    /// through a WAL on `storage` exactly as it would through a file.
    pub fn with_storage(
        db: Arc<Database>,
        config: ServiceConfig,
        storage: Box<dyn Storage>,
    ) -> ServiceResult<Self> {
        let wal = Arc::new(Wal::new(
            storage,
            config.wal_fsync,
            config.wal_snapshot_threshold,
        ));
        Self::build(db, config, Some(wal))
    }

    fn build(
        db: Arc<Database>,
        config: ServiceConfig,
        wal: Option<Arc<Wal>>,
    ) -> ServiceResult<Self> {
        let noise_key = match config.seed {
            Some(seed) => prf::expand_key(seed),
            None => [prf::entropy64(), prf::entropy64()],
        };
        // Bind the FLEX options the service runs too: they steer the
        // analysis (e.g. the public-table optimization), so a build that
        // changed them would change a release's noise scale just like a
        // data change can.
        let db_fingerprint = prf::siphash24(
            [db_fingerprint(&db), 0x6f70_7473],
            format!("{:?}", FlexOptions::new()).as_bytes(),
        );
        // The reduction-grid chunk size (fold_rows) fixes the shape of
        // the engine's aggregate fold tree, so it shifts result bit
        // patterns the same way a data change would — bind it. It must
        // not be retuned after the service is constructed.
        let db_fingerprint = prf::siphash24(
            [db_fingerprint, 0x666f_6c64], // "fold"
            &(db.morsel_rows() as u64).to_le_bytes(),
        );
        // The execution-parallelism knob lives on the (shared) database:
        // it is pure tuning, never part of the noise-seed fingerprint,
        // because results are byte-identical at every worker count —
        // aggregates fold on the fixed reduction grid bound above.
        db.set_parallelism(config.parallelism);
        let telemetry = Telemetry::default();
        let (ledger, recovery) = match wal {
            // Recovery first: replay whatever the log holds into the
            // ledger, then attach the WAL for write-through admission.
            Some(wal) => BudgetLedger::with_wal(config.policy, config.ledger_shards, wal)?,
            None => (
                BudgetLedger::with_shards(config.policy, config.ledger_shards),
                RecoveryReport::default(),
            ),
        };
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            db,
            ledger,
            cache: AnswerCache::with_config(
                config.cache_capacity,
                config.cache_max_bytes,
                config.cache_shards,
            ),
            memo: TextMemo::new(config.cache_capacity),
            // The bound is per worker; the queue is shared.
            queue: WorkQueue::new(workers.saturating_mul(QUEUE_DEPTH), workers),
            flush: FlushRequests::default(),
            telemetry,
            noise_key,
            db_fingerprint,
            recovery,
            query_timeout: config.query_timeout,
            #[cfg(test)]
            executing: failpoint::HighWater::default(),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flex-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        let flusher = shared.ledger.wal().map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("flex-wal-flush".to_string())
                .spawn(move || flusher_loop(&shared))
                .expect("spawn the log flusher")
        });
        Ok(QueryService {
            shared,
            workers,
            flusher,
        })
    }

    /// Submit a query for `analyst`, returning a [`Ticket`] immediately.
    ///
    /// A text whose answer this thread served from the cache before is
    /// looked up in the thread's stripe of the text memo first: if its
    /// answer is still cached at these `params`, it is served without
    /// parsing and without a lock another thread takes. Otherwise cache hits,
    /// rejections and parse errors resolve the ticket here,
    /// without touching the queue or building a channel. An admitted
    /// query is queued and runs when [`Ticket::wait`] is called, on the
    /// waiting thread — or on a worker, which is woken at once only for
    /// a burst (the queue already held a job) or for a query nested
    /// deeper than [`CALLER_NESTING_DEPTH`]. A caller that wants the
    /// query to run while it does other work must therefore wait from
    /// another thread. `submit` never waits for the disk: with a WAL it
    /// hands the charge to the log flusher, and the release waits for
    /// that fsync at its durability barrier.
    ///
    /// ```
    /// use flex_core::PrivacyParams;
    /// use flex_db::{Database, DataType, Schema, Value};
    /// use flex_service::{QueryService, ServiceConfig};
    /// use std::sync::Arc;
    ///
    /// let mut db = Database::new();
    /// db.create_table("t", Schema::of(&[("x", DataType::Int)])).unwrap();
    /// db.insert("t", (0..50).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    /// let svc = QueryService::new(Arc::new(db), ServiceConfig::default());
    ///
    /// let params = PrivacyParams::new(1.0, 1e-8).unwrap();
    /// let ticket = svc.submit("alice", "SELECT COUNT(*) FROM t", params);
    /// let answer = ticket.wait().unwrap();      // blocks for the release
    /// assert_eq!(*answer.columns, ["count"]);
    /// assert!(answer.scalar().is_some());       // noised count, not 50
    /// assert_eq!(svc.ledger().spent("alice").0, 1.0);
    /// ```
    pub fn submit(&self, analyst: &str, sql: &str, params: PrivacyParams) -> Ticket {
        let shared = &self.shared;

        // A text this thread served from the cache before points at the
        // entry: while it is live, the answer is served without a lock
        // another thread takes, and counted by one bump that reads as a
        // submission, a cache hit and a memo hit. A known text whose
        // entry left the cache, or was released at other params, needs
        // only its key; any other outcome takes the full path below.
        match shared.memo.get(sql, params) {
            Memoized::Hit(reply) => {
                shared.telemetry.incr(Metric::MemoHits);
                return serve_hit(analyst, reply);
            }
            Memoized::Key(key) => {
                if let Some(hit) = shared.cache.get(&key) {
                    shared.telemetry.incr(Metric::MemoHits);
                    return serve_hit(analyst, shared.memo.insert(sql, &key, &hit));
                }
            }
            Memoized::Unknown => {}
        }
        shared.telemetry.incr(Metric::Submitted);

        let started = Instant::now();
        let (parsed, nesting) = match parse_query_nesting(sql) {
            Ok(parsed) => parsed,
            Err(e) => {
                shared.telemetry.incr(Metric::Failed);
                return Ticket::ready(Err(ServiceError::from(e)));
            }
        };
        // One clock read ends each front-door span and starts the next.
        let parsed_at = Instant::now();
        let (query, canonical_sql) = canonical_form(parsed);
        let key = CacheKey::new(canonical_sql, params);
        let admission_started = Instant::now();

        // Single-flight section: cache lookup, coalescing, and admission
        // are decided under ONE cache shard-lock acquisition (the ledger
        // charge runs inside it — lock order: cache shard, then ledger
        // shard), so concurrent identical submissions can never each
        // charge budget for the same release. The charge is written to
        // the WAL in there and synced by nobody: no lock waits for the
        // disk.
        let mut parked = None;
        let decision = shared.cache.admit(
            &key,
            // Runs only when the request coalesces.
            || {
                let (tx, rx) = sync_channel(1);
                parked = Some(rx);
                (analyst.to_string(), tx)
            },
            || {
                shared
                    .ledger
                    .try_charge(analyst, params.epsilon, params.delta)
            },
        );
        let charge = match decision {
            // Only a text whose answer was released enters the memo, so
            // a cold workload never fills it.
            Admission::Hit(hit) => {
                shared.telemetry.incr(Metric::CacheHits);
                return serve_hit(analyst, shared.memo.insert(sql, &key, &hit));
            }
            // An identical query is already in flight: this request was
            // parked to piggyback on its release instead of paying for a
            // duplicate computation. Counted as coalesced only — not as
            // a miss — so misses stay exactly "requests that went to
            // admission control".
            Admission::Coalesced => {
                shared.telemetry.incr(Metric::Coalesced);
                let reply = parked.expect("a coalesced request parked its waiter");
                // The job this request waits on may still be queued for a
                // submitter that is not waiting yet: a worker must be able
                // to run it, or this request waits on that caller.
                shared.queue.nudge();
                return Ticket(Outcome::Pending(reply));
            }
            // Admission control charged before any computation; the key
            // is now marked in flight.
            Admission::Admitted(c) => {
                shared.telemetry.incr(Metric::CacheMisses);
                c
            }
            Admission::Rejected(e) => {
                shared.telemetry.incr(Metric::CacheMisses);
                shared.telemetry.incr(Metric::RejectedBudget);
                return Ticket::ready(Err(e));
            }
        };

        // Start the charge's fsync on the flusher now; the job's barrier
        // waits for it only if the query finishes first.
        if shared.ledger.wal().is_some() {
            shared.flush.request(charge.lsn);
        }

        let (tx, reply) = sync_channel(1);
        let enqueued_at = Instant::now();
        let job = Job {
            query,
            key,
            params,
            charge,
            respond: tx,
            parse: parsed_at - started,
            canonicalize: admission_started - parsed_at,
            admission: enqueued_at - admission_started,
            enqueued_at,
            // The deadline clock starts at submission, not at dequeue:
            // time spent waiting in a saturated queue counts against it.
            deadline: shared.query_timeout.map(|t| started + t),
        };
        shared.telemetry.record_enqueued();
        // This thread is free the moment `submit` returns, and its `wait`
        // runs the job: waking a worker would only add a hand-off. A
        // query too deep for this thread's stack is the pool's alone.
        let runs_here = nesting <= CALLER_NESTING_DEPTH;
        match shared.queue.push(job, !runs_here) {
            Ok(id) => {
                if runs_here {
                    let claim = Claim {
                        shared: Arc::clone(&self.shared),
                        job: Some(id),
                    };
                    return Ticket(Outcome::Queued(claim, reply));
                }
            }
            // The queue is at capacity: shed the load
            // instead of letting the backlog grow without bound. The
            // charge is refunded (nothing will be released) and the
            // caller gets a retryable error.
            Err(PushError::Full(job)) => return Ticket::ready(shed_job(shared, job)),
            Err(PushError::Closed(job)) => return Ticket::ready(abort_job(shared, job)),
        }
        Ticket(Outcome::Pending(reply))
    }

    /// Submit and block for the answer.
    pub fn query(
        &self,
        analyst: &str,
        sql: &str,
        params: PrivacyParams,
    ) -> ServiceResult<ServiceResponse> {
        self.submit(analyst, sql, params).wait()
    }

    /// The per-analyst budget ledger (for policy setup and inspection).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.shared.ledger
    }

    /// What WAL recovery replayed when this service started: records
    /// replayed, whether a snapshot was restored, and torn bytes
    /// discarded from the tail. All zero without a WAL or over a fresh
    /// log.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.shared.recovery
    }

    /// Point-in-time telemetry.
    ///
    /// Never contends with admission: the cache figures are read from
    /// per-shard atomics, the queue depth is a telemetry atomic, and the
    /// parallelism gauge an atomic on the database — no hot-path lock
    /// is taken.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.reconcile_gauges();
        self.shared.telemetry.snapshot()
    }

    /// Reconcile every figure that lives on another component into
    /// telemetry, lock-free: the parallelism knob (an atomic on the
    /// shared `Database`, retunable at runtime), the cache's per-shard
    /// atomics, the WAL's own counters, and the process-wide
    /// poisoned-lock recovery count. Recording any of these once at
    /// construction would go stale.
    fn reconcile_gauges(&self) {
        let shared = &self.shared;
        let (appends, fsyncs, errors) = match shared.ledger.wal() {
            Some(wal) => (wal.appends(), wal.fsyncs(), wal.errors()),
            None => (0, 0, 0),
        };
        for (metric, value) in [
            (Metric::ExecParallelism, shared.db.parallelism() as u64),
            (Metric::CacheBytes, shared.cache.bytes() as u64),
            (Metric::CacheEvictions, shared.cache.evictions()),
            (Metric::WalAppends, appends),
            (Metric::WalFsyncs, fsyncs),
            (Metric::WalErrors, errors),
            (
                Metric::WalRecoveryReplayed,
                shared.recovery.replayed_records,
            ),
            (Metric::LockPoisonRecoveries, sync::poison_recoveries()),
        ] {
            shared.telemetry.set(metric, value);
        }
    }

    /// A full metrics report — the telemetry snapshot plus per-analyst
    /// budget burn from the ledger — ready for Prometheus text or JSON
    /// exposition (see [`MetricsReport::prometheus`] and
    /// [`MetricsReport::to_json`]).
    pub fn metrics(&self) -> MetricsReport {
        MetricsReport::new(self.telemetry(), &self.shared.ledger)
    }

    /// Number of answers currently cached (lock-free: per-shard atomics).
    pub fn cached_answers(&self) -> usize {
        self.shared.cache.len()
    }

    /// Drain the queue and stop all workers, returning final telemetry.
    pub fn shutdown(mut self) -> TelemetrySnapshot {
        self.stop_workers();
        self.reconcile_gauges();
        self.shared.telemetry.snapshot()
    }

    fn stop_workers(&mut self) {
        // Close, don't clear: workers drain already-admitted jobs (whose
        // budgets are charged) before exiting.
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // A job its submitter took back before the close runs on that
        // thread, not a worker: wait for it too, so that it has finished
        // before the sync below and the log has no writer once this
        // returns.
        self.shared.queue.wait_idle();
        // Every job has finished: none waits on the flusher any more.
        if let Some(flusher) = self.flusher.take() {
            self.shared.flush.stop();
            let _ = flusher.join();
        }
        // A durability flush: every record's writer commits it before
        // anything depends on it, so this is normally free, but a clean
        // stop promises nothing written is left in the page cache.
        // Best-effort (this runs in `Drop`); a failure is counted in
        // `wal_errors`.
        if let Some(wal) = self.shared.ledger.wal() {
            let _ = wal.sync();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Serve an already-released answer: post-processing, so free. The
/// response reads the key's text and the cached answer through `reply`.
fn serve_hit(analyst: &str, reply: Arc<Reply>) -> Ticket {
    let response = ServiceResponse::new(analyst.to_string(), reply, true, (0.0, 0.0));
    Ticket::ready(Ok(response))
}

fn worker_loop(shared: &Shared) {
    // `None` only after close + full drain, so admitted (charged) jobs
    // always run.
    while let Some((job, slot)) = shared.queue.pop() {
        shared.telemetry.record_dequeued();
        let respond = job.respond.clone();
        let _ = respond.send(run_job(shared, job, slot));
    }
}

/// An admitted job that will release nothing: refund the charge — the
/// refund always precedes a release and never follows a settle — free
/// the key's in-flight slot, give every piggybacked waiter the error,
/// and return it as the caller's outcome.
fn abandon(shared: &Shared, job: &Job, err: ServiceError) -> ServiceResult<ServiceResponse> {
    shared.ledger.refund(&job.charge);
    for (_, waiter) in shared.cache.fail(&job.key) {
        let _ = waiter.send(Err(err.clone()));
    }
    Err(err)
}

/// An admitted job that can no longer reach a worker (queue closed).
fn abort_job(shared: &Shared, job: Job) -> ServiceResult<ServiceResponse> {
    shared.telemetry.record_dequeued();
    shared.telemetry.incr(Metric::Failed);
    abandon(shared, &job, ServiceError::Shutdown)
}

/// An admitted job shed at the queue (at capacity): the caller (and any
/// piggybacked waiters) should retry later.
fn shed_job(shared: &Shared, job: Job) -> ServiceResult<ServiceResponse> {
    shared.telemetry.record_dequeued();
    shared.telemetry.incr(Metric::Shed);
    abandon(shared, &job, ServiceError::Overloaded)
}

/// A job found past its deadline (at dequeue or between pipeline
/// stages), reported distinctly from failures.
fn timeout_job(shared: &Shared, job: &Job) -> ServiceResult<ServiceResponse> {
    shared.telemetry.incr(Metric::Timeouts);
    let timeout = shared.query_timeout.unwrap_or_default();
    abandon(shared, job, ServiceError::Timeout { timeout })
}

/// Run one admitted job, on whichever thread took it with `slot`, and
/// return the owner's outcome; piggybacked waiters are answered here.
fn run_job(shared: &Shared, job: Job, mut slot: Slot<'_, Job>) -> ServiceResult<ServiceResponse> {
    let queue_span = job.enqueued_at.elapsed();
    // Deadline check at dequeue: a job that waited out its whole budget
    // in a saturated queue is abandoned before any computation. The
    // refund is safe — nothing has been released.
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            return timeout_job(shared, &job);
        }
    }
    // Noise is a deterministic function of (secret service key, canonical
    // query, ε, δ, dataset fingerprint): re-computing the same release
    // after a cache eviction or restart reproduces the same answer
    // instead of leaking a fresh sample of the noise distribution, while
    // any change to the data re-keys the noise (identical noise over two
    // different truths would let an analyst difference it away). The seed is derived with a keyed
    // PRF (SipHash-2-4) rather than any invertible mix: without the
    // secret key an analyst can neither predict a query's noise stream
    // nor craft a second (query, ε, δ) whose stream collides with it,
    // which is what makes the determinism safe to offer at all.
    let noise_seed = prf::siphash24_parts(
        shared.noise_key,
        &[
            job.key.canonical_sql().as_bytes(),
            &job.params.epsilon.to_bits().to_le_bytes(),
            &job.params.delta.to_bits().to_le_bytes(),
            &shared.db_fingerprint.to_le_bytes(),
        ],
    );

    // A panicking pipeline must not take the worker (and every queued
    // job's budget) down with it: catch, refund, report.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        failpoint::hit(job.key.canonical_sql());
        #[cfg(test)]
        let _executing = shared.executing.enter();
        let mut rng = StdRng::seed_from_u64(noise_seed);
        // The deadline is re-checked between pipeline stages (after
        // analysis and after execution, never after perturbation — the
        // abort must always leave the charge refundable). The check
        // never touches `rng`, so noise bits are unchanged by it.
        run_query_deadline(
            &shared.db,
            &job.query,
            job.params,
            &mut rng,
            &FlexOptions::new(),
            job.deadline,
        )
    }));
    // The pipeline is over: free its slot before anyone is answered. A
    // worker that replied first would still hold it when the caller it
    // woke submits again, that caller's take would be refused, and the
    // caller's next job would come back to this worker — one hand-off
    // per query from then on, and one more thread's allocator arena
    // full of column buffers. (The job itself counts as running until
    // `slot` drops on return: shutdown waits for that.)
    slot.free();

    match outcome {
        Ok(Ok(result)) => {
            // The durability barrier: no answer — to the owner, a
            // coalesced waiter or the cache — exists before its charge
            // is on disk. A no-op when the flusher's fsync landed while
            // the query ran; otherwise it waits for that fsync or leads
            // one itself. Failing here is still before any release, so
            // the refund in `abandon` is sound.
            let durability = match shared.ledger.wal() {
                Some(_) => {
                    let waiting = Instant::now();
                    if let Err(e) = shared.ledger.barrier(&job.charge) {
                        shared.telemetry.incr(Metric::Failed);
                        return abandon(shared, &job, e);
                    }
                    waiting.elapsed()
                }
                None => Duration::ZERO,
            };
            // The answer is about to be released: the charge is final
            // and no longer refundable.
            shared.ledger.settle(&job.charge);
            // The one allocation of the release: the cache entry, this
            // job's response and every waiter's share it.
            let answer = Arc::new(CachedAnswer {
                columns: result.columns,
                rows: result.rows,
                join_count: result.join_count,
            });
            // This response and every waiter's read it through one
            // handle.
            let reply = Reply::new(job.key.shared_sql(), &answer);
            // Publish the answer and collect the piggybacked waiters in
            // one shard-lock acquisition: at every instant a concurrent
            // submit sees the key as either pending or released, so
            // exactly one computation is paid.
            let waiters = shared.cache.complete(job.key, answer);
            // One structured trace per release: the front-door spans
            // measured by `submit`, the queue wait, the three FLEX stage
            // timings, the wait at the durability barrier, and the
            // executor's own record of the run. Feeds
            // the stage histograms, the top-K counter and the
            // slow-query log in one shot.
            let trace = QueryTrace {
                parse: job.parse,
                canonicalize: job.canonicalize,
                admission: job.admission,
                queue: queue_span,
                analysis: result.timings.analysis,
                execution: result.timings.execution,
                perturbation: result.timings.perturbation,
                durability,
                exec: result.trace,
            };
            shared.telemetry.record_completed(&trace);
            shared
                .telemetry
                .record_release(trace.total(), || SlowQuery {
                    analyst: job.charge.analyst.clone(),
                    canonical_sql: reply.canonical_sql.to_string(),
                    epsilon: job.charge.epsilon,
                    delta: job.charge.delta,
                    trace,
                });
            for (analyst, waiter) in waiters {
                // Piggybacked on the computation, not served from the
                // cache — free, but honest about the path.
                let response = ServiceResponse::new(analyst, Arc::clone(&reply), false, (0.0, 0.0));
                let _ = waiter.send(Ok(response));
            }
            let charged = (job.charge.epsilon, job.charge.delta);
            Ok(ServiceResponse::new(
                job.charge.analyst,
                reply,
                false,
                charged,
            ))
        }
        // A mid-pipeline deadline expiry is a timeout, not a failure:
        // refund and report it under its own counter.
        Ok(Err(flex_core::FlexError::DeadlineExceeded { .. })) => timeout_job(shared, &job),
        Ok(Err(e)) => {
            // Nothing was released: hand the budget back. Waiters get the
            // same (deterministic) failure without being charged.
            shared.telemetry.incr(Metric::Failed);
            abandon(shared, &job, ServiceError::Flex(e))
        }
        Err(_panic) => {
            shared.telemetry.incr(Metric::Failed);
            shared.telemetry.incr(Metric::WorkerPanics);
            let err = ServiceError::Flex(flex_core::FlexError::Db(
                "query worker panicked while computing the release".to_string(),
            ));
            abandon(shared, &job, err)
        }
    }
}

/// Test-only failpoint: the pipeline panics on a release whose canonical
/// SQL contains [`failpoint::PANIC`] (the pipeline may run on a worker's
/// thread, so the trigger travels in the query — as a table alias, say).
/// Beside it, [`failpoint::HighWater`] counts pipelines executing at once.
#[cfg(test)]
mod failpoint {
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(super) const PANIC: &str = "flex_failpoint_panic";

    pub(super) fn hit(canonical_sql: &str) {
        if canonical_sql.contains(PANIC) {
            panic!("failpoint: pipeline panic");
        }
    }

    /// Pipelines executing now, and the most ever at once.
    #[derive(Debug, Default)]
    pub(super) struct HighWater {
        now: AtomicUsize,
        peak: AtomicUsize,
    }

    impl HighWater {
        pub(super) fn enter(&self) -> Executing<'_> {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            Executing(self)
        }

        pub(super) fn peak(&self) -> usize {
            self.peak.load(Ordering::SeqCst)
        }

        pub(super) fn now(&self) -> usize {
            self.now.load(Ordering::SeqCst)
        }
    }

    /// One executing pipeline; counted out when dropped.
    pub(super) struct Executing<'a>(&'a HighWater);

    impl Drop for Executing<'_> {
        fn drop(&mut self) {
            self.0.now.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_db::{DataType, Schema};

    fn test_db() -> Arc<Database> {
        let mut db = Database::new();
        db.create_table(
            "trips",
            Schema::of(&[("id", DataType::Int), ("city_id", DataType::Int)]),
        )
        .unwrap();
        db.insert(
            "trips",
            (0..500)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                .collect(),
        )
        .unwrap();
        Arc::new(db)
    }

    fn service(config: ServiceConfig) -> QueryService {
        QueryService::new(test_db(), config)
    }

    fn params(eps: f64) -> PrivacyParams {
        PrivacyParams::new(eps, 1e-8).unwrap()
    }

    /// The operator's trace of the computed release of `sql`, read from
    /// the slow-query log by its canonical text.
    fn trace_of(svc: &QueryService, sql: &str) -> QueryTrace {
        let canonical = flex_sql::canonical_sql(&flex_sql::parse_query(sql).unwrap());
        svc.telemetry()
            .slow_queries
            .into_iter()
            .find(|q| q.canonical_sql == canonical)
            .expect("a computed release is in the slow-query log")
            .trace
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryService>();
    }

    #[test]
    fn answers_counting_queries() {
        let svc = service(ServiceConfig::default());
        let r = svc
            .query("alice", "SELECT COUNT(*) FROM trips", params(1.0))
            .unwrap();
        assert!(!r.from_cache);
        assert_eq!(r.charged, (1.0, 1e-8));
        let noised = r.scalar().unwrap();
        assert!((noised - 500.0).abs() < 100.0, "noised = {noised}");
    }

    #[test]
    fn repeated_query_is_served_from_cache_for_free() {
        let svc = service(ServiceConfig::default());
        let p = params(0.5);
        let first = svc
            .query("alice", "SELECT COUNT(*) FROM trips WHERE city_id = 3", p)
            .unwrap();
        let spent_after_first = svc.ledger().spent("alice");
        // Different formatting, same canonical query — and even a
        // different analyst: the answer is already public to the service's
        // clients, so re-serving it is free post-processing.
        let second = svc
            .query("bob", "select count(*)\nfrom trips where 3 = city_id", p)
            .unwrap();
        assert!(second.from_cache);
        assert_eq!(second.charged, (0.0, 0.0));
        assert_eq!(second.rows, first.rows, "must be bit-identical");
        assert_eq!(svc.ledger().spent("alice"), spent_after_first);
        assert_eq!(svc.ledger().spent("bob"), (0.0, 0.0));
        // A genuinely different query is charged normally.
        let third = svc
            .query("bob", "SELECT COUNT(*) FROM trips WHERE city_id = 4", p)
            .unwrap();
        assert!(!third.from_cache);
        assert_eq!(svc.ledger().spent("bob"), (0.5, 1e-8));
    }

    #[test]
    fn same_query_different_epsilon_is_a_fresh_release() {
        let svc = service(ServiceConfig::default());
        let a = svc
            .query("a", "SELECT COUNT(*) FROM trips", params(1.0))
            .unwrap();
        let b = svc
            .query("a", "SELECT COUNT(*) FROM trips", params(2.0))
            .unwrap();
        assert!(!b.from_cache);
        assert_ne!(a.rows, b.rows);
        assert_eq!(svc.ledger().spent("a").0, 3.0);
    }

    #[test]
    fn budget_rejection_happens_before_computation() {
        let cfg = ServiceConfig {
            policy: LedgerPolicy::sequential(1.0, 1e-6),
            ..ServiceConfig::default()
        };
        let svc = service(cfg);
        svc.query("a", "SELECT COUNT(*) FROM trips", params(0.9))
            .unwrap();
        let before = svc.telemetry();
        let err = svc
            .query(
                "a",
                "SELECT COUNT(*) FROM trips WHERE city_id = 1",
                params(0.9),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::BudgetRejected { .. }));
        let after = svc.telemetry();
        assert_eq!(after.rejected_budget, before.rejected_budget + 1);
        assert_eq!(after.completed, before.completed, "nothing ran");
        // The failed attempt did not spend.
        assert!((svc.ledger().spent("a").0 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn failed_queries_are_refunded() {
        let svc = service(ServiceConfig::default());
        // Raw-data query: admitted (it parses), then rejected by analysis.
        let err = svc
            .query("a", "SELECT id FROM trips", params(1.0))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Flex(_)));
        assert_eq!(svc.ledger().spent("a"), (0.0, 0.0));
        let t = svc.telemetry();
        assert_eq!(t.failed, 1);
    }

    /// A root statistic selected twice would be two independent draws
    /// for one charge: refused, and nothing stays charged.
    #[test]
    fn a_statistic_selected_twice_errs_and_charges_nothing() {
        let svc = service(ServiceConfig::default());
        let err = svc
            .query("a", "SELECT COUNT(*), COUNT(*) FROM trips", params(1.0))
            .unwrap_err();
        let ServiceError::Flex(flex_core::FlexError::UnsupportedProjection(why)) = &err else {
            panic!("expected a refused projection, got {err:?}");
        };
        assert!(why.contains("selected twice"), "{why}");
        assert_eq!(svc.ledger().spent("a"), (0.0, 0.0));
        let t = svc.telemetry();
        assert_eq!((t.failed, t.completed, t.cache_hits), (1, 0, 0), "{t}");
    }

    #[test]
    fn parse_errors_fail_fast() {
        let svc = service(ServiceConfig::default());
        let err = svc
            .query("a", "SELECT FROM WHERE", params(1.0))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Flex(_)));
        assert_eq!(svc.ledger().spent("a"), (0.0, 0.0));
    }

    #[test]
    fn disabled_cache_recomputes_and_recharges() {
        let cfg = ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let svc = service(cfg);
        let p = params(0.5);
        svc.query("a", "SELECT COUNT(*) FROM trips", p).unwrap();
        let r2 = svc.query("a", "SELECT COUNT(*) FROM trips", p).unwrap();
        assert!(!r2.from_cache);
        assert_eq!(svc.ledger().spent("a").0, 1.0);
        assert_eq!(svc.cached_answers(), 0);
    }

    #[test]
    fn noise_is_deterministic_per_explicit_seed_and_query() {
        let p = params(1.0);
        let sql = "SELECT COUNT(*) FROM trips";
        let seeded = |seed| ServiceConfig {
            seed: Some(seed),
            ..ServiceConfig::default()
        };
        let a = service(seeded(0xF1E8)).query("x", sql, p).unwrap();
        let b = service(seeded(0xF1E8)).query("y", sql, p).unwrap();
        assert_eq!(
            a.rows, b.rows,
            "same seed + same canonical query must re-release the same answer"
        );
        let c = service(seeded(0xDEAD_BEEF)).query("z", sql, p).unwrap();
        assert_ne!(a.rows, c.rows, "different seed, different noise");
    }

    #[test]
    fn fingerprint_binds_schema_public_marks_and_metrics() {
        let base = || {
            let mut db = Database::new();
            db.create_table(
                "t",
                Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
            )
            .unwrap();
            db.insert("t", vec![vec![Value::Int(1), Value::Int(2)]])
                .unwrap();
            db
        };
        let fp0 = db_fingerprint(&base());

        // Same data, column names swapped: the true answer of e.g.
        // SUM(a) changes, so the fingerprint must too.
        let mut renamed = Database::new();
        renamed
            .create_table(
                "t",
                Schema::of(&[("b", DataType::Int), ("a", DataType::Int)]),
            )
            .unwrap();
        renamed
            .insert("t", vec![vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        assert_ne!(fp0, db_fingerprint(&renamed), "schema rename");

        // Marking a table public changes the sensitivity analysis.
        let mut public = base();
        public.mark_public("t");
        assert_ne!(fp0, db_fingerprint(&public), "public marking");

        // A metrics override changes the noise scale.
        let mut tuned = base();
        tuned.metrics_mut().set_value_range("t", "a", 1e6);
        assert_ne!(fp0, db_fingerprint(&tuned), "metrics override");

        // And identical databases agree (the fingerprint is stable).
        assert_eq!(fp0, db_fingerprint(&base()));
    }

    /// FNV-1a, 64-bit, so a pinned digest does not depend on the
    /// toolchain's `DefaultHasher`.
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A digest of every table's `Table::rows()`, tables by name, each
    /// value as a tag and its bytes (a float by its bits).
    fn rows_digest(db: &Database) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325;
        let mut names: Vec<&str> = db.table_names().collect();
        names.sort_unstable();
        for name in names {
            fnv1a(&mut hash, name.as_bytes());
            fnv1a(&mut hash, &[0]);
            for row in db.table(name).unwrap().rows() {
                for v in &row {
                    match v {
                        Value::Null => fnv1a(&mut hash, &[0]),
                        Value::Bool(b) => fnv1a(&mut hash, &[1, *b as u8]),
                        Value::Int(i) => {
                            fnv1a(&mut hash, &[2]);
                            fnv1a(&mut hash, &i.to_le_bytes());
                        }
                        Value::Float(f) => {
                            fnv1a(&mut hash, &[3]);
                            fnv1a(&mut hash, &f.to_bits().to_le_bytes());
                        }
                        Value::Str(s) => {
                            fnv1a(&mut hash, &[4]);
                            fnv1a(&mut hash, &(s.len() as u64).to_le_bytes());
                            fnv1a(&mut hash, s.as_bytes());
                        }
                    }
                }
            }
        }
        hash
    }

    /// A digest of `MetricsCatalog::sorted_entries()`.
    fn metrics_digest(db: &Database) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for (table, column, mf, vr) in db.metrics().sorted_entries() {
            fnv1a(&mut hash, table.as_bytes());
            fnv1a(&mut hash, &[0]);
            fnv1a(&mut hash, column.as_bytes());
            fnv1a(&mut hash, &[0]);
            fnv1a(&mut hash, &mf.map_or(u64::MAX, |m| m).to_le_bytes());
            fnv1a(&mut hash, &vr.map_or(u64::MAX, f64::to_bits).to_le_bytes());
        }
        hash
    }

    /// A table whose columns hold NULLs, empty and multi-byte strings,
    /// a mixed column and a boolean one — cells the Uber tables lack.
    fn odd_cells_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "odd",
            Schema::of(&[
                ("s", DataType::Str),
                ("f", DataType::Float),
                ("b", DataType::Bool),
                ("n", DataType::Int),
            ]),
        )
        .unwrap();
        let strs = ["", "ünïcødé", "日本", "a", "", "a"];
        db.insert(
            "odd",
            (0..12)
                .map(|i| {
                    vec![
                        if i % 5 == 4 {
                            Value::Null
                        } else {
                            Value::str(strs[i % strs.len()])
                        },
                        match i % 3 {
                            0 => Value::Int(i as i64),
                            1 => Value::Float(i as f64 * -0.5),
                            _ => Value::Null,
                        },
                        if i % 4 == 0 {
                            Value::Null
                        } else {
                            Value::Bool(i % 2 == 0)
                        },
                        Value::Null,
                    ]
                })
                .collect(),
        )
        .unwrap();
        db
    }

    /// The stored rows, the metrics catalog and the service's database
    /// fingerprint of the generated Uber data at two sizes and two seeds
    /// each, and of a table of NULL, mixed and multi-byte cells — pinned,
    /// so a change to how tables are built, stored or fingerprinted
    /// cannot move a row, a metric or the noise seed.
    #[test]
    fn stored_rows_metrics_and_fingerprint_are_pinned() {
        use flex_workloads::uber::{generate, UberConfig};
        let sized = |trips, drivers, riders, user_tags, seed| UberConfig {
            cities: 30,
            drivers,
            riders,
            trips,
            user_tags,
            seed,
        };
        let dbs = [
            generate(&sized(250, 40, 80, 40, 61)),
            generate(&sized(250, 40, 80, 40, 62)),
            generate(&sized(4_000, 400, 1_000, 400, 61)),
            generate(&sized(4_000, 400, 1_000, 400, 62)),
            odd_cells_db(),
        ];
        let got: Vec<[u64; 3]> = dbs
            .iter()
            .map(|db| [rows_digest(db), metrics_digest(db), db_fingerprint(db)])
            .collect();
        let want: [[u64; 3]; 5] = [
            [
                0x1589_986f_755c_215c,
                0x76c0_b1c9_b8c4_e9ad,
                0xf0cb_b750_c750_bfde,
            ],
            [
                0xe489_7dcd_7e5f_0a2a,
                0x772d_d510_a05e_e391,
                0x0bb0_7276_ef24_45ce,
            ],
            [
                0x85b7_2dc6_676a_26bd,
                0x82ca_57c6_6317_cbc5,
                0x8180_fa50_f4ea_0e79,
            ],
            [
                0xb1a7_a4f2_d452_1e25,
                0xaf1a_fb38_4193_db90,
                0x5781_fe43_5056_ad69,
            ],
            [
                0xf1be_44a3_45e5_75bd,
                0x0d69_9301_2cff_180d,
                0x989b_4218_db1c_759e,
            ],
        ];
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                got.map(|d| format!("{d:#018x}")),
                want.map(|d| format!("{d:#018x}")),
                "database {i}: [rows, metrics, fingerprint]"
            );
        }
    }

    #[test]
    fn fingerprint_binds_fold_grid_but_not_parallelism() {
        let mk = |fold: Option<usize>, workers: usize| {
            let mut db = Database::new();
            db.create_table("t", Schema::of(&[("a", DataType::Int)]))
                .unwrap();
            db.insert("t", vec![vec![Value::Int(1)]]).unwrap();
            if let Some(f) = fold {
                db.set_morsel_rows(f);
            }
            let cfg = ServiceConfig {
                seed: Some(1),
                parallelism: workers,
                ..ServiceConfig::default()
            };
            QueryService::new(Arc::new(db), cfg)
        };
        let base = mk(None, 1).shared.db_fingerprint;
        // Worker count is pure tuning — results are byte-identical at
        // every setting — so the release fingerprint must not move.
        assert_eq!(base, mk(None, 8).shared.db_fingerprint, "parallelism");
        // The reduction grid shapes aggregate bit patterns, so it must
        // re-key the noise like a data change would.
        assert_ne!(base, mk(Some(64), 1).shared.db_fingerprint, "fold grid");
    }

    #[test]
    fn data_change_rekeys_noise_under_an_explicit_seed() {
        // Same seed, same query, dataset differing in one row: the noise
        // must differ, or an analyst could difference two releases taken
        // across the change and recover the delta with zero noise.
        let p = params(1.0);
        let sql = "SELECT COUNT(*) FROM trips";
        let cfg = || ServiceConfig {
            seed: Some(0xF1E8),
            ..ServiceConfig::default()
        };
        let db_with = |n: i64| {
            let mut db = Database::new();
            db.create_table(
                "trips",
                Schema::of(&[("id", DataType::Int), ("city_id", DataType::Int)]),
            )
            .unwrap();
            db.insert(
                "trips",
                (0..n)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                    .collect(),
            )
            .unwrap();
            Arc::new(db)
        };
        let a = QueryService::new(db_with(500), cfg())
            .query("x", sql, p)
            .unwrap();
        let b = QueryService::new(db_with(501), cfg())
            .query("x", sql, p)
            .unwrap();
        let (a, b) = (a.scalar().unwrap(), b.scalar().unwrap());
        assert_ne!(
            a - 500.0,
            b - 501.0,
            "noise must not repeat across a data change"
        );
    }

    #[test]
    fn default_config_noise_is_not_predictable_across_instances() {
        // With no explicit seed, every instance draws a fresh secret: an
        // adversary holding the public source must not be able to
        // recompute (and strip) the noise of a default-config deployment.
        let p = params(1.0);
        let sql = "SELECT COUNT(*) FROM trips";
        let a = service(ServiceConfig::default())
            .query("x", sql, p)
            .unwrap();
        let b = service(ServiceConfig::default())
            .query("x", sql, p)
            .unwrap();
        assert_ne!(
            a.rows, b.rows,
            "two default-config instances must not share a noise stream"
        );
    }

    /// Only computed queries reach the executor: a cache hit moves
    /// neither the completion count nor the execution histogram.
    #[test]
    fn cache_hits_execute_nothing() {
        let svc = service(ServiceConfig::default());
        svc.query("a", "SELECT COUNT(*) FROM trips", params(0.1))
            .unwrap();
        svc.query(
            "a",
            "SELECT COUNT(*) FROM trips t JOIN trips u ON t.id = u.id",
            params(0.1),
        )
        .unwrap_or_else(|_| panic!("join query should run"));
        let t = svc.telemetry();
        assert_eq!(t.completed, 2, "snapshot: {t}");
        let hit = svc
            .query("b", "SELECT COUNT(*) FROM trips", params(0.1))
            .unwrap();
        assert!(hit.from_cache);
        let t2 = svc.telemetry();
        assert_eq!(t2.completed, t.completed);
        assert_eq!(t2.execution_latency.count(), 2);
    }

    /// `topk_hits` is reported by the pipeline itself: a dashboard-shaped
    /// `ORDER BY … LIMIT` query through the full DP pipeline counts one
    /// top-K pushdown, and queries without a bounded tail count none.
    #[test]
    fn telemetry_tracks_topk_pushdowns() {
        let svc = service(ServiceConfig::default());
        // Grouped top-K: 7 groups, LIMIT 3 → bounded selection engages.
        svc.query(
            "a",
            "SELECT city_id, COUNT(*) AS n FROM trips GROUP BY city_id \
             ORDER BY n DESC, city_id LIMIT 3",
            params(0.1),
        )
        .unwrap();
        // Unbounded: no LIMIT, no pushdown.
        svc.query(
            "a",
            "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id ORDER BY 2 DESC, 1",
            params(0.1),
        )
        .unwrap();
        let t = svc.telemetry();
        assert_eq!(t.topk_hits, 1, "snapshot: {t}");
        assert_eq!(t.completed, 2, "snapshot: {t}");
        assert!(t.to_string().contains("top-K pushdowns"), "snapshot: {t}");
    }

    /// The tentpole contract end to end: intra-query parallelism is pure
    /// execution tuning. Same explicit seed, same query, different
    /// worker counts — the released (noised) rows must be bit-identical,
    /// because the true results are byte-identical and the noise seed
    /// never sees the thread count.
    #[test]
    fn parallelism_does_not_change_noise_or_results() {
        let p = params(1.0);
        let sql = "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id";
        let cfg = |par: usize| ServiceConfig {
            seed: Some(0xA11CE),
            parallelism: par,
            ..ServiceConfig::default()
        };
        let run = |par: usize| {
            let db = test_db();
            // Tiny morsels so the 500-row table really splits across
            // workers instead of degrading to one morsel.
            db.set_morsel_rows(64);
            let svc = QueryService::new(db, cfg(par));
            svc.query("x", sql, p).unwrap()
        };
        let sequential = run(1);
        for workers in [2, 4, 7] {
            let parallel = run(workers);
            assert_eq!(
                sequential.rows, parallel.rows,
                "noise changed with parallelism = {workers}"
            );
        }
    }

    #[test]
    fn parallelism_config_reaches_db_and_telemetry() {
        let db = test_db();
        let svc = QueryService::new(
            Arc::clone(&db),
            ServiceConfig {
                parallelism: 3,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(db.parallelism(), 3);
        assert_eq!(svc.telemetry().exec_parallelism, 3);
        // Clamped to ≥ 1 like the pipeline worker count.
        let svc0 = QueryService::new(
            test_db(),
            ServiceConfig {
                parallelism: 0,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(svc0.telemetry().exec_parallelism, 1);
    }

    /// Satellite regression: the parallelism gauge is *re-read from the
    /// shared database at snapshot time*. Recording it once at
    /// construction would go stale the moment anyone retunes the
    /// `Arc<Database>` at runtime.
    #[test]
    fn parallelism_gauge_tracks_runtime_retuning() {
        let db = test_db();
        let svc = QueryService::new(
            Arc::clone(&db),
            ServiceConfig {
                parallelism: 2,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(svc.telemetry().exec_parallelism, 2);
        // Retune the shared database behind the service's back.
        db.set_parallelism(6);
        assert_eq!(
            svc.telemetry().exec_parallelism,
            6,
            "gauge must follow runtime retuning of the shared Database"
        );
        db.set_parallelism(1);
        assert_eq!(svc.shutdown().exec_parallelism, 1);
    }

    /// Every computed release leaves its full per-query trace with the
    /// operator; a cache hit (which computes nothing) leaves none. The
    /// same trace feeds the telemetry histograms and the slow-query log.
    #[test]
    fn responses_carry_query_traces() {
        let svc = service(ServiceConfig::default());
        let sql = "SELECT COUNT(*) FROM trips";
        svc.query("alice", sql, params(0.5)).unwrap();
        let trace = trace_of(&svc, sql);
        assert_eq!(trace.exec.rows_scanned, 500);
        assert_eq!(trace.exec.rows_emitted, 1);
        assert!(trace.total() > std::time::Duration::ZERO);
        let hit = svc.query("bob", sql, params(0.5)).unwrap();
        assert!(hit.from_cache);
        assert_eq!(
            svc.telemetry().slow_queries.len(),
            1,
            "a hit traces nothing"
        );

        // A nine-leaf join tree is one more query to the executor: its
        // trace counts every leaf scan and all eight joins.
        let wide_sql = "SELECT COUNT(*) FROM trips t1 JOIN trips t2 ON t1.id = t2.id \
                        JOIN trips t3 ON t2.id = t3.id JOIN trips t4 ON t3.id = t4.id \
                        JOIN trips t5 ON t4.id = t5.id JOIN trips t6 ON t5.id = t6.id \
                        JOIN trips t7 ON t6.id = t7.id JOIN trips t8 ON t7.id = t8.id \
                        JOIN trips t9 ON t8.id = t9.id";
        svc.query("alice", wide_sql, params(0.5)).unwrap();
        let exec = trace_of(&svc, wide_sql).exec;
        assert_eq!((exec.rows_scanned, exec.join_order.joins), (9 * 500, 8));
        let t = svc.telemetry();
        assert_eq!(t.latency.count(), 2, "two computed queries");
        assert_eq!(t.slow_queries.len(), 2);
        assert!(t
            .slow_queries
            .iter()
            .any(|q| q.canonical_sql.to_ascii_uppercase().contains("COUNT")));
    }

    /// The metrics report joins telemetry with per-analyst budget burn
    /// and renders valid Prometheus text and JSON.
    #[test]
    fn metrics_report_joins_ledger_and_telemetry() {
        let svc = service(ServiceConfig::default());
        svc.query("alice", "SELECT COUNT(*) FROM trips", params(0.5))
            .unwrap();
        let report = svc.metrics();
        assert_eq!(report.analysts.len(), 1);
        assert_eq!(report.analysts[0].analyst, "alice");
        assert!((report.analysts[0].epsilon_spent - 0.5).abs() < 1e-12);
        assert_eq!(report.analysts[0].queries, 1);
        let text = report.prometheus();
        assert!(text.contains("flex_analyst_epsilon_spent{analyst=\"alice\"} 0.5"));
        assert!(text.contains("flex_queries_completed_total 1"));
        let json = report.to_json_string();
        assert!(json.contains("\"epsilon_spent\": 0.5"), "json: {json}");
    }

    #[test]
    fn histogram_queries_round_trip() {
        let svc = service(ServiceConfig::default());
        let r = svc
            .query(
                "a",
                "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id",
                params(1.0),
            )
            .unwrap();
        assert_eq!(r.columns.len(), 2);
        assert_eq!(r.rows.len(), 7);
    }

    #[test]
    fn shutdown_returns_final_telemetry() {
        let svc = service(ServiceConfig::default());
        svc.query("a", "SELECT COUNT(*) FROM trips", params(0.1))
            .unwrap();
        let snap = svc.shutdown();
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.queue_depth, 0);
    }

    /// Seed binding is unaffected by eviction: an answer evicted under
    /// cache pressure recomputes — and recharges — but releases exactly
    /// the same bytes, because the noise seed is a function of (key,
    /// query, ε, δ, data), never of cache state.
    #[test]
    fn evicted_answers_recompute_to_identical_bytes() {
        let cfg = ServiceConfig {
            seed: Some(0x5EED),
            cache_capacity: 1,
            cache_shards: 1, // one shard so capacity 1 really means 1
            ..ServiceConfig::default()
        };
        let svc = service(cfg);
        let p = params(0.5);
        let first = svc.query("a", "SELECT COUNT(*) FROM trips", p).unwrap();
        // Evict it by releasing a different answer through the 1-entry
        // shard.
        svc.query("a", "SELECT COUNT(*) FROM trips WHERE city_id = 1", p)
            .unwrap();
        let t = svc.telemetry();
        assert_eq!(t.cache_evictions, 1, "snapshot: {t}");
        let again = svc.query("a", "SELECT COUNT(*) FROM trips", p).unwrap();
        assert!(!again.from_cache, "the entry was evicted");
        assert_eq!(again.charged, (0.5, 1e-8), "recomputation is recharged");
        assert_eq!(
            again.rows, first.rows,
            "recomputed release is bit-identical"
        );
    }

    /// The tentpole determinism contract: cache/ledger shard counts are
    /// pure scheduling. Same explicit seed, same queries, shard counts
    /// 1/4/16 — released bytes and ledger state must be identical.
    #[test]
    fn shard_counts_do_not_change_noise_results_or_ledger_state() {
        let p = params(1.0);
        let queries = [
            "SELECT COUNT(*) FROM trips",
            "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id",
            "SELECT COUNT(*) FROM trips WHERE city_id = 3",
        ];
        let run = |shards: usize| {
            let cfg = ServiceConfig {
                seed: Some(0xCAFE),
                cache_shards: shards,
                ledger_shards: shards,
                ..ServiceConfig::default()
            };
            let svc = service(cfg);
            let rows: Vec<_> = queries
                .iter()
                .map(|sql| svc.query("alice", sql, p).unwrap().rows)
                .collect();
            let spent = svc.ledger().spent("alice");
            (rows, spent)
        };
        let baseline = run(1);
        for shards in [4, 16] {
            assert_eq!(run(shards), baseline, "shards = {shards}");
        }
    }

    /// The shard/byte knobs reach the cache and ledger.
    #[test]
    fn shard_config_reaches_components() {
        let cfg = ServiceConfig {
            cache_shards: 3,
            ledger_shards: 5,
            ..ServiceConfig::default()
        };
        let svc = service(cfg);
        assert_eq!(svc.shared.cache.shards(), 3);
        assert_eq!(svc.shared.ledger.shards(), 5);
        // Clamped to ≥ 1.
        let svc0 = service(ServiceConfig {
            cache_shards: 0,
            ledger_shards: 0,
            ..ServiceConfig::default()
        });
        assert_eq!(svc0.shared.cache.shards(), 1);
        assert_eq!(svc0.shared.ledger.shards(), 1);
    }

    /// The cache gauges flow into telemetry snapshots without touching
    /// hot-path locks.
    #[test]
    fn cache_gauges_reach_telemetry() {
        let svc = service(ServiceConfig::default());
        svc.query("a", "SELECT COUNT(*) FROM trips", params(0.5))
            .unwrap();
        assert_eq!(svc.cached_answers(), 1);
        let t = svc.telemetry();
        assert!(t.cache_bytes > 0, "snapshot: {t}");
        assert_eq!(
            t.cache_bytes,
            svc.shared.cache.bytes() as u64,
            "snapshot: {t}"
        );
        assert_eq!(t.cache_evictions, 0);
        assert_eq!(t.max_queue_depth, 1, "one job crossed the queue: {t}");
        // The byte-bound knob evicts: a 1-byte budget cannot hold any
        // released answer.
        let tiny = service(ServiceConfig {
            cache_max_bytes: 1,
            ..ServiceConfig::default()
        });
        tiny.query("a", "SELECT COUNT(*) FROM trips", params(0.5))
            .unwrap();
        assert_eq!(tiny.cached_answers(), 0, "over-budget entry evicted");
        let t = tiny.telemetry();
        assert_eq!(t.cache_evictions, 1, "snapshot: {t}");
        assert_eq!(t.cache_bytes, 0);
    }

    /// A zero `query_timeout` makes every admitted query's deadline
    /// expire by dequeue time: the job is abandoned before computing,
    /// the charge refunded, and the caller told it timed out.
    #[test]
    fn zero_timeout_abandons_at_dequeue_with_refund() {
        let svc = service(ServiceConfig {
            query_timeout: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        let err = svc
            .query("a", "SELECT COUNT(*) FROM trips", params(1.0))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Timeout { .. }), "got {err:?}");
        assert_eq!(svc.ledger().spent("a"), (0.0, 0.0), "charge refunded");
        let t = svc.telemetry();
        assert_eq!(t.timeouts, 1, "snapshot: {t}");
        assert_eq!(t.completed, 0, "nothing ran");
        assert_eq!(t.failed, 0, "a timeout is not a failure");
    }

    /// A generous deadline changes nothing: same explicit seed with and
    /// without a timeout releases bit-identical rows (the deadline check
    /// never touches the noise RNG).
    #[test]
    fn generous_timeout_leaves_released_bytes_unchanged() {
        let p = params(1.0);
        let sql = "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id";
        let run = |timeout| {
            let svc = service(ServiceConfig {
                seed: Some(0x7137),
                query_timeout: timeout,
                ..ServiceConfig::default()
            });
            svc.query("x", sql, p).unwrap().rows
        };
        assert_eq!(run(None), run(Some(Duration::from_secs(3600))));
    }

    /// Expensive to compute (nine-leaf join tree), cheap to submit;
    /// distinct filters prevent coalescing.
    fn nine_way_join(i: usize) -> String {
        format!(
            "SELECT COUNT(*) FROM trips t1 JOIN trips t2 ON t1.id = t2.id \
             JOIN trips t3 ON t2.id = t3.id JOIN trips t4 ON t3.id = t4.id \
             JOIN trips t5 ON t4.id = t5.id JOIN trips t6 ON t5.id = t6.id \
             JOIN trips t7 ON t6.id = t7.id JOIN trips t8 ON t7.id = t8.id \
             JOIN trips t9 ON t8.id = t9.id WHERE t1.id < {}",
            1000 + i
        )
    }

    /// Single-flight: eight callers ask one cold query at once. One of
    /// them is admitted and pays; the other seven coalesce onto it or hit
    /// the cache it filled, and all eight hold the same bytes.
    #[test]
    fn identical_concurrent_queries_compute_and_charge_once() {
        const N: usize = 8;
        let svc = service(ServiceConfig::default());
        let sql = nine_way_join(0);
        let barrier = std::sync::Barrier::new(N);
        let responses: Vec<ServiceResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|i| {
                    let (svc, sql, barrier) = (&svc, &sql, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        svc.query(&format!("analyst-{i}"), sql, params(0.5))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let leaders: Vec<_> = responses
            .iter()
            .filter(|r| r.charged != (0.0, 0.0))
            .collect();
        assert_eq!(leaders.len(), 1, "one request paid");
        assert_eq!(leaders[0].charged, (0.5, 1e-8));
        assert_eq!(
            trace_of(&svc, &sql).exec.join_order.joins,
            8,
            "the leader's release computed"
        );
        for r in &responses {
            assert_eq!(r.rows, responses[0].rows, "everyone holds the same bytes");
        }
        let spent: f64 = (0..N)
            .map(|i| svc.ledger().spent(&format!("analyst-{i}")).0)
            .sum();
        assert!((spent - 0.5).abs() < 1e-12, "one charge, got {spent}");
        let t = svc.shutdown();
        assert_eq!((t.completed, t.cache_misses), (1, 1), "snapshot: {t}");
        assert_eq!(t.coalesced + t.cache_hits, N as u64 - 1, "snapshot: {t}");
    }

    /// `catch_unwind` isolation: a pipeline that panics costs its caller
    /// an error and nobody any budget, and the only worker there is
    /// lives to serve the next query — as it does after a query the
    /// analysis refuses.
    #[test]
    fn a_panicking_pipeline_is_refunded_and_its_worker_keeps_serving() {
        let svc = service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let p = params(1.0);
        svc.query("a", "SELECT id FROM trips", p).unwrap_err();
        let sql = format!("SELECT COUNT(*) FROM trips {}", failpoint::PANIC);
        let err = svc.query("a", &sql, p).unwrap_err();
        assert!(err.to_string().contains("panicked"), "got {err}");
        assert_eq!(svc.ledger().spent("a"), (0.0, 0.0), "charge refunded");
        // The key is not left in flight: asking again is admitted (and
        // panics again) instead of coalescing onto nothing forever.
        assert!(svc.query("a", &sql, p).is_err());
        let served = svc.query("a", "SELECT COUNT(*) FROM trips", p).unwrap();
        assert_eq!(served.charged, (1.0, 1e-8));
        let t = svc.telemetry();
        assert_eq!((t.worker_panics, t.failed), (2, 3), "snapshot: {t}");
        assert_eq!((t.completed, t.queue_depth), (1, 0), "snapshot: {t}");
    }

    /// The order the durability story rests on, read back from the log:
    /// the charge is logged before anything is computed and is durable
    /// by the time the caller holds the answer, and a failed query's
    /// refund is logged before the caller sees the error.
    #[test]
    fn wal_holds_the_charge_or_refund_before_the_caller_sees_the_outcome() {
        use crate::fault::FaultStorage;
        use crate::wal::WalOp;
        let storage = FaultStorage::new();
        let svc = QueryService::with_storage(
            test_db(),
            ServiceConfig::default(),
            Box::new(storage.clone()),
        )
        .unwrap();
        let log = || svc.ledger().wal().unwrap().read_ops().unwrap().0;
        let p = params(0.5);
        svc.query("a", "SELECT COUNT(*) FROM trips", p).unwrap();
        assert!(
            matches!(&log()[..], [WalOp::Charge { .. }]),
            "log: {:?}",
            log()
        );
        assert_eq!(storage.durable_len(), storage.total_len());
        svc.query("a", "SELECT id FROM trips", p).unwrap_err();
        assert!(
            matches!(&log()[1..], [WalOp::Charge { id, .. }, WalOp::Refund { id: refunded, .. }] if id == refunded),
            "log: {:?}",
            log()
        );
    }

    /// Overload shedding end to end: one worker, and a burst of twice
    /// its queue bound in expensive distinct queries. Shed requests get
    /// the retryable `Overloaded` error and a full refund — final spend
    /// is exactly the sum of successfully released charges.
    #[test]
    fn saturated_queues_shed_with_refund() {
        let svc = service(ServiceConfig {
            workers: 1,
            policy: LedgerPolicy::sequential(1e9, 1.0),
            ..ServiceConfig::default()
        });
        let p = params(1.0);
        let tickets: Vec<Ticket> = (0..2 * QUEUE_DEPTH)
            .map(|i| svc.submit("a", &nine_way_join(i), p))
            .collect();
        let mut released = 0u32;
        let mut shed = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(r) => {
                    assert_eq!(r.charged, (1.0, 1e-8));
                    released += 1;
                }
                Err(ServiceError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
        assert!(shed >= 1, "a burst of twice the queue bound must shed");
        let spent = svc.ledger().spent("a");
        assert!(
            (spent.0 - f64::from(released)).abs() < 1e-9,
            "spend {spent:?} must equal released count {released} (shed fully refunded)"
        );
        let t = svc.telemetry();
        assert_eq!(t.shed, shed, "snapshot: {t}");
        assert_eq!(t.completed, u64::from(released));
        assert_eq!(svc.ledger().queries("a"), released);
    }

    /// The WAL plumbing end to end: admissions write through the log,
    /// the WAL counters reach telemetry, and a restart over the same
    /// bytes recovers the spend ledger exactly.
    #[test]
    fn wal_backed_service_logs_and_recovers() {
        use crate::fault::FaultStorage;
        let storage = FaultStorage::new();
        let cfg = || ServiceConfig {
            seed: Some(0xD07),
            wal_fsync: FsyncPolicy::Always,
            ..ServiceConfig::default()
        };
        let svc = QueryService::with_storage(test_db(), cfg(), Box::new(storage.clone())).unwrap();
        assert_eq!(svc.recovery_report().replayed_records, 0, "fresh log");
        let p = params(0.5);
        svc.query("alice", "SELECT COUNT(*) FROM trips", p).unwrap();
        svc.query("alice", "SELECT COUNT(*) FROM trips WHERE city_id = 1", p)
            .unwrap();
        // A failed query logs a charge and refunds it.
        let _ = svc.query("alice", "SELECT id FROM trips", p).unwrap_err();
        let spent = svc.ledger().spent("alice");
        let t = svc.telemetry();
        assert_eq!(t.wal_appends, 4, "2 charges, 1 charge+refund: {t}");
        assert!(t.wal_fsyncs >= 1, "snapshot: {t}");
        assert_eq!(t.wal_errors, 0);
        drop(svc);

        // "Restart" over the same durable bytes.
        let svc2 = QueryService::with_storage(test_db(), cfg(), Box::new(storage.clone())).unwrap();
        let report = svc2.recovery_report();
        assert_eq!(report.replayed_records, 4, "report: {report:?}");
        assert_eq!(svc2.ledger().spent("alice"), spent, "spend recovered");
        assert_eq!(svc2.ledger().queries("alice"), 2);
        assert_eq!(
            svc2.telemetry().wal_recovery_replayed,
            report.replayed_records
        );
    }

    /// Fail-closed at the service layer: when the WAL cannot append, an
    /// admission is rejected — never admitted uncharged — and the ledger
    /// is left untouched.
    #[test]
    fn wal_write_error_rejects_queries_fail_closed() {
        use crate::fault::FaultStorage;
        let storage = FaultStorage::new();
        storage.fail_appends_after(0);
        let svc =
            QueryService::with_storage(test_db(), ServiceConfig::default(), Box::new(storage))
                .unwrap();
        let err = svc
            .query("a", "SELECT COUNT(*) FROM trips", params(1.0))
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::WalUnavailable(_)),
            "got {err:?}"
        );
        assert_eq!(svc.ledger().spent("a"), (0.0, 0.0), "nothing admitted");
        let t = svc.telemetry();
        assert!(t.wal_errors >= 1, "snapshot: {t}");
        assert_eq!(t.completed, 0);
    }

    /// The log flusher's own fsync fails: the owner and the request
    /// coalesced onto it get `WalUnavailable`, the charge is refunded,
    /// nothing is cached, and no fsync is attempted after the failed one.
    /// The flusher does not retry the poisoned log: the errors counted are
    /// the failed fsync, the barrier's commit and the refund's write, then
    /// the clean stop's flush. The pool is parked first: a worker still
    /// starting up would take the owner's job, and its barrier could lead
    /// the fsync, leaving the flusher's commit to count its error after
    /// both tickets are answered.
    #[test]
    fn a_failed_flusher_sync_fails_closed() {
        use crate::fault::FaultStorage;
        let storage = FaultStorage::new();
        let config = ServiceConfig {
            seed: Some(0xFEED),
            workers: 2,
            wal_fsync: FsyncPolicy::Always,
            ..ServiceConfig::default()
        };
        let svc = QueryService::with_storage(test_db(), config, Box::new(storage.clone())).unwrap();
        let p = params(0.5);
        let seen = svc.query("alice", "SELECT COUNT(*) FROM trips", p).unwrap();
        svc.shared.queue.wait_parked(2);
        let sql = "SELECT COUNT(*) FROM trips WHERE city_id = 1";
        storage.pause_syncs();
        let owner = svc.submit("alice", sql, p);
        // Nobody waits yet and a lone miss wakes no parked worker, so the
        // held sync is the flusher's.
        while storage.syncs_held() == 0 {
            std::thread::yield_now();
        }
        let waiter = svc.submit("bob", sql, p);
        let failed = storage.syncs();
        storage.fail_syncs_after(failed - 1);
        storage.resume_syncs();
        for outcome in [owner.wait(), waiter.wait()] {
            let err = outcome.unwrap_err();
            assert!(matches!(err, ServiceError::WalUnavailable(_)), "{err:?}");
        }
        let t = svc.telemetry();
        assert_eq!((t.coalesced, t.completed), (1, 1), "snapshot: {t}");
        assert_eq!(t.wal_errors, 3, "snapshot: {t}");
        assert_eq!(svc.cached_answers(), 1, "only the release before the fault");
        assert_eq!(svc.ledger().spent("alice"), seen.charged, "refunded");
        assert_eq!(svc.ledger().spent("bob"), (0.0, 0.0));
        assert_eq!(svc.shutdown().wal_errors, 4);
        assert_eq!(storage.syncs(), failed, "no fsync after the failed one");
    }

    /// Durability knobs are invisible in released bytes: the same
    /// explicit seed with and without a WAL releases identical rows.
    #[test]
    fn wal_does_not_change_released_bytes() {
        use crate::fault::FaultStorage;
        let p = params(1.0);
        let sql = "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id";
        let cfg = || ServiceConfig {
            seed: Some(0xBEEF),
            ..ServiceConfig::default()
        };
        let plain = service(cfg()).query("x", sql, p).unwrap();
        let walled = QueryService::with_storage(test_db(), cfg(), Box::new(FaultStorage::new()))
            .unwrap()
            .query("x", sql, p)
            .unwrap();
        assert_eq!(plain.rows, walled.rows);
    }

    fn two_workers() -> QueryService {
        service(ServiceConfig {
            workers: 2,
            policy: LedgerPolicy::sequential(1e9, 1.0),
            ..ServiceConfig::default()
        })
    }

    /// No hand-off for a lone miss: with the pool parked, the query runs
    /// on the thread that waits for it, and its trace is complete.
    #[test]
    fn a_lone_query_runs_on_the_submitting_thread() {
        let svc = two_workers();
        svc.shared.queue.wait_parked(2);
        let sql = "SELECT COUNT(*) FROM trips";
        svc.query("alice", sql, params(0.5)).unwrap();
        assert_eq!(trace_of(&svc, sql).exec.rows_scanned, 500);
        let t = svc.telemetry();
        assert_eq!(
            (t.jobs_run_by_submitter, t.completed, t.queue_depth),
            (1, 1, 0),
            "snapshot: {t}"
        );
    }

    /// `workers` bounds the pipelines executing at once on any thread:
    /// eight callers each running their own misses never push it past
    /// two.
    #[test]
    fn workers_bound_pipelines_on_every_thread() {
        let svc = two_workers();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (svc, barrier) = (&svc, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for j in 0..3 {
                        svc.query("a", &nine_way_join(3 * i + j), params(0.1))
                            .unwrap();
                    }
                });
            }
        });
        let peak = svc.shared.executing.peak();
        assert!((1..=2).contains(&peak), "{peak} pipelines at once");
        let t = svc.telemetry();
        assert_eq!((t.completed, t.queue_depth), (24, 0), "snapshot: {t}");
    }

    /// Wait until `svc` has completed `n` queries.
    fn await_completed(svc: &QueryService, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while svc.telemetry().completed < n {
            assert!(Instant::now() < deadline, "the job never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A ticket dropped before `wait` hands its job to a worker: the
    /// answer is still released and charged, and cached for the next
    /// asker.
    #[test]
    fn a_ticket_dropped_unwaited_is_still_released() {
        let svc = two_workers();
        svc.shared.queue.wait_parked(2);
        let sql = "SELECT COUNT(*) FROM trips WHERE city_id = 2";
        drop(svc.submit("alice", sql, params(0.5)));
        await_completed(&svc, 1);
        assert_eq!(svc.ledger().spent("alice"), (0.5, 1e-8));
        assert_eq!(svc.ledger().queries("alice"), 1);
        let again = svc.query("bob", sql, params(0.5)).unwrap();
        assert!(again.from_cache, "the dropped ticket's release is cached");
        let t = svc.telemetry();
        assert_eq!(
            (t.completed, t.jobs_run_by_submitter, t.queue_depth),
            (1, 0, 0),
            "snapshot: {t}"
        );
    }

    /// Shutdown drains every admitted job, including one nobody woke a
    /// worker for and tickets still unwaited when the service drops; each
    /// leaves its `Charge` in the log, and none is refunded.
    #[test]
    fn a_dropped_service_drains_unwaited_tickets() {
        use crate::fault::FaultStorage;
        use crate::wal::WalOp;
        let svc = two_workers();
        svc.shared.queue.wait_parked(2);
        let lone = svc.submit("a", "SELECT COUNT(*) FROM trips", params(0.5));
        let t = svc.shutdown();
        assert_eq!((t.completed, t.jobs_run_by_submitter), (1, 0), "{t}");
        assert_eq!(lone.wait().unwrap().charged, (0.5, 1e-8));

        let storage = FaultStorage::new();
        let cfg = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let svc = QueryService::with_storage(test_db(), cfg, Box::new(storage.clone())).unwrap();
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| svc.submit("a", &nine_way_join(i), params(0.5)))
            .collect();
        drop(svc);
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().charged, (0.5, 1e-8));
        }
        let wal = Wal::new(Box::new(storage), FsyncPolicy::Always, 0);
        let ops = wal.read_ops().unwrap().0;
        assert!(
            matches!(
                &ops[..],
                [
                    WalOp::Charge { .. },
                    WalOp::Charge { .. },
                    WalOp::Charge { .. }
                ]
            ),
            "log: {ops:?}"
        );
    }

    /// A burst submitted before any `wait` — one thread as its own
    /// fan-out — resolves every ticket, and spend equals releases.
    #[test]
    fn a_burst_submitted_before_any_wait_resolves() {
        let svc = two_workers();
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| {
                let sql = format!("SELECT COUNT(*) FROM trips WHERE id < {i}");
                svc.submit("a", &sql, params(0.5))
            })
            .collect();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().charged, (0.5, 1e-8));
        }
        assert_eq!(svc.ledger().spent("a").0, 32.0);
        assert_eq!(svc.ledger().queries("a"), 64);
        let t = svc.telemetry();
        assert_eq!(
            (t.completed, t.shed, t.queue_depth),
            (64, 0, 0),
            "snapshot: {t}"
        );
    }

    /// A request that coalesces onto a job still queued for a submitter
    /// that has not waited yet is answered by a worker: one analyst's
    /// held ticket never stalls another's query, even on one thread.
    #[test]
    fn a_request_coalesced_onto_an_unwaited_job_returns() {
        let svc = two_workers();
        svc.shared.queue.wait_parked(2);
        let sql = "SELECT COUNT(*) FROM trips WHERE city_id = 3";
        let held = svc.submit("alice", sql, params(0.5));
        let piggyback = svc.query("bob", sql, params(0.5)).unwrap();
        assert_eq!(piggyback.charged, (0.0, 0.0));
        let owner = held.wait().unwrap();
        assert_eq!(owner.charged, (0.5, 1e-8));
        assert_eq!(owner.rows, piggyback.rows);
        let t = svc.telemetry();
        assert_eq!(
            (t.coalesced, t.completed, t.jobs_run_by_submitter),
            (1, 1, 0),
            "snapshot: {t}"
        );
    }

    /// A query nested deeper than a caller's stack is sized for runs on
    /// a worker even when its submitter waits at once; one inside the
    /// bound runs on the submitter.
    #[test]
    fn a_query_too_deep_for_its_caller_runs_on_a_worker() {
        let nested = |n: usize| {
            format!(
                "SELECT COUNT(*) FROM {}trips{}",
                "(SELECT * FROM ".repeat(n),
                ") q".repeat(n)
            )
        };
        let depth = |sql: &str| flex_sql::parse_query_nesting(sql).unwrap().1;
        let deep = (1..)
            .map(nested)
            .find(|sql| depth(sql) > CALLER_NESTING_DEPTH)
            .unwrap();
        let shallow = (1..)
            .map(nested)
            .take_while(|sql| depth(sql) <= CALLER_NESTING_DEPTH)
            .last()
            .unwrap();
        let svc = two_workers();
        svc.shared.queue.wait_parked(2);
        svc.query("a", &deep, params(0.5)).unwrap();
        let t = svc.telemetry();
        assert_eq!((t.completed, t.jobs_run_by_submitter), (1, 0), "{t}");
        svc.shared.queue.wait_parked(2);
        svc.query("a", &shallow, params(0.5)).unwrap();
        let t = svc.telemetry();
        assert_eq!((t.completed, t.jobs_run_by_submitter), (2, 1), "{t}");
    }

    /// Shutdown waits for a job its submitter took back and is still
    /// running: the final snapshot counts it, and nothing runs on after.
    #[test]
    fn shutdown_waits_for_a_job_its_caller_runs() {
        let svc = two_workers();
        svc.shared.queue.wait_parked(2);
        // A three-way join on a 7-valued key: 2.5 M rows, long enough
        // for the stop to land mid-pipeline.
        let sql = "SELECT COUNT(*) FROM trips a JOIN trips b ON a.city_id = b.city_id \
                   JOIN trips c ON b.city_id = c.city_id";
        let ticket = svc.submit("a", sql, params(0.5));
        let caller = std::thread::spawn(move || ticket.wait());
        let deadline = Instant::now() + Duration::from_secs(60);
        while svc.shared.executing.now() == 0 {
            assert!(Instant::now() < deadline, "the caller never ran its job");
            std::thread::yield_now();
        }
        let t = svc.shutdown();
        assert_eq!((t.completed, t.jobs_run_by_submitter), (1, 1), "{t}");
        assert_eq!(caller.join().unwrap().unwrap().charged, (0.5, 1e-8));
    }

    /// The deadline runs from submission, but not through the time a
    /// job sat queued waiting for its own submitter to call `wait`.
    #[test]
    fn a_late_wait_does_not_time_the_query_out() {
        let svc = service(ServiceConfig {
            workers: 2,
            query_timeout: Some(Duration::from_millis(50)),
            ..ServiceConfig::default()
        });
        svc.shared.queue.wait_parked(2);
        let sql = "SELECT COUNT(*) FROM trips";
        let ticket = svc.submit("a", sql, params(0.5));
        std::thread::sleep(Duration::from_millis(100));
        ticket.wait().unwrap();
        assert!(trace_of(&svc, sql).queue >= Duration::from_millis(100));
        let t = svc.telemetry();
        assert_eq!((t.timeouts, t.jobs_run_by_submitter), (0, 1), "{t}");
    }

    /// A text served from the cache once is memoized; its next request
    /// is a memo hit that returns the same response, field for field.
    #[test]
    fn a_repeated_hit_text_is_served_from_the_memo() {
        let svc = service(ServiceConfig::default());
        let sql = "select count(*) from trips where 3 = city_id";
        let p = params(0.5);
        let miss = svc.query("a", sql, p).unwrap();
        assert_eq!(svc.shared.memo.len(), 0, "a miss memoizes nothing");
        let hit = svc.query("a", sql, p).unwrap();
        assert_eq!(svc.shared.memo.len(), 1, "a hit memoizes its text");
        let memo = svc.query("a", sql, p).unwrap();
        assert_eq!(memo, hit);
        assert_eq!((memo.rows, memo.charged), (miss.rows, (0.0, 0.0)));
        let t = svc.telemetry();
        assert_eq!((t.cache_hits, t.memo_hits, t.completed), (2, 1, 1), "{t}");
        // The memoized text at another ε has no released answer: the full
        // path admits and charges it.
        let other = svc.query("a", sql, params(0.25)).unwrap();
        assert_eq!(other.charged, (0.25, 1e-8));
        assert_eq!(svc.telemetry().memo_hits, 1);
    }

    /// One release is one allocation: the computing request, a request
    /// coalesced onto it and every later hit (by the full path and by
    /// the memo) hold the same columns and rows, equal field for field.
    #[test]
    fn every_response_for_one_release_shares_its_answer() {
        let svc = two_workers();
        svc.shared.queue.wait_parked(2);
        let sql = "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id";
        let p = params(0.5);
        let held = svc.submit("alice", sql, p);
        let piggyback = svc.submit("bob", sql, p);
        let (owner, piggyback) = (held.wait().unwrap(), piggyback.wait().unwrap());
        let hit = svc.query("carol", sql, p).unwrap();
        let memo = svc.query("carol", sql, p).unwrap();
        let t = svc.telemetry();
        assert_eq!(
            (t.completed, t.coalesced, t.cache_hits, t.memo_hits),
            (1, 1, 2, 1),
            "{t}"
        );
        assert_eq!(owner.rows.len(), 7);
        assert_eq!(owner.charged, (0.5, 1e-8));
        for r in [&piggyback, &hit, &memo] {
            assert!(std::ptr::eq(&*r.rows, &*owner.rows), "{}", r.analyst);
            assert!(std::ptr::eq(&*r.columns, &*owner.columns), "{}", r.analyst);
            assert_eq!(
                (&r.canonical_sql, &r.columns, &r.rows, r.join_count),
                (
                    &owner.canonical_sql,
                    &owner.columns,
                    &owner.rows,
                    owner.join_count
                )
            );
        }
        assert_eq!(
            (piggyback.from_cache, piggyback.charged),
            (false, (0.0, 0.0))
        );
        assert_eq!(hit, memo);
        // The memo hit's key text is the one the memo kept: the full-path
        // hit's.
        assert!(std::ptr::eq(&*hit.canonical_sql, &*memo.canonical_sql));
    }

    #[test]
    fn a_parse_error_is_never_memoized() {
        let svc = service(ServiceConfig::default());
        let first = svc.query("a", "SELECT FROM WHERE", params(1.0));
        let second = svc.query("a", "SELECT FROM WHERE", params(1.0));
        assert!(first.is_err());
        assert_eq!(first, second, "the same error comes back");
        assert_eq!(svc.shared.memo.len(), 0);
        let t = svc.telemetry();
        assert_eq!((t.failed, t.memo_hits), (2, 0), "{t}");
    }

    #[test]
    fn a_disabled_cache_never_fills_the_memo() {
        let svc = service(ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        for _ in 0..3 {
            let r = svc.query("a", "SELECT COUNT(*) FROM trips", params(0.5));
            assert_eq!(r.unwrap().charged, (0.5, 1e-8));
        }
        assert_eq!(svc.shared.memo.len(), 0);
        assert_eq!(svc.telemetry().memo_hits, 0);
    }

    #[test]
    fn an_over_length_text_bypasses_the_memo() {
        let svc = service(ServiceConfig::default());
        let sql = format!(
            "SELECT COUNT(*) FROM trips{}",
            " ".repeat(crate::cache::MEMO_MAX_TEXT_BYTES)
        );
        for _ in 0..3 {
            svc.query("a", &sql, params(0.5)).unwrap();
        }
        assert_eq!(svc.shared.memo.len(), 0);
        let t = svc.telemetry();
        assert_eq!((t.cache_hits, t.memo_hits), (2, 0), "{t}");
    }

    /// Many spellings of one released answer, each a hit: the memo stays
    /// within its bound and keeps serving the recent ones.
    #[test]
    fn a_flood_of_hit_texts_keeps_the_memo_within_its_bound() {
        let svc = service(ServiceConfig {
            cache_capacity: 2,
            cache_shards: 2,
            ..ServiceConfig::default()
        });
        let bound = svc.shared.memo.bound();
        assert_eq!(bound, 2 * crate::cache::MEMO_TEXTS_PER_ANSWER);
        let p = params(0.5);
        svc.query("a", "SELECT COUNT(*) FROM trips", p).unwrap();
        for i in 0..200 {
            let sql = format!("SELECT COUNT(*) FROM trips{}", " ".repeat(i + 1));
            assert!(svc.query("a", &sql, p).unwrap().from_cache);
            assert!(svc.query("a", &sql, p).unwrap().from_cache);
            assert!(svc.shared.memo.len() <= bound);
        }
        assert_eq!(svc.shared.memo.len(), bound);
        let t = svc.telemetry();
        assert_eq!((t.cache_hits, t.memo_hits), (400, 200), "{t}");
        assert_eq!(svc.ledger().spent("a").0, 0.5);
    }

    /// An answer evicted while its text stays memoized: the memo finds
    /// the key, the cache misses, and the full path recomputes and
    /// recharges it to the same bytes, as without the memo.
    #[test]
    fn an_evicted_answer_behind_a_memoized_text_is_recomputed_and_charged() {
        let svc = service(ServiceConfig {
            seed: Some(0x5EED),
            cache_capacity: 1,
            cache_shards: 1,
            ..ServiceConfig::default()
        });
        let p = params(0.5);
        let sql = "SELECT COUNT(*) FROM trips";
        let first = svc.query("a", sql, p).unwrap();
        svc.query("a", sql, p).unwrap();
        svc.query("a", "SELECT COUNT(*) FROM trips WHERE city_id = 1", p)
            .unwrap();
        assert_eq!(svc.telemetry().cache_evictions, 1);
        assert_eq!(svc.shared.memo.len(), 1, "the text is still memoized");
        let again = svc.query("a", sql, p).unwrap();
        assert!(!again.from_cache);
        assert_eq!((again.charged, &again.rows), ((0.5, 1e-8), &first.rows));
        assert_eq!(svc.ledger().spent("a").0, 1.5);
        let t = svc.telemetry();
        assert_eq!((t.completed, t.memo_hits), (3, 0), "{t}");
        // Released again, the answer is served through the memo once more.
        assert!(svc.query("a", sql, p).unwrap().from_cache);
        assert_eq!(svc.telemetry().memo_hits, 1);
    }

    /// In a two-answer cache, an answer used since the sweep last passed
    /// it outlives one that was not, whether the use was a memo hit or a
    /// hit through `admit`; without the use it is the one evicted.
    #[test]
    fn a_memo_hit_marks_an_answer_used_like_an_admit_hit() {
        let evicted_after = |refresh: Option<&str>| {
            let svc = service(ServiceConfig {
                cache_capacity: 2,
                cache_shards: 1,
                ..ServiceConfig::default()
            });
            let p = params(0.5);
            let (a, b) = (
                "SELECT COUNT(*) FROM trips",
                "SELECT COUNT(*) FROM trips WHERE city_id = 1",
            );
            let query = |sql: &str| svc.query("x", sql, p).unwrap();
            let key = query(a).canonical_sql;
            query(a); // memoizes `a`
            query(b);
            // A sweep: `a`, used, gets its second chance and loses its
            // bit; `b` is evicted.
            let c = query("SELECT COUNT(*) FROM trips WHERE city_id = 2").canonical_sql;
            assert_eq!(svc.telemetry().cache_evictions, 1);
            if let Some(sql) = refresh {
                assert!(query(sql).from_cache);
            }
            assert_eq!(svc.telemetry().memo_hits, u64::from(refresh == Some(a)));
            query("SELECT COUNT(*) FROM trips WHERE city_id = 3");
            assert_eq!(svc.telemetry().cache_evictions, 2);
            let cached = |k: Text| {
                svc.shared
                    .cache
                    .get(&CacheKey::new(k.to_string(), p))
                    .is_some()
            };
            (cached(key), cached(c))
        };
        assert_eq!(
            evicted_after(Some("SELECT COUNT(*) FROM trips")),
            (true, false)
        );
        assert_eq!(
            evicted_after(Some("select count(*) from trips")),
            (true, false)
        );
        assert_eq!(evicted_after(None), (false, true));
    }

    /// A memo entry on one thread points at a cache entry another thread
    /// can evict: the memoizing thread's next request is then a charged
    /// miss that releases the same bytes, and the one after it is a memo
    /// hit again.
    #[test]
    fn an_answer_evicted_by_another_thread_is_a_charged_miss_for_the_memo() {
        let svc = service(ServiceConfig {
            seed: Some(0x5EED),
            cache_capacity: 4,
            cache_shards: 1,
            ..ServiceConfig::default()
        });
        let p = params(0.5);
        let sql = "SELECT COUNT(*) FROM trips WHERE city_id = 2";
        let first = svc.query("a", sql, p).unwrap();
        svc.query("a", sql, p).unwrap(); // memoizes the text on this thread
        assert!(svc.query("a", sql, p).unwrap().from_cache);
        assert_eq!(svc.telemetry().memo_hits, 1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..16 {
                    let flood = format!("SELECT COUNT(*) FROM trips WHERE id > {i}");
                    svc.query("b", &flood, p).unwrap();
                }
            });
        });
        assert!(svc.telemetry().cache_evictions >= 13);
        let again = svc.query("a", sql, p).unwrap();
        assert!(!again.from_cache);
        assert_eq!((again.charged, &again.rows), ((0.5, 1e-8), &first.rows));
        assert_eq!(svc.ledger().spent("a").0, 1.0);
        assert_eq!(svc.telemetry().memo_hits, 1);
        let served = svc.query("a", sql, p).unwrap();
        assert!(served.from_cache && std::ptr::eq(&*served.rows, &*again.rows));
        assert_eq!(svc.telemetry().memo_hits, 2);
    }

    /// A memo hit counts references only on its thread's own reply
    /// handle: across a hundred memo hits on each of two threads, with
    /// every response held, the cache entry's answer and the key's text
    /// keep their strong counts, each thread's responses share one
    /// handle (the two threads' differ unless they share a memo stripe),
    /// and every response reads the miss's rows.
    #[test]
    fn a_memo_hit_counts_references_only_on_its_threads_reply() {
        const HITS: usize = 100;
        let svc = service(ServiceConfig::default());
        let p = params(0.5);
        let sql = "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id";
        let miss = svc.query("owner", sql, p).unwrap();
        let key = CacheKey::new(miss.canonical_sql.to_string(), p);
        let entry = svc.shared.cache.get(&key).expect("the release is cached");
        let text = &miss.canonical_sql.0.canonical_sql;
        let counts = || (Arc::strong_count(entry.answer()), Arc::strong_count(text));
        let (memoized, counted) = (std::sync::Barrier::new(3), std::sync::Barrier::new(3));
        let held = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|t| {
                    let (svc, memoized, counted) = (&svc, &memoized, &counted);
                    scope.spawn(move || {
                        let analyst = format!("reader-{t}");
                        // A full-path hit memoizes the text in this
                        // thread's stripe.
                        svc.query(&analyst, sql, p).unwrap();
                        memoized.wait();
                        counted.wait();
                        let hits: Vec<ServiceResponse> = (0..HITS)
                            .map(|_| svc.query(&analyst, sql, p).unwrap())
                            .collect();
                        (crate::sync::thread_stripe(), hits)
                    })
                })
                .collect();
            memoized.wait();
            let before = counts();
            counted.wait();
            let held: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            assert_eq!(counts(), before, "a memo hit wrote a shared count");
            held
        });
        let [(stripe_a, a), (stripe_b, b)] = &held[..] else {
            unreachable!("two readers")
        };
        let t = svc.telemetry();
        let shared_stripe = stripe_a == stripe_b;
        assert_eq!(
            t.memo_hits,
            (2 * HITS) as u64 + u64::from(shared_stripe),
            "{t}"
        );
        for hits in [a, b] {
            let reply = &hits[0].rows.0;
            for r in hits {
                assert!(r.from_cache && std::ptr::eq(&*r.rows, &*miss.rows));
                for view in [&r.canonical_sql.0, &r.columns.0, &r.rows.0] {
                    assert!(Arc::ptr_eq(view, reply));
                }
            }
        }
        assert_eq!(Arc::ptr_eq(&a[0].rows.0, &b[0].rows.0), shared_stripe);
    }

    /// A memo hit's one bump reads as a submission, a cache hit and a
    /// memo hit: over memo-served hits, a key-path memo hit (the text's
    /// entry evicted, then its answer released again), full-path hits,
    /// misses and a coalesced request, on two threads, every counter and
    /// the hit rate read exactly.
    #[test]
    fn every_counter_adds_up_across_the_hit_paths() {
        let svc = service(ServiceConfig {
            workers: 2,
            cache_capacity: 1,
            cache_shards: 1,
            policy: LedgerPolicy::sequential(1e9, 1.0),
            ..ServiceConfig::default()
        });
        svc.shared.queue.wait_parked(2);
        let p = params(0.5);
        let (a, b) = (
            "SELECT COUNT(*) FROM trips",
            "SELECT COUNT(*) FROM trips WHERE city_id = 1",
        );
        let query = |sql: &str| svc.query("x", sql, p).unwrap();
        let miss = |sql: &str| assert!(query(sql).charged.0 > 0.0, "{sql}: a miss");
        miss(a);
        query(a); // a full-path hit, memoizing `a`
        query(a); // a memo hit
        miss(b); // evicts `a`
        miss("select count(*) from trips"); // releases `a` again, evicting `b`
        query(a); // a key-path memo hit: the memo's entry left the cache
        query(a); // a memo hit
                  // A request coalesced onto a queued miss.
        let owner = svc.submit("x", b, p);
        let coalesced = svc.submit("y", b, p);
        assert_eq!(
            (
                owner.wait().unwrap().charged.0,
                coalesced.wait().unwrap().charged.0
            ),
            (0.5, 0.0)
        );
        std::thread::scope(|scope| {
            scope.spawn(|| {
                query(b); // a full-path hit
                for _ in 0..3 {
                    query(b); // memo hits
                }
            });
        });
        let t = svc.telemetry();
        // 4 misses, 2 full-path hits, 1 key-path and 5 memo-served hits,
        // 1 coalesced request.
        assert_eq!(
            (t.submitted, t.cache_hits, t.memo_hits, t.cache_misses),
            (13, 8, 6, 4),
            "{t}"
        );
        assert_eq!((t.completed, t.coalesced), (4, 1), "{t}");
        assert_eq!(t.hit_rate(), 8.0 / 13.0);
    }

    /// Two threads hitting one text each hit through their own memo
    /// stripe, and every response shares the one released answer.
    #[test]
    fn two_threads_hitting_one_text_both_hit_through_the_memo() {
        const HITS: u64 = 200;
        let svc = service(ServiceConfig::default());
        let p = params(0.5);
        let sql = "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id";
        let released = svc.query("owner", sql, p).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (svc, start, released) = (&svc, &start, &released);
                scope.spawn(move || {
                    let analyst = format!("reader-{t}");
                    start.wait();
                    for _ in 0..HITS {
                        let r = svc.query(&analyst, sql, p).unwrap();
                        assert!(r.from_cache && std::ptr::eq(&*r.rows, &*released.rows));
                    }
                });
            }
        });
        // Each thread's first hit memoizes the text in its stripe (unless
        // the two threads share a stripe); every later one is a memo hit.
        let t = svc.telemetry();
        assert_eq!(t.cache_hits, 2 * HITS, "{t}");
        assert!(t.memo_hits >= 2 * (HITS - 1), "{t}");
        assert_eq!(svc.ledger().spent("owner").0, 0.5);
    }
}
