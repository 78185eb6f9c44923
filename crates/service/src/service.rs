//! The query service: the front door of the FLEX system.
//!
//! [`QueryService`] accepts SQL from named analysts and drives the full
//! parse → canonicalize → admission → analyze → execute → smooth → noise
//! pipeline on a pool of worker threads. Three components make it a
//! subsystem rather than a wrapper:
//!
//! 1. the per-analyst [`BudgetLedger`] — a request
//!    that would overspend is rejected *before* any computation;
//! 2. the [`AnswerCache`] keyed on canonical ASTs — a
//!    repeated query returns the *same* released answer at zero marginal
//!    budget;
//! 3. [`Telemetry`] — hit/miss/reject counters, queue
//!    depth and per-stage timings, snapshotable for ops.
//!
//! Responses carry only noised rows; true values never leave the worker.

use crate::cache::{Admission, AnswerCache, CacheKey, CachedAnswer, DEFAULT_CACHE_SHARDS};
use crate::error::{ServiceError, ServiceResult};
use crate::export::MetricsReport;
use crate::ledger::{BudgetLedger, Charge, LedgerPolicy, DEFAULT_LEDGER_SHARDS};
use crate::prf;
use crate::queue::{PushError, WorkQueue};
use crate::sync;
use crate::telemetry::{Metric, QueryTrace, SlowQuery, Telemetry, TelemetrySnapshot};
use crate::wal::{FileStorage, FsyncPolicy, RecoveryReport, Storage, Wal};
use flex_core::{run_query_deadline, Composition, FlexOptions, FlexTimings, PrivacyParams};
use flex_db::{Database, Value};
use flex_sql::{canonicalize, parse_query, print_query, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads driving the pipeline. Clamped to at least 1.
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
    /// in-flight queries still coalesce onto one computation).
    pub cache_capacity: usize,
    /// Memory bound for the noisy-answer cache, in bytes (key text plus
    /// serialized-result size per entry); 0 means no byte bound. Split
    /// evenly across the cache shards; least-recently-used answers are
    /// evicted past either bound. Evicted answers recompute to the same
    /// bytes — noise seeds do not depend on cache state.
    pub cache_max_bytes: usize,
    /// Lock stripes for the noisy-answer cache (clamped to ≥ 1). Pure
    /// contention tuning: placement is by cache-key hash and never feeds
    /// noise seeds, so answers are byte-identical at every setting.
    pub cache_shards: usize,
    /// Lock stripes for the budget ledger's analyst accounts (clamped to
    /// ≥ 1). Pure contention tuning, like [`ServiceConfig::cache_shards`]:
    /// observable ledger state is identical at every setting.
    pub ledger_shards: usize,
    /// Options forwarded to the FLEX mechanism.
    pub flex: FlexOptions,
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
    /// on disk (per [`ServiceConfig::wal_fsync`]) *before* its answer is
    /// released, and a restart over the same path replays the log into
    /// bitwise-identical ledger state. A WAL failure rejects the query
    /// fail-closed rather than admitting it uncharged or releasing an
    /// answer whose charge is not on disk. Durability knobs never feed
    /// noise seeds: released bytes are identical with or without a WAL.
    pub wal_path: Option<PathBuf>,
    /// When the WAL syncs to durable storage: [`FsyncPolicy::Always`]
    /// (the default — the charge behind every released answer survives
    /// a crash), `EveryN(n)` for group durability, or `Never` to leave
    /// syncing to the OS. Ignored without [`ServiceConfig::wal_path`].
    pub wal_fsync: FsyncPolicy,
    /// Compact the WAL into a snapshot record once this many records
    /// accumulate since the last snapshot (0 disables compaction).
    /// Ignored without [`ServiceConfig::wal_path`].
    pub wal_snapshot_threshold: u64,
    /// Queued jobs allowed per worker: admission refuses new work once
    /// `workers × queue_depth` jobs are waiting (the charge is refunded
    /// and the caller gets the retryable [`ServiceError::Overloaded`]).
    /// 0 means unbounded.
    pub queue_depth: usize,
    /// Per-query deadline, measured from submission. A job past its
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
            flex: FlexOptions::new(),
            seed: None,
            wal_path: None,
            wal_fsync: FsyncPolicy::Always,
            wal_snapshot_threshold: 4096,
            queue_depth: 1024,
            query_timeout: None,
        }
    }
}

/// A differentially-private answer released to an analyst.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// The analyst the answer was released to.
    pub analyst: String,
    /// Canonical SQL the answer was computed for (also the cache key).
    pub canonical_sql: String,
    /// Output column names.
    pub columns: Vec<String>,
    /// Noised rows (label cells pass through, aggregates carry noise).
    pub rows: Vec<Vec<Value>>,
    /// Whether this answer was served from the noisy-answer cache. A
    /// request coalesced onto an identical in-flight computation reports
    /// `false` here (the answer was freshly computed, just not charged to
    /// this request) — check `charged == (0.0, 0.0)` for "free".
    pub from_cache: bool,
    /// `(ε, δ)` charged to the analyst for this answer; `(0, 0)` on a
    /// cache hit or a coalesced request.
    pub charged: (f64, f64),
    /// Number of joins in the executed query (drives the elastic-
    /// sensitivity join analysis; surfaced for telemetry).
    pub join_count: usize,
    /// Pipeline stage timings; `None` for cache hits (nothing ran).
    pub timings: Option<FlexTimings>,
    /// The full per-query trace — every serving span (parse,
    /// canonicalize, admission, queue wait, analysis, execution,
    /// perturbation) plus the execution engine's routing record. `None`
    /// for cache hits and coalesced requests: this request computed
    /// nothing, so there is no trace to attribute to it.
    pub trace: Option<QueryTrace>,
}

impl ServiceResponse {
    /// The noised scalar of a 1×1 result.
    pub fn scalar(&self) -> Option<f64> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            self.rows[0][0].as_f64()
        } else {
            None
        }
    }
}

/// Handle to a request; [`Ticket::wait`] blocks for the outcome.
#[derive(Debug)]
pub struct Ticket(Outcome);

// `Ready` is nearly every ticket and is consumed at once; boxing it would
// put an allocation back on the cache-hit path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Outcome {
    /// Resolved inside `submit` — a cache hit, a rejection, a parse
    /// error: nothing crosses a thread, so no channel is built.
    Ready(ServiceResult<ServiceResponse>),
    /// Queued for a worker, or parked on an identical in-flight
    /// computation; whoever computes the release sends the outcome here.
    Pending(Receiver<ServiceResult<ServiceResponse>>),
}

impl Ticket {
    fn ready(outcome: ServiceResult<ServiceResponse>) -> Self {
        Ticket(Outcome::Ready(outcome))
    }

    /// Block until the request resolves (released answer, rejection, or
    /// [`ServiceError::Shutdown`] if the service dropped first).
    pub fn wait(self) -> ServiceResult<ServiceResponse> {
        match self.0 {
            Outcome::Ready(outcome) => outcome,
            Outcome::Pending(reply) => reply.recv().unwrap_or(Err(ServiceError::Shutdown)),
        }
    }
}

type Respond = Sender<ServiceResult<ServiceResponse>>;

struct Job {
    analyst: String,
    query: Query,
    key: CacheKey,
    params: PrivacyParams,
    charge: Charge,
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
    /// The bounded job queue every worker pops from.
    queue: WorkQueue<Job>,
    telemetry: Telemetry,
    flex: FlexOptions,
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
}

/// A concurrent multi-analyst DP query service over one database.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
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
    for name in names {
        let Some(table) = db.table(name) else {
            continue;
        };
        acc = prf::siphash24([acc, table.rows.len() as u64], name.as_bytes());
        buf.clear();
        buf.push(db.is_public(name) as u8);
        for col in &table.schema.columns {
            buf.extend_from_slice(col.name.as_bytes());
            buf.push(0);
            buf.extend_from_slice(col.data_type.name().as_bytes());
            buf.push(0);
        }
        acc = prf::siphash24([acc, table.schema.columns.len() as u64], &buf);
        for row in &table.rows {
            buf.clear();
            for v in row {
                match v {
                    Value::Null => buf.push(0),
                    Value::Bool(b) => buf.extend_from_slice(&[1, *b as u8]),
                    Value::Int(i) => {
                        buf.push(2);
                        buf.extend_from_slice(&i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        buf.push(3);
                        buf.extend_from_slice(&f.to_bits().to_le_bytes());
                    }
                    Value::Str(s) => {
                        buf.push(4);
                        buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
                        buf.extend_from_slice(s.as_bytes());
                    }
                }
            }
            acc = prf::siphash24([acc, row.len() as u64], &buf);
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
        // Bind the FLEX options too: they steer the analysis (e.g. the
        // public-table optimization), so changing them can change a
        // release's noise scale just like a data change can.
        let db_fingerprint = prf::siphash24(
            [db_fingerprint(&db), 0x6f70_7473],
            format!("{:?}", config.flex).as_bytes(),
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
            // `queue_depth` is per worker; the queue is shared.
            queue: WorkQueue::new(workers.saturating_mul(config.queue_depth)),
            telemetry,
            flex: config.flex.clone(),
            noise_key,
            db_fingerprint,
            recovery,
            query_timeout: config.query_timeout,
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
        Ok(QueryService { shared, workers })
    }

    /// Submit a query for `analyst`, returning a [`Ticket`] immediately.
    ///
    /// Cache hits, rejections and parse errors resolve the ticket here,
    /// without touching the worker pool or building a channel; everything
    /// else is answered asynchronously.
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
    /// assert_eq!(answer.columns, vec!["count"]);
    /// assert!(answer.scalar().is_some());       // noised count, not 50
    /// assert_eq!(svc.ledger().spent("alice").0, 1.0);
    /// ```
    pub fn submit(&self, analyst: &str, sql: &str, params: PrivacyParams) -> Ticket {
        let shared = &self.shared;
        shared.telemetry.incr(Metric::Submitted);

        let started = Instant::now();
        let parsed = match parse_query(sql) {
            Ok(q) => q,
            Err(e) => {
                shared.telemetry.incr(Metric::Failed);
                return Ticket::ready(Err(ServiceError::from(e)));
            }
        };
        let parse_span = started.elapsed();
        let canon_started = Instant::now();
        let query = canonicalize(&parsed);
        let canonical_sql = print_query(&query);
        let canonicalize_span = canon_started.elapsed();
        let key = CacheKey::new(canonical_sql.clone(), params);

        // Single-flight section: cache lookup, coalescing, and admission
        // are decided under ONE cache shard-lock acquisition (the ledger
        // charge runs inside it — lock order: cache shard, then ledger
        // shard), so concurrent identical submissions can never each
        // charge budget for the same release. The charge is written to
        // the WAL in there and synced by nobody: no lock waits for the
        // disk.
        let admission_started = Instant::now();
        let mut parked = None;
        let decision = shared.cache.admit(
            &key,
            // Runs only when the request coalesces.
            || {
                let (tx, rx) = channel();
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
            // Serving an already-released answer is post-processing: free.
            Admission::Hit(hit) => {
                shared.telemetry.incr(Metric::CacheHits);
                return Ticket::ready(Ok(ServiceResponse {
                    analyst: analyst.to_string(),
                    canonical_sql,
                    columns: hit.columns.clone(),
                    rows: hit.rows.clone(),
                    from_cache: true,
                    charged: (0.0, 0.0),
                    join_count: hit.join_count,
                    timings: None,
                    trace: None,
                }));
            }
            // An identical query is already in flight: this request was
            // parked to piggyback on its release instead of paying for a
            // duplicate computation. Counted as coalesced only — not as
            // a miss — so misses stay exactly "requests that went to
            // admission control".
            Admission::Coalesced => {
                shared.telemetry.incr(Metric::Coalesced);
                let reply = parked.expect("a coalesced request parked its waiter");
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

        let (tx, reply) = channel();
        let charge_lsn = charge.lsn;
        let job = Job {
            analyst: analyst.to_string(),
            query,
            key,
            params,
            charge,
            respond: tx,
            parse: parse_span,
            canonicalize: canonicalize_span,
            admission: admission_started.elapsed(),
            enqueued_at: Instant::now(),
            // The deadline clock starts at submission, not at dequeue:
            // time spent waiting in a saturated queue counts against it.
            deadline: shared.query_timeout.map(|t| started + t),
        };
        shared.telemetry.record_enqueued();
        match shared.queue.push(job) {
            // Sync the charge on this thread while a worker runs the
            // query: the one disk wait of a release overlaps its
            // execution, and the worker's barrier finds it done. A
            // failure is the worker's to report — its barrier fails too.
            Ok(()) => {
                let _ = shared.ledger.barrier_at(charge_lsn);
            }
            // The queue is at capacity: shed the load
            // instead of letting the backlog grow without bound. The
            // charge is refunded (nothing will be released) and the
            // caller gets a retryable error.
            Err(PushError::Full(job)) => shed_job(shared, job),
            Err(PushError::Closed(job)) => abort_job(shared, job),
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

    /// Bytes held by the noisy-answer cache (lock-free read).
    pub fn cached_bytes(&self) -> usize {
        self.shared.cache.bytes()
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
        // A clean stop leaves nothing in the page cache: the trailing
        // `Settle`s, and whatever `EveryN`/`Never` had not synced yet.
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

fn worker_loop(shared: &Shared) {
    // `None` only after close + full drain, so admitted (charged) jobs
    // always run.
    while let Some(job) = shared.queue.pop() {
        shared.telemetry.record_dequeued();
        run_job(shared, job);
    }
}

/// An admitted job that will release nothing: refund the charge — the
/// refund always precedes a release and never follows a settle — free
/// the key's in-flight slot, and give the caller and every piggybacked
/// waiter the same error.
fn abandon(shared: &Shared, job: &Job, err: ServiceError) {
    shared.ledger.refund(&job.charge);
    for (_, waiter) in shared.cache.fail(&job.key) {
        let _ = waiter.send(Err(err.clone()));
    }
    let _ = job.respond.send(Err(err));
}

/// An admitted job that can no longer reach a worker (queue closed).
fn abort_job(shared: &Shared, job: Job) {
    shared.telemetry.record_dequeued();
    shared.telemetry.incr(Metric::Failed);
    abandon(shared, &job, ServiceError::Shutdown);
}

/// An admitted job shed at the queue (at capacity): the caller (and any
/// piggybacked waiters) should retry later.
fn shed_job(shared: &Shared, job: Job) {
    shared.telemetry.record_dequeued();
    shared.telemetry.incr(Metric::Shed);
    abandon(shared, &job, ServiceError::Overloaded);
}

/// A job found past its deadline (at dequeue or between pipeline
/// stages), reported distinctly from failures.
fn timeout_job(shared: &Shared, job: &Job) {
    shared.telemetry.incr(Metric::Timeouts);
    let timeout = shared.query_timeout.unwrap_or_default();
    abandon(shared, job, ServiceError::Timeout { timeout });
}

fn run_job(shared: &Shared, job: Job) {
    let queue_span = job.enqueued_at.elapsed();
    // Deadline check at dequeue: a job that waited out its whole budget
    // in a saturated queue is abandoned before any computation. The
    // refund is safe — nothing has been released.
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            timeout_job(shared, &job);
            return;
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
    let sql = job.key.canonical_sql().as_bytes();
    let mut msg = Vec::with_capacity(sql.len() + 24);
    msg.extend_from_slice(sql);
    msg.extend_from_slice(&job.params.epsilon.to_bits().to_le_bytes());
    msg.extend_from_slice(&job.params.delta.to_bits().to_le_bytes());
    msg.extend_from_slice(&shared.db_fingerprint.to_le_bytes());
    let noise_seed = prf::siphash24(shared.noise_key, &msg);

    // A panicking pipeline must not take the worker (and every queued
    // job's budget) down with it: catch, refund, report.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        failpoint::hit(job.key.canonical_sql());
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
            &shared.flex,
            job.deadline,
        )
    }));

    match outcome {
        Ok(Ok(result)) => {
            // The durability barrier: no answer — to the owner, a
            // coalesced waiter or the cache — exists before its charge
            // is on disk. Usually a no-op (the submitter's sync landed
            // while the query ran). Failing here is still before any
            // release, so the refund in `abandon` is sound.
            let durability = match shared.ledger.wal() {
                Some(_) => {
                    let waiting = Instant::now();
                    if let Err(e) = shared.ledger.barrier(&job.charge) {
                        shared.telemetry.incr(Metric::Failed);
                        abandon(shared, &job, e);
                        return;
                    }
                    waiting.elapsed()
                }
                None => Duration::ZERO,
            };
            // The answer is about to be released: the charge is final
            // and no longer refundable.
            shared.ledger.settle(&job.charge);
            let answer = CachedAnswer {
                columns: result.columns.clone(),
                rows: result.rows.clone(),
                join_count: result.join_count,
            };
            // Publish the answer and collect the piggybacked waiters in
            // one shard-lock acquisition: at every instant a concurrent
            // submit sees the key as either pending or released, so
            // exactly one computation is paid.
            let waiters = shared.cache.complete(job.key.clone(), answer);
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
            shared.telemetry.record_release(SlowQuery {
                analyst: job.analyst.clone(),
                canonical_sql: job.key.canonical_sql().to_string(),
                epsilon: job.charge.epsilon,
                delta: job.charge.delta,
                trace,
            });
            for (analyst, waiter) in waiters {
                let _ = waiter.send(Ok(ServiceResponse {
                    analyst,
                    canonical_sql: job.key.canonical_sql().to_string(),
                    columns: result.columns.clone(),
                    rows: result.rows.clone(),
                    // Piggybacked on the computation, not served from the
                    // cache — free, but honest about the path.
                    from_cache: false,
                    charged: (0.0, 0.0),
                    join_count: result.join_count,
                    timings: None,
                    trace: None,
                }));
            }
            let _ = job.respond.send(Ok(ServiceResponse {
                analyst: job.analyst,
                canonical_sql: job.key.canonical_sql().to_string(),
                columns: result.columns,
                rows: result.rows,
                from_cache: false,
                charged: (job.charge.epsilon, job.charge.delta),
                join_count: result.join_count,
                timings: Some(result.timings),
                trace: Some(trace),
            }));
        }
        // A mid-pipeline deadline expiry is a timeout, not a failure:
        // refund and report it under its own counter.
        Ok(Err(flex_core::FlexError::DeadlineExceeded { .. })) => {
            timeout_job(shared, &job);
        }
        Ok(Err(e)) => {
            // Nothing was released: hand the budget back. Waiters get the
            // same (deterministic) failure without being charged.
            shared.telemetry.incr(Metric::Failed);
            abandon(shared, &job, ServiceError::Flex(e));
        }
        Err(_panic) => {
            shared.telemetry.incr(Metric::Failed);
            shared.telemetry.incr(Metric::WorkerPanics);
            let err = ServiceError::Flex(flex_core::FlexError::Db(
                "query worker panicked while computing the release".to_string(),
            ));
            abandon(shared, &job, err);
        }
    }
}

/// Test-only failpoint: the pipeline panics on a release whose canonical
/// SQL contains [`failpoint::PANIC`] (the pipeline runs on a worker's
/// thread, so the trigger travels in the query — as a table alias, say).
#[cfg(test)]
mod failpoint {
    pub(super) const PANIC: &str = "flex_failpoint_panic";

    pub(super) fn hit(canonical_sql: &str) {
        if canonical_sql.contains(PANIC) {
            panic!("failpoint: pipeline panic");
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

    /// Computed responses carry the full per-query trace; cache hits
    /// (which compute nothing) carry none. The same trace feeds the
    /// telemetry histograms and the slow-query log.
    #[test]
    fn responses_carry_query_traces() {
        let svc = service(ServiceConfig::default());
        let r = svc
            .query("alice", "SELECT COUNT(*) FROM trips", params(0.5))
            .unwrap();
        let trace = r.trace.expect("computed response has a trace");
        assert_eq!(trace.exec.rows_scanned, 500);
        assert_eq!(trace.exec.rows_emitted, 1);
        assert!(trace.total() > std::time::Duration::ZERO);
        let hit = svc
            .query("bob", "SELECT COUNT(*) FROM trips", params(0.5))
            .unwrap();
        assert!(hit.from_cache && hit.trace.is_none());

        // A nine-leaf join tree is one more query to the executor: its
        // trace counts every leaf scan and all eight joins.
        let wide = svc
            .query(
                "alice",
                "SELECT COUNT(*) FROM trips t1 JOIN trips t2 ON t1.id = t2.id \
                 JOIN trips t3 ON t2.id = t3.id JOIN trips t4 ON t3.id = t4.id \
                 JOIN trips t5 ON t4.id = t5.id JOIN trips t6 ON t5.id = t6.id \
                 JOIN trips t7 ON t6.id = t7.id JOIN trips t8 ON t7.id = t8.id \
                 JOIN trips t9 ON t8.id = t9.id",
                params(0.5),
            )
            .unwrap();
        let exec = wide.trace.unwrap().exec;
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
        assert!(svc.cached_bytes() > 0);
        let t = svc.telemetry();
        assert_eq!(t.cache_bytes, svc.cached_bytes() as u64, "snapshot: {t}");
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
        assert!(leaders[0].trace.is_some(), "the leader's release computed");
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
    /// the charge is logged before anything is computed, and by the time
    /// the caller holds an outcome its settle (a release) or its refund
    /// (anything else) is logged too.
    #[test]
    fn wal_holds_settle_or_refund_before_the_caller_sees_the_outcome() {
        use crate::fault::FaultStorage;
        use crate::wal::WalOp;
        let svc = QueryService::with_storage(
            test_db(),
            ServiceConfig::default(),
            Box::new(FaultStorage::new()),
        )
        .unwrap();
        let log = || svc.ledger().wal().unwrap().read_ops().unwrap().0;
        let p = params(0.5);
        svc.query("a", "SELECT COUNT(*) FROM trips", p).unwrap();
        assert!(
            matches!(&log()[..], [WalOp::Charge { id, .. }, WalOp::Settle { id: settled, .. }] if id == settled),
            "log: {:?}",
            log()
        );
        svc.query("a", "SELECT id FROM trips", p).unwrap_err();
        assert!(
            matches!(&log()[2..], [WalOp::Charge { id, .. }, WalOp::Refund { id: refunded, .. }] if id == refunded),
            "log: {:?}",
            log()
        );
    }

    /// Overload shedding end to end: one worker, a depth cap of one, and
    /// a burst of expensive distinct queries. Shed requests get the
    /// retryable `Overloaded` error and a full refund — final spend is
    /// exactly the sum of successfully released charges.
    #[test]
    fn saturated_queues_shed_with_refund() {
        let svc = service(ServiceConfig {
            workers: 1,
            queue_depth: 1,
            policy: LedgerPolicy::sequential(1e9, 1.0),
            ..ServiceConfig::default()
        });
        let p = params(1.0);
        let tickets: Vec<Ticket> = (0..24)
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
        assert!(shed >= 1, "a 24-deep burst into capacity 2 must shed");
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

    /// A zero depth cap means unbounded queues: the same burst never
    /// sheds.
    #[test]
    fn unbounded_queue_never_sheds() {
        let svc = service(ServiceConfig {
            workers: 1,
            queue_depth: 0,
            policy: LedgerPolicy::sequential(1e9, 1.0),
            ..ServiceConfig::default()
        });
        let p = params(0.5);
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| {
                svc.submit(
                    "a",
                    &format!("SELECT COUNT(*) FROM trips WHERE id < {i}"),
                    p,
                )
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(svc.telemetry().shed, 0);
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
        assert!(
            t.wal_appends >= 4,
            "2 charges+settles, 1 charge+refund: {t}"
        );
        assert!(t.wal_fsyncs >= 1, "snapshot: {t}");
        assert_eq!(t.wal_errors, 0);
        drop(svc);

        // "Restart" over the same durable bytes.
        let svc2 = QueryService::with_storage(test_db(), cfg(), Box::new(storage.clone())).unwrap();
        let report = svc2.recovery_report();
        assert!(report.replayed_records >= 6, "report: {report:?}");
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
}
