//! Service telemetry: lock-free counters, log-bucketed latency
//! histograms, per-query trace spans and a bounded slow-query log —
//! snapshotable for ops dashboards and exported through
//! [`crate::export`].
//!
//! Everything on the query path is a relaxed atomic update: counters and
//! histogram buckets never contend with query execution. The only lock
//! is around the slow-query log, taken once per *completed* query to
//! insert into a bounded, sorted vector.

use flex_db::ExecTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Buckets per latency histogram: one per power of two of nanoseconds,
/// covering the full `u64` range (bucket `i` spans `[2^i, 2^(i+1))` ns;
/// sub-nanosecond durations land in bucket 0).
pub const LATENCY_BUCKETS: usize = 64;

/// Entries the slow-query log retains (the slowest completed queries).
pub const SLOW_LOG_CAPACITY: usize = 16;

/// A lock-free log-bucketed (HDR-style) latency histogram. `record` is
/// one relaxed `fetch_add` on the bucket for `floor(log2(ns))` plus one
/// on the running sum — no locks, no allocation, so the query path never
/// contends on it. Quantiles come out of a [`LatencySnapshot`] with at
/// most one power-of-two of overestimate (a quantile reports its
/// bucket's upper bound).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a nanosecond value: `floor(log2(ns))`, with 0 ns
/// clamped into bucket 0.
fn bucket_of(ns: u64) -> usize {
    63 - ns.max(1).leading_zeros() as usize
}

impl LatencyHistogram {
    /// Record one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Count per power-of-two bucket (`counts[i]` holds values in
    /// `[2^i, 2^(i+1))` ns).
    pub counts: [u64; LATENCY_BUCKETS],
    /// Sum of all recorded values, for exact means in exposition.
    pub sum_ns: u64,
}

impl LatencySnapshot {
    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total of the recorded values.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns)
    }

    /// Exact mean of the recorded values (zero when empty).
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.checked_div(self.count()).unwrap_or(0))
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper bound
    /// of the bucket holding the rank-`⌈q·n⌉` observation — an
    /// overestimate of at most one power of two. Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Duration::from_nanos(upper);
            }
        }
        Duration::from_nanos(u64::MAX)
    }

    /// Median latency (upper bound of the median's bucket).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

/// The structured trace of one completed query: every span of the
/// serving pipeline — parse, canonicalize, admission, queue wait, the
/// three FLEX stages, the durability barrier — plus the execution
/// layer's own [`ExecTrace`]
/// (top-K pushdown, morsel/worker/row statistics, join order). Spans
/// are wall-clock, measured by the stage that ran
/// them; `total()` is their sum, i.e. time attributable to the pipeline
/// rather than client-observed latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTrace {
    /// SQL text → AST.
    pub parse: Duration,
    /// AST → canonical form (the cache/noise-seed key).
    pub canonicalize: Duration,
    /// Cache lookup, coalescing and budget admission under the
    /// single-flight lock.
    pub admission: Duration,
    /// Wait between enqueue and a worker picking the job up.
    pub queue: Duration,
    /// Elastic-sensitivity analysis.
    pub analysis: Duration,
    /// True-query execution on the database.
    pub execution: Duration,
    /// Smoothing + noise + histogram assembly.
    pub perturbation: Duration,
    /// Wait at the durability barrier, after perturbation and before
    /// release, for the charge's WAL record to reach disk: the disk, not
    /// the engine, was slow. Zero without a WAL, and near zero when the
    /// submitter's sync landed while the query ran.
    pub durability: Duration,
    /// The execution engine's own record of how the query ran.
    pub exec: ExecTrace,
}

impl QueryTrace {
    /// A trace around `exec` with every span at zero (the base for
    /// struct-update syntax in benches and tests).
    pub fn new(exec: ExecTrace) -> Self {
        QueryTrace {
            parse: Duration::ZERO,
            canonicalize: Duration::ZERO,
            admission: Duration::ZERO,
            queue: Duration::ZERO,
            analysis: Duration::ZERO,
            execution: Duration::ZERO,
            perturbation: Duration::ZERO,
            durability: Duration::ZERO,
            exec,
        }
    }

    /// Total pipeline time across all spans.
    pub fn total(&self) -> Duration {
        self.parse
            + self.canonicalize
            + self.admission
            + self.queue
            + self.analysis
            + self.execution
            + self.perturbation
            + self.durability
    }
}

/// One slow-query log entry. Privacy stance: only the *canonical query
/// text*, privacy cost and trace spans are retained — never result rows,
/// true values, or raw data; the canonical SQL is already visible to the
/// service's clients as `ServiceResponse::canonical_sql`.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// The analyst who ran it.
    pub analyst: String,
    /// The canonical query text.
    pub canonical_sql: String,
    /// `(ε, δ)` charged for the release.
    pub epsilon: f64,
    /// The `δ` component of the charge.
    pub delta: f64,
    /// The query's full pipeline trace.
    pub trace: QueryTrace,
}

impl SlowQuery {
    /// Total pipeline time (the slow-log's sort key).
    pub fn total(&self) -> Duration {
        self.trace.total()
    }
}

/// How a scalar metric is exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic count (Prometheus `counter`).
    Counter,
    /// A point-in-time value (Prometheus `gauge`).
    Gauge,
}

impl Kind {
    /// The Prometheus `# TYPE` of a metric of this kind.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One row of [`SCALARS`]: everything exposition knows about a scalar.
#[derive(Debug, Clone, Copy)]
pub struct ScalarMetric {
    /// [`TelemetrySnapshot`] field name and JSON key.
    pub key: &'static str,
    /// The handle [`Telemetry::incr`] and [`Telemetry::set`] take.
    pub metric: Metric,
    /// Prometheus metric name.
    pub prometheus: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// `Display` label.
    pub label: &'static str,
    /// Prometheus `# HELP` text (also the field's rustdoc summary).
    pub help: &'static str,
    /// Reads the value out of a snapshot.
    pub get: fn(&TelemetrySnapshot) -> u64,
}

/// One row of [`LATENCIES`]: a histogram over one span of the
/// [`QueryTrace`], exposed as a Prometheus summary.
#[derive(Debug, Clone, Copy)]
pub struct LatencyMetric {
    /// [`TelemetrySnapshot`] field name, JSON key and `Display` label.
    pub key: &'static str,
    /// Prometheus metric name.
    pub prometheus: &'static str,
    /// Prometheus `# HELP` text (also the field's rustdoc summary).
    pub help: &'static str,
    /// The span of a completed query this histogram records.
    pub span: fn(&QueryTrace) -> Duration,
    /// Reads the histogram out of a snapshot.
    pub get: fn(&TelemetrySnapshot) -> &LatencySnapshot,
}

/// The one place a service metric is declared. Each `scalars` row —
/// `Variant field: Kind, "prometheus_name", "display label", "help";` —
/// yields a [`Metric`] variant (the handle increment sites use), an
/// atomic in [`Telemetry`], a `pub field: u64` of [`TelemetrySnapshot`]
/// filled by [`Telemetry::snapshot`], and a [`SCALARS`] row that
/// `Display`, Prometheus and JSON exposition loop over. `latencies` rows
/// do the same for the histograms. JSON keys follow row order;
/// Prometheus groups rows by [`Kind`], keeping row order within a kind.
macro_rules! metric_table {
    (
        scalars { $(
            $(#[$sdoc:meta])*
            $variant:ident $field:ident: $kind:ident, $prom:literal, $label:literal, $help:literal;
        )* }
        latencies { $(
            $lfield:ident: $lprom:literal, $lhelp:literal, $span:expr;
        )* }
    ) => {
        /// Handle of one scalar metric: what [`Telemetry::incr`] and
        /// [`Telemetry::set`] take, and the row's index in [`SCALARS`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $( #[doc = $help] $variant, )*
        }

        /// Every scalar metric, in JSON key order.
        pub const SCALARS: &[ScalarMetric] = &[ $( ScalarMetric {
            key: stringify!($field),
            metric: Metric::$variant,
            prometheus: $prom,
            kind: Kind::$kind,
            label: $label,
            help: $help,
            get: |s| s.$field,
        }, )* ];

        /// Every latency histogram, in exposition order.
        pub const LATENCIES: &[LatencyMetric] = &[ $( LatencyMetric {
            key: stringify!($lfield),
            prometheus: $lprom,
            help: $lhelp,
            span: $span,
            get: |s| &s.$lfield,
        }, )* ];

        /// Point-in-time view of a [`Telemetry`].
        #[derive(Debug, Clone, PartialEq)]
        pub struct TelemetrySnapshot {
            $( #[doc = $help] $(#[$sdoc])* pub $field: u64, )*
            $( #[doc = $lhelp] pub $lfield: LatencySnapshot, )*
            /// The slowest completed queries (canonical SQL, privacy cost
            /// and trace only — never data), slowest first, at most
            /// [`SLOW_LOG_CAPACITY`] entries.
            pub slow_queries: Vec<SlowQuery>,
        }

        impl Telemetry {
            /// A consistent-enough point-in-time copy of all counters,
            /// histograms and the slow-query log.
            pub fn snapshot(&self) -> TelemetrySnapshot {
                let mut latencies = self.latencies.iter().map(LatencyHistogram::snapshot);
                TelemetrySnapshot {
                    $( $field: self.cell(Metric::$variant).load(Ordering::Relaxed), )*
                    $( $lfield: latencies.next().expect("one histogram per LATENCIES row"), )*
                    slow_queries: self.slow.lock().map(|log| log.clone()).unwrap_or_default(),
                }
            }
        }
    };
}

metric_table! {
    scalars {
        /// Includes requests later rejected or failed.
        Submitted submitted: Counter, "flex_queries_submitted_total", "submitted",
            "Requests accepted by the service front door.";
        Completed completed: Counter, "flex_queries_completed_total", "completed",
            "Queries computed through the full DP pipeline.";
        CacheHits cache_hits: Counter, "flex_cache_hits_total", "cache hits",
            "Requests served from the noisy-answer cache (zero budget).";
        /// Disjoint from `coalesced`: a piggybacked request never reaches
        /// admission and is counted only as coalesced.
        CacheMisses cache_misses: Counter, "flex_cache_misses_total", "cache misses",
            "Requests that missed the cache and went to admission.";
        Coalesced coalesced: Counter, "flex_coalesced_total", "coalesced",
            "Requests piggybacked on an identical in-flight computation.";
        RejectedBudget rejected_budget: Counter, "flex_budget_rejected_total", "budget rejects",
            "Requests rejected by budget admission control.";
        Failed failed: Counter, "flex_failed_total", "failed",
            "Admitted requests whose pipeline failed (charge refunded).";
        /// The caller gets a retryable error.
        Shed shed: Counter, "flex_shed_total", "shed (overload)",
            "Admitted requests shed because every worker queue was full (charge refunded).";
        /// No noised answer was produced.
        Timeouts timeouts: Counter, "flex_timeouts_total", "timeouts",
            "Admitted requests abandoned at their deadline (charge refunded).";
        /// The worker kept serving; the waiting client got an error and a
        /// refund.
        WorkerPanics worker_panics: Counter, "flex_worker_panics_total", "worker panics",
            "Worker-thread panics caught by the job harness.";
        /// Process-wide, reconciled at snapshot time. Nonzero means some
        /// thread panicked while holding a service lock and the service
        /// recovered.
        LockPoisonRecoveries lock_poison_recoveries: Counter,
            "flex_lock_poison_recoveries_total", "lock recoveries",
            "Poisoned-mutex recoveries since process start.";
        /// 0 when the service runs without a WAL. This and the other
        /// `wal_*` figures are reconciled from the WAL's own atomics at
        /// snapshot time, so reading metrics never takes the writer lock.
        WalAppends wal_appends: Counter, "flex_wal_appends_total", "wal appends",
            "Records appended to the budget write-ahead log.";
        /// Cadence depends on [`crate::wal::FsyncPolicy`].
        WalFsyncs wal_fsyncs: Counter, "flex_wal_fsyncs_total", "wal fsyncs",
            "Durability syncs performed by the budget write-ahead log.";
        /// Any nonzero value means the log is poisoned until compaction.
        WalErrors wal_errors: Counter, "flex_wal_errors_total", "wal errors",
            "Budget WAL append/sync failures (charges rejected fail-closed).";
        /// 0 for a fresh log or no WAL.
        WalRecoveryReplayed wal_recovery_replayed: Gauge,
            "flex_wal_recovery_replayed_records", "wal replayed",
            "WAL records replayed into the ledger at the last startup.";
        /// As reported by the pipeline itself (a nested execution's
        /// pushdown counts for its query); byte-identical results,
        /// surfaced so dashboards can see how often the pushdown engages.
        TopkHits topk_hits: Counter, "flex_topk_pushdown_total", "top-K pushdowns",
            "Vectorized queries whose ORDER BY/LIMIT tail ran as top-K.";
        /// Morsel-driven parallelism; 1 = sequential execution. The
        /// service re-records it on every snapshot, so retuning the
        /// shared `Database` at runtime cannot leave the gauge stale.
        ExecParallelism exec_parallelism: Gauge, "flex_exec_parallelism", "exec workers",
            "Per-query worker budget of the vectorized engine.";
        QueueDepth queue_depth: Gauge, "flex_queue_depth", "queue depth",
            "Jobs currently queued for a pipeline worker.";
        MaxQueueDepth max_queue_depth: Gauge, "flex_queue_depth_max", "queue depth max",
            "High-water mark of the job queue depth.";
        /// Key text + serialized result per entry, reconciled from the
        /// cache's per-shard atomics at snapshot time.
        CacheBytes cache_bytes: Gauge, "flex_cache_bytes", "cache bytes",
            "Bytes held by the noisy-answer cache.";
        /// Evicted answers recompute to identical bytes — eviction never
        /// moves noise seeds.
        CacheEvictions cache_evictions: Counter, "flex_cache_evictions_total", "cache evictions",
            "Answers evicted from the noisy-answer cache by its bounds.";
    }
    latencies {
        latency: "flex_query_latency_seconds",
            "End-to-end pipeline latency per completed query.", QueryTrace::total;
        analysis_latency: "flex_analysis_latency_seconds",
            "Elastic-sensitivity analysis latency per completed query.", |t| t.analysis;
        execution_latency: "flex_execution_latency_seconds",
            "True-query execution latency per completed query.", |t| t.execution;
        perturbation_latency: "flex_perturbation_latency_seconds",
            "Smoothing and noise latency per completed query.", |t| t.perturbation;
        durability_latency: "flex_durability_latency_seconds",
            "Wait for the charge's WAL record to reach disk per completed query.",
            |t| t.durability;
    }
}

/// Counters, gauges, histograms and the slow-query log for one service
/// instance, laid out by [`SCALARS`] and [`LATENCIES`]. All query-path
/// updates are relaxed atomics — telemetry never contends with the query
/// path (the slow-log mutex is taken once per completed query, off the
/// caller's critical path).
#[derive(Debug, Default)]
pub struct Telemetry {
    scalars: [AtomicU64; SCALARS.len()],
    latencies: [LatencyHistogram; LATENCIES.len()],
    slow: Mutex<Vec<SlowQuery>>,
}

impl Telemetry {
    fn cell(&self, metric: Metric) -> &AtomicU64 {
        &self.scalars[metric as usize]
    }

    /// Count one event on a counter.
    pub fn incr(&self, metric: Metric) {
        self.cell(metric).fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrite a gauge, or reconcile a counter whose live value is an
    /// atomic on another component (cache, WAL, lock-poison count): the
    /// service re-records those at snapshot time, so reading metrics
    /// never touches a hot-path lock.
    pub fn set(&self, metric: Metric, value: u64) {
        self.cell(metric).store(value, Ordering::Relaxed);
    }

    /// Record one completed (computed, about-to-release) query: bumps
    /// the completion counter, folds the trace into every latency
    /// histogram, and counts the top-K pushdown flag. Cache hits and
    /// coalesced requests execute nothing and must not be recorded here.
    pub fn record_completed(&self, trace: &QueryTrace) {
        self.incr(Metric::Completed);
        for (histogram, row) in self.latencies.iter().zip(LATENCIES) {
            histogram.record((row.span)(trace));
        }
        if trace.exec.topk {
            self.incr(Metric::TopkHits);
        }
    }

    /// Offer one released query to the slow-query log, which keeps the
    /// [`SLOW_LOG_CAPACITY`] slowest entries sorted slowest-first.
    pub fn record_release(&self, entry: SlowQuery) {
        let Ok(mut log) = self.slow.lock() else {
            return;
        };
        let pos = log.partition_point(|e| e.total() >= entry.total());
        if pos < SLOW_LOG_CAPACITY {
            log.insert(pos, entry);
            log.truncate(SLOW_LOG_CAPACITY);
        }
    }

    /// Count one job entering the worker queue, maintaining the
    /// high-water mark.
    pub fn record_enqueued(&self) {
        // `fetch_max` keeps the high-water mark correct under concurrent
        // submitters — a read-then-store would let two racing enqueues
        // both publish a stale maximum.
        let depth = self
            .cell(Metric::QueueDepth)
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        self.cell(Metric::MaxQueueDepth)
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Count one job leaving the worker queue.
    pub fn record_dequeued(&self) {
        self.cell(Metric::QueueDepth)
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// `part / whole`, 0 when nothing has been counted yet.
fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl TelemetrySnapshot {
    /// Cache hit rate over all cache lookups, in `[0, 1]`. Lookups are
    /// hits, misses, and coalesced requests (which looked up the cache
    /// and missed, even though they never reached admission).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses + self.coalesced;
        share(self.cache_hits, lookups)
    }

    /// WAL records written per durability sync (`wal_appends` ÷
    /// `wal_fsyncs`; 0 before the first sync): 1 is a sync per record,
    /// and group commit and never-synced settles push it up — about 2
    /// for a lone client under `FsyncPolicy::Always`.
    pub fn wal_records_per_fsync(&self) -> f64 {
        share(self.wal_appends, self.wal_fsyncs)
    }
}

impl std::fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "service telemetry")?;
        for m in SCALARS {
            writeln!(f, "  {:<18}{:>10}", m.label, (m.get)(self))?;
        }
        write!(
            f,
            "  hit rate          {:>9.1}% of lookups\n  wal records/fsync {:>10.2}",
            100.0 * self.hit_rate(),
            self.wal_records_per_fsync()
        )?;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        for m in LATENCIES {
            let l = (m.get)(self);
            write!(
                f,
                "\n  {:<22}p50 {:>9.3} ms  p95 {:>9.3} ms  p99 {:>9.3} ms  sum {:>10.3} ms",
                m.key,
                ms(l.p50()),
                ms(l.p95()),
                ms(l.p99()),
                ms(l.sum())
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A QueryTrace with the given stage timings
    /// (parse/canonicalize/admission/queue zero).
    fn trace_ms(analysis: u64, execution: u64, perturbation: u64) -> QueryTrace {
        QueryTrace {
            analysis: Duration::from_millis(analysis),
            execution: Duration::from_millis(execution),
            perturbation: Duration::from_millis(perturbation),
            ..QueryTrace::new(ExecTrace::default())
        }
    }

    /// Every table row reads back through its own getter: `incr`
    /// accumulates, `set` overwrites, and no two rows share an atomic.
    #[test]
    fn every_scalar_row_round_trips_through_its_handle() {
        let t = Telemetry::default();
        for (i, m) in SCALARS.iter().enumerate() {
            assert_eq!(m.metric as usize, i, "{}: handle is the row index", m.key);
            t.set(m.metric, 100 + i as u64);
            t.incr(m.metric);
        }
        let s = t.snapshot();
        for (i, m) in SCALARS.iter().enumerate() {
            assert_eq!((m.get)(&s), 101 + i as u64, "{}", m.key);
        }
        t.set(Metric::CacheBytes, 7);
        assert_eq!(t.snapshot().cache_bytes, 7, "set overwrites");
    }

    #[test]
    fn completed_query_feeds_every_histogram_and_the_rates() {
        let t = Telemetry::default();
        t.incr(Metric::CacheHits);
        t.incr(Metric::CacheMisses);
        t.record_completed(&trace_ms(2, 3, 1));
        let s = t.snapshot();
        assert_eq!(s.completed, 1);
        assert_eq!(s.analysis_latency.sum(), Duration::from_millis(2));
        assert_eq!(s.execution_latency.sum(), Duration::from_millis(3));
        assert_eq!(s.perturbation_latency.sum(), Duration::from_millis(1));
        assert_eq!(s.latency.sum(), Duration::from_millis(6));
        for m in LATENCIES {
            assert_eq!((m.get)(&s).count(), 1, "{}", m.key);
        }
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!(s.to_string().contains("50.0% of lookups"));
    }

    /// A snapshot of a service that has served nothing must report
    /// finite rates (0.0, not NaN from 0/0) everywhere — including the
    /// percentages in the `Display` rendering that ops dashboards show.
    #[test]
    fn zero_query_snapshot_has_finite_rates() {
        let s = Telemetry::default().snapshot();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.latency.p50(), Duration::ZERO);
        assert_eq!(s.latency.p99(), Duration::ZERO);
        assert!(s.slow_queries.is_empty());
        let text = s.to_string();
        assert!(!text.contains("NaN"), "Display leaked a NaN: {text}");
        assert!(text.contains("0.0% of lookups"), "snapshot: {text}");
    }

    /// The top-K flag of a completed query's trace is counted.
    #[test]
    fn topk_pushdown_counter() {
        let t = Telemetry::default();
        for topk in [true, false, true] {
            let mut tr = trace_ms(0, 1, 0);
            tr.exec.topk = topk;
            t.record_completed(&tr);
        }
        let s = t.snapshot();
        assert_eq!((s.completed, s.topk_hits), (3, 2));
    }

    /// The histogram's quantiles bracket the recorded values: a bucketed
    /// quantile overestimates by at most one power of two.
    #[test]
    fn latency_histogram_quantiles() {
        let h = LatencyHistogram::default();
        // 90 fast (1 µs) + 10 slow (1 ms) observations.
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        // 1000 ns lands in bucket [512, 1024); the quantile reports the
        // bucket's upper bound.
        assert_eq!(s.p50(), Duration::from_nanos(1023));
        // 1 ms lands in bucket [2^19, 2^20).
        assert_eq!(s.p95(), Duration::from_nanos((1 << 20) - 1));
        assert_eq!(s.p99(), Duration::from_nanos((1 << 20) - 1));
        // Exact mean from the running sum.
        let mean = s.mean().as_nanos() as u64;
        assert_eq!(mean, (90 * 1_000 + 10 * 1_000_000) / 100);
        // Degenerate quantiles stay on the recorded buckets' bounds.
        assert_eq!(s.quantile(0.0), Duration::from_nanos(1023));
        assert_eq!(s.quantile(1.0), Duration::from_nanos((1 << 20) - 1));
    }

    #[test]
    fn latency_histogram_handles_extremes() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO); // clamped into bucket 0
        h.record(Duration::from_nanos(u64::MAX));
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[63], 1);
        assert_eq!(s.quantile(1.0), Duration::from_nanos(u64::MAX));
    }

    /// Satellite: the queue-depth high-water mark must be exact under
    /// concurrency. Eight threads enqueue behind a barrier (so all eight
    /// are in flight at once), then hammer enqueue/dequeue pairs; the
    /// `fetch_max` CAS must have observed the full depth of 8 and the
    /// final depth must return to zero.
    #[test]
    fn max_queue_depth_is_exact_under_concurrency() {
        use std::sync::{Arc, Barrier};
        let t = Arc::new(Telemetry::default());
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    t.record_enqueued();
                    // All eight enqueues happen before any dequeue.
                    barrier.wait();
                    t.record_dequeued();
                    for _ in 0..1000 {
                        t.record_enqueued();
                        t.record_dequeued();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = t.snapshot();
        assert_eq!(s.queue_depth, 0, "all enqueues were dequeued");
        assert!(
            (8..=16).contains(&s.max_queue_depth),
            "high-water mark {} must see the barrier phase's full depth",
            s.max_queue_depth
        );
    }

    /// The slow-query log keeps the slowest entries, sorted, bounded.
    #[test]
    fn slow_query_log_is_bounded_and_sorted() {
        let t = Telemetry::default();
        for i in 0..(SLOW_LOG_CAPACITY + 10) {
            let trace = QueryTrace {
                execution: Duration::from_micros(i as u64 + 1),
                ..trace_ms(0, 0, 0)
            };
            t.record_release(SlowQuery {
                analyst: format!("a{i}"),
                canonical_sql: format!("SELECT {i}"),
                epsilon: 0.1,
                delta: 1e-9,
                trace,
            });
        }
        let s = t.snapshot();
        assert_eq!(s.slow_queries.len(), SLOW_LOG_CAPACITY);
        // Slowest first, and only the slowest survived.
        let totals: Vec<Duration> = s.slow_queries.iter().map(SlowQuery::total).collect();
        let mut sorted = totals.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(totals, sorted, "log is sorted slowest-first");
        assert_eq!(
            totals[0],
            Duration::from_micros((SLOW_LOG_CAPACITY + 10) as u64)
        );
        assert!(
            s.slow_queries
                .iter()
                .all(|e| e.total() > Duration::from_micros(10)),
            "fast queries were evicted"
        );
    }

    #[test]
    fn query_trace_total_sums_all_spans() {
        let trace = QueryTrace {
            parse: Duration::from_nanos(1),
            canonicalize: Duration::from_nanos(2),
            admission: Duration::from_nanos(4),
            queue: Duration::from_nanos(8),
            analysis: Duration::from_nanos(16),
            execution: Duration::from_nanos(32),
            perturbation: Duration::from_nanos(64),
            durability: Duration::from_nanos(128),
            exec: ExecTrace::default(),
        };
        assert_eq!(trace.total(), Duration::from_nanos(255));
    }
}
