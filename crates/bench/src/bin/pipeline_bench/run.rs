//! One workload, start to finish: set-up, warm-up, the timed closed-loop
//! window, the output checks and the serial pass that yields the
//! end-to-end metrics.

use crate::stats::{
    answer_digest, cv, key_hash, median, median_u64, percentile_sorted, ratio, Samples,
};
use crate::workload::{analyst_names, stream, Reuse, Spec, Stream, MAX_CLIENTS, VARIANTS};
use flex_core::{analyze_with, AnalysisOptions, PrivacyParams};
use flex_db::{Database, RowKey, Value};
use flex_service::{
    FsyncPolicy, LedgerPolicy, QueryService, ServiceConfig, ServiceResponse, TelemetrySnapshot,
    WalOp,
};
use flex_sql::parse_query;
use flex_workloads::uber;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request ε on every workload; δ follows the paper's §5.2 rule.
pub const EPSILON: f64 = 0.1;

/// Requests the serial pass re-sends to its warm service.
const HIT_RESEND: usize = 256;

/// Latency samples one client keeps per 1-s slice (see [`Samples`]).
const SLICE_SAMPLES: usize = 1 << 13;

/// Distinct releases whose digests one thread remembers (bounded like
/// the latency samples; repeats of remembered keys are still compared).
/// Client 0's first `serial_k` requests are always among them.
const TALLY_KEYS: usize = 1 << 16;

/// How one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub window: Duration,
    pub warmup: Duration,
    pub smoke: bool,
    /// Also run the traced pass (the serial pass then re-sends its
    /// requests to the warm service for `service.submit_hit_ns`).
    pub trace: bool,
}

/// Closed-loop clients (= service workers): one per core, at most
/// [`MAX_CLIENTS`], so clients never outnumber cores.
pub fn clients() -> usize {
    cores().min(MAX_CLIENTS)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A named pass/fail output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What the responses seen by one thread add up to.
#[derive(Debug, Default)]
pub struct Tally {
    /// Canonical-SQL hash → digest of the released bytes.
    digests: HashMap<u64, u64>,
    /// Charged responses per analyst index.
    charged: Vec<u32>,
    /// Responses whose bytes differed from an earlier release of the
    /// same canonical query.
    mismatches: u64,
}

impl Tally {
    fn new(analysts: usize) -> Self {
        Tally {
            charged: vec![0; analysts],
            ..Tally::default()
        }
    }

    /// Compare with what was recorded for `key`, or record it while
    /// fewer than `cap` keys are held.
    fn record(&mut self, key: u64, digest: u64, cap: usize) {
        let recorded = self.digests.len();
        match self.digests.entry(key) {
            Entry::Occupied(e) if *e.get() != digest => self.mismatches += 1,
            Entry::Occupied(_) => {}
            Entry::Vacant(e) if recorded < cap => {
                e.insert(digest);
            }
            Entry::Vacant(_) => {}
        }
    }

    fn observe(&mut self, analyst: usize, resp: &ServiceResponse) {
        self.record(
            key_hash(&resp.canonical_sql),
            answer_digest(&resp.columns, &resp.rows),
            TALLY_KEYS,
        );
        if resp.charged.0 > 0.0 {
            self.charged[analyst] += 1;
        }
    }

    fn merge(&mut self, other: Tally) {
        for (k, d) in other.digests {
            self.record(k, d, usize::MAX);
        }
        for (mine, theirs) in self.charged.iter_mut().zip(other.charged) {
            *mine += theirs;
        }
        self.mismatches += other.mismatches;
    }
}

/// The generated database and the privacy parameters every request of
/// the workload carries.
pub struct Built {
    pub db: Arc<Database>,
    pub params: PrivacyParams,
}

/// Scratch log of `workload` for `role`, under `target/bench-tmp/`.
pub fn wal_path(workload: &str, role: &str) -> PathBuf {
    // The process id keeps concurrent invocations off each other's logs.
    PathBuf::from("target/bench-tmp").join(format!("{workload}-{role}-{}.wal", std::process::id()))
}

pub fn remove_wal(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(path.with_extension("wal-tmp"));
}

/// `ServiceConfig::default()` except the seed, one worker per client, a
/// policy that never refuses, and the WAL where the workload has one.
pub fn service_config(seed: u64, wal: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        seed: Some(seed),
        workers: clients(),
        policy: LedgerPolicy::sequential(1e15, 1.0),
        wal_path: wal,
        wal_fsync: FsyncPolicy::Always,
        ..ServiceConfig::default()
    }
}

fn start_service(
    db: &Arc<Database>,
    seed: u64,
    wal: Option<PathBuf>,
) -> Result<QueryService, String> {
    if let Some(path) = &wal {
        let dir = path.parent().expect("wal path has a directory");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    QueryService::try_new(Arc::clone(db), service_config(seed, wal)).map_err(|e| e.to_string())
}

/// One set-up: generate the data (metrics included), start the service
/// (WAL opened and replayed when the workload has one) and, for a pool
/// workload, release every pool query once so the window is all hits.
fn set_up(
    spec: &Spec,
    opts: &Options,
    pool: &Stream,
    tally: &mut Tally,
) -> Result<(Built, QueryService), String> {
    let db = Arc::new(uber::generate(&spec.data(opts.seed, opts.smoke)));
    let params = PrivacyParams::new(EPSILON, PrivacyParams::delta_for_db_size(db.total_rows()))
        .map_err(|e| e.to_string())?;
    let wal = spec.wal.then(|| wal_path(spec.name, "window"));
    if let Some(path) = &wal {
        remove_wal(path);
    }
    let svc = start_service(&db, opts.seed, wal)?;
    if let Reuse::Pool(_) = spec.reuse {
        // All submitted before any is awaited: the workers drain a queue
        // instead of being woken once per query, so set-up time follows
        // the work and not the sandbox's thread wake-up latency.
        let names = analyst_names(1);
        let tickets: Vec<_> = pool
            .texts
            .iter()
            .step_by(VARIANTS)
            .map(|text| svc.submit(&names[0], text, params))
            .collect();
        for ticket in tickets {
            let resp = ticket.wait().map_err(|e| format!("pool warm-up: {e}"))?;
            tally.observe(0, &resp);
        }
    }
    Ok((Built { db, params }, svc))
}

/// What one client thread measured.
struct ClientOut {
    /// Latencies of the requests that completed in each 1-s slice.
    latencies: Vec<Samples>,
    /// Check-passing completions per 1-s slice of the window.
    slices: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Errors outside the window (warm-up); they fail the run too.
    errors_outside: u64,
    issued: usize,
    tally: Tally,
}

/// The closed loop: each client submits its next request only after the
/// previous one resolved. Returns the clients' records and the service
/// telemetry at the window's start and end.
fn drive(
    svc: &QueryService,
    params: PrivacyParams,
    spec: &Spec,
    streams: &[Stream],
    names: &[String],
    opts: &Options,
) -> (Vec<ClientOut>, TelemetrySnapshot, TelemetrySnapshot) {
    let must_hit = matches!(spec.reuse, Reuse::Pool(_));
    let start = Instant::now();
    let window_start = start + opts.warmup;
    let window_end = window_start + opts.window;
    let n_slices = opts.window.as_secs_f64().ceil().max(1.0) as usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut out = ClientOut {
                        latencies: (0..n_slices)
                            .map(|_| Samples::with_capacity(SLICE_SAMPLES))
                            .collect(),
                        slices: vec![0; n_slices],
                        attempted: 0,
                        failed: 0,
                        errors_outside: 0,
                        issued: 0,
                        tally: Tally::new(names.len()),
                    };
                    loop {
                        let t0 = Instant::now();
                        if t0 >= window_end {
                            break;
                        }
                        let analyst = stream.analyst(out.issued);
                        let result = svc
                            .submit(&names[analyst], stream.sql(out.issued), params)
                            .wait();
                        let t1 = Instant::now();
                        out.issued += 1;
                        let in_window = t0 >= window_start && t1 <= window_end;
                        let ok = match &result {
                            Ok(resp) => {
                                out.tally.observe(analyst, resp);
                                !must_hit || (resp.from_cache && resp.charged == (0.0, 0.0))
                            }
                            Err(_) => false,
                        };
                        if in_window {
                            out.attempted += 1;
                            let ns = (t1 - t0).as_nanos().min(u32::MAX as u128) as u32;
                            let slice = ((t1 - window_start).as_secs() as usize).min(n_slices - 1);
                            out.latencies[slice].push(ns);
                            if ok {
                                out.slices[slice] += 1;
                            } else {
                                out.failed += 1;
                            }
                        } else if result.is_err() {
                            out.errors_outside += 1;
                        }
                    }
                    out
                })
            })
            .collect();
        std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
        let before = svc.telemetry();
        std::thread::sleep(window_end.saturating_duration_since(Instant::now()));
        let after = svc.telemetry();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (outs, before, after)
    })
}

/// Relative error (%) of every released aggregate cell whose true value
/// is non-zero, matching released rows to true rows by their label
/// cells. `Err` when a true row has no released counterpart.
fn relative_errors(
    is_label: &[bool],
    released: &[Vec<Value>],
    truth: &[Vec<Value>],
) -> Result<Vec<f64>, String> {
    let labels = |row: &[Value]| {
        let cells: Vec<Value> = row
            .iter()
            .zip(is_label)
            .filter(|(_, l)| **l)
            .map(|(v, _)| v.clone())
            .collect();
        RowKey::from_values(&cells)
    };
    let mut by_label: HashMap<RowKey, &Vec<Value>> = HashMap::with_capacity(released.len());
    for row in released {
        if row.len() != is_label.len() || by_label.insert(labels(row), row).is_some() {
            return Err("released rows have a repeated label or the wrong width".into());
        }
    }
    let mut errors = Vec::new();
    for t_row in truth {
        let Some(r_row) = by_label.get(&labels(t_row)) else {
            return Err(format!("true row {t_row:?} was not released"));
        };
        for ((t, r), label) in t_row.iter().zip(r_row.iter()).zip(is_label) {
            if *label {
                continue;
            }
            match (t.as_f64(), r.as_f64()) {
                (Some(t), Some(r)) if t != 0.0 => errors.push(((r - t) / t).abs() * 100.0),
                (Some(_), Some(_)) => {}
                _ => return Err("non-numeric aggregate cell".into()),
            }
        }
    }
    Ok(errors)
}

/// The serial pass: client 0's first `K` requests, one at a time,
/// through a cold service and through bare `Database::execute`.
pub struct Serial {
    /// `query()` wall time per request, in request order.
    pub latencies_ns: Vec<u64>,
    /// Which requests were charged (computed, not served from cache).
    pub charged: Vec<bool>,
    pub service_ns: u64,
    pub bare_ns: u64,
    pub epsilon: f64,
    /// Relative error of every released aggregate cell of every charged
    /// request.
    pub cell_errors_pct: Vec<f64>,
    pub release_digest: u64,
    /// Responses also seen in the window whose digests were compared.
    pub cross_checked: u64,
    pub failures: Vec<String>,
    /// `query()` wall time of the same requests re-sent to the now warm
    /// service (traced runs only).
    pub hit_latencies_ns: Vec<u64>,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_errors: u64,
}

pub fn serial_pass(
    spec: &Spec,
    opts: &Options,
    built: &Built,
    stream0: &Stream,
    names: &[String],
    window: &Tally,
    k: usize,
) -> Result<Serial, String> {
    let wal = spec.wal.then(|| wal_path(spec.name, "serial"));
    if let Some(path) = &wal {
        remove_wal(path);
    }
    let svc = start_service(&built.db, opts.seed, wal.clone())?;
    let mut s = Serial {
        latencies_ns: Vec::with_capacity(k),
        charged: Vec::with_capacity(k),
        service_ns: 0,
        bare_ns: 0,
        epsilon: 0.0,
        cell_errors_pct: Vec::new(),
        release_digest: 0,
        cross_checked: 0,
        failures: Vec::new(),
        hit_latencies_ns: Vec::new(),
        wal_bytes: 0,
        wal_fsyncs: 0,
        wal_errors: 0,
    };
    let mut digest = DefaultHasher::new();
    for i in 0..k {
        let sql = stream0.sql(i);
        let parsed = parse_query(sql).map_err(|e| format!("serial request {i}: {e}"))?;
        // Whichever runs second finds the tables in the CPU caches, so
        // the two sides take turns going first.
        let mut timed_bare = || {
            let t0 = Instant::now();
            let truth = built.db.execute(&parsed);
            (truth, t0.elapsed().as_nanos() as u64)
        };
        let bare_first = (i % 2 == 1).then(&mut timed_bare);
        let t0 = Instant::now();
        let resp = svc.query(&names[stream0.analyst(i)], sql, built.params);
        let ns = t0.elapsed().as_nanos() as u64;
        let (truth, bare_ns) = bare_first.unwrap_or_else(timed_bare);
        let resp = resp.map_err(|e| format!("serial request {i}: {e}"))?;
        let truth = truth.map_err(|e| format!("bare execute {i}: {e}"))?;
        s.latencies_ns.push(ns);
        s.service_ns += ns;
        s.bare_ns += bare_ns;
        s.epsilon += resp.charged.0;
        s.charged.push(resp.charged.0 > 0.0);

        let (key, released) = (
            key_hash(&resp.canonical_sql),
            answer_digest(&resp.columns, &resp.rows),
        );
        digest.write_u64(key);
        digest.write_u64(released);
        if let Some(seen) = window.digests.get(&key) {
            s.cross_checked += 1;
            if *seen != released {
                s.failures.push(format!(
                    "request {i}: serial bytes differ from the window's"
                ));
            }
        }
        if resp.charged.0 > 0.0 {
            let analysis = analyze_with(&parsed, &built.db, &AnalysisOptions::default())
                .map_err(|e| format!("analysis {i}: {e}"))?;
            let is_label: Vec<bool> = analysis.outputs.iter().map(Option::is_none).collect();
            match relative_errors(&is_label, &resp.rows, &truth.rows) {
                Ok(errors) => s.cell_errors_pct.extend(errors),
                Err(e) => s.failures.push(format!("request {i}: {e}")),
            }
        }
    }
    s.release_digest = digest.finish();
    if opts.trace {
        // Only the most recent requests: a cold workload's K exceeds the
        // cache, and a skewed shard evicts before the cache is full.
        for i in k.saturating_sub(HIT_RESEND)..k {
            let t0 = Instant::now();
            let resp = svc.query(&names[stream0.analyst(i)], stream0.sql(i), built.params);
            s.hit_latencies_ns.push(t0.elapsed().as_nanos() as u64);
            if !resp.is_ok_and(|r| r.from_cache) {
                s.failures
                    .push(format!("request {i}: re-sent to a warm service, not a hit"));
            }
        }
    }
    let t = svc.shutdown();
    s.wal_fsyncs = t.wal_fsyncs;
    s.wal_errors = t.wal_errors;
    if let Some(path) = &wal {
        s.wal_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        remove_wal(path);
    }
    Ok(s)
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not available).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rows per second of a plain `iter().sum()` over a `Vec<f64>` of `n`
/// elements: the machine's ceiling for a one-column scan.
pub fn sum_rows_per_s(n: usize) -> f64 {
    let column: Vec<f64> = (0..n.max(1)).map(|i| i as f64 * 0.5).collect();
    let t0 = Instant::now();
    let mut reps = 0u64;
    let mut acc = 0.0;
    while t0.elapsed() < Duration::from_millis(50) {
        acc += std::hint::black_box(&column).iter().sum::<f64>();
        reps += 1;
    }
    std::hint::black_box(acc);
    (column.len() as u64 * reps) as f64 / t0.elapsed().as_secs_f64()
}

/// Everything one workload run produced, before it is rendered.
pub struct Outcome {
    pub spec: Spec,
    pub clients: usize,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Harness and window-telemetry figures (`client.*`, shares of the
    /// window's submissions, WAL counters), also reported per layer.
    pub window: Vec<(&'static str, f64)>,
    /// Requests timed in the window (the percentiles come from a
    /// systematic sample of each second's, see [`Samples`]).
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub slice_cv: f64,
    /// Check-passing completions in each 1-s slice of the window.
    pub slices: Vec<u64>,
    /// [`sum_rows_per_s`] over a column as long as the workload's `trips`.
    pub machine_rows_per_s: f64,
    pub serial: Serial,
    pub built: Built,
    pub stream0: Stream,
    pub names: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// Per analyst, the ledger's admitted-query count and spend equal the
/// charged responses the clients saw (ε and δ summed in the same float
/// order the ledger used: one equal addend per charge).
fn ledger_matches(
    svc: &QueryService,
    names: &[String],
    tally: &Tally,
    params: PrivacyParams,
) -> Result<u64, String> {
    let mut total = 0u64;
    for (name, &n) in names.iter().zip(&tally.charged) {
        let (mut eps, mut delta) = (0.0f64, 0.0f64);
        for _ in 0..n {
            eps += params.epsilon;
            delta += params.delta;
        }
        let (spent_e, spent_d) = svc.ledger().spent(name);
        if svc.ledger().queries(name) != n
            || spent_e.to_bits() != eps.to_bits()
            || spent_d.to_bits() != delta.to_bits()
        {
            return Err(format!(
                "{name}: ledger has {} queries / ε {spent_e}, clients were charged {n} / ε {eps}",
                svc.ledger().queries(name)
            ));
        }
        total += n as u64;
    }
    Ok(total)
}

fn share(part: u64, whole: u64) -> f64 {
    ratio(part as f64, whole as f64)
}

pub fn run_workload(spec: Spec, opts: &Options) -> Result<Outcome, String> {
    let clients = clients();
    let streams: Vec<Stream> = (0..clients).map(|c| stream(&spec, opts.seed, c)).collect();
    // The pool's warm-up is charged to analyst 0, which the streams use
    // too, so one name table serves both.
    let names = analyst_names(spec.analysts);
    let mut checks = Vec::new();

    // Set-up, repeated for two seconds and at least five times; setup_s
    // is the fastest. The sandbox flips between a quiet and a slow state
    // (the small instances set up in 0.42 ms or in 0.69 ms), so the median
    // of the repeats lands on either; their minimum is the quiet one.
    let (mut setup_s, mut set_ups) = (f64::INFINITY, 0);
    let setup_started = Instant::now();
    let (mut tally, built, svc) = loop {
        let mut tally = Tally::new(names.len());
        let t0 = Instant::now();
        let (built, svc) = set_up(&spec, opts, &streams[0], &mut tally)?;
        setup_s = setup_s.min(t0.elapsed().as_secs_f64());
        set_ups += 1;
        let enough = set_ups >= 5 && setup_started.elapsed() >= Duration::from_secs(2);
        if enough || (opts.smoke && set_ups >= 2) {
            break (tally, built, svc);
        }
    };

    let (outs, before, after) = drive(&svc, built.params, &spec, &streams, &names, opts);

    // One cell per (client, slice), sorted.
    let mut cells: Vec<Vec<u32>> = Vec::new();
    let mut slices = vec![0u64; outs[0].slices.len()];
    let (mut attempted, mut failed, mut errors_outside, mut wraps) = (0u64, 0u64, 0u64, 0u64);
    let (mut samples, mut latency_max) = (0u64, 0u32);
    for out in outs {
        for cell in &out.latencies {
            samples += cell.seen();
            latency_max = latency_max.max(cell.max());
            if cell.seen() > 0 {
                let mut kept = cell.kept().to_vec();
                kept.sort_unstable();
                cells.push(kept);
            }
        }
        for (sum, n) in slices.iter_mut().zip(&out.slices) {
            *sum += n;
        }
        attempted += out.attempted;
        failed += out.failed;
        errors_outside += out.errors_outside;
        wraps += (out.issued / spec.seq_len) as u64;
        tally.merge(out.tally);
    }
    // A latency percentile is the median over the cells of the cell's
    // percentile: like throughput's median slice, a second in which the
    // sandbox stalled moves one cell and not the metric.
    let latency_us = |p: f64| {
        let per_cell: Vec<f64> = cells
            .iter()
            .map(|c| percentile_sorted(c, p) as f64 / 1e3)
            .collect();
        median(&per_cell)
    };
    let slice_cv = cv(&slices.iter().map(|&s| s as f64).collect::<Vec<_>>());

    check(
        &mut checks,
        "the window timed at least one request",
        attempted > 0,
        format!("{attempted} requests began and ended inside the window"),
    );
    check(
        &mut checks,
        "no request failed outside the window",
        errors_outside == 0,
        format!("{errors_outside} errors during warm-up"),
    );
    check(
        &mut checks,
        "one canonical query, one set of released bytes (hit, miss, coalesced, any client)",
        tally.mismatches == 0,
        format!(
            "{} distinct releases, {} mismatches",
            tally.digests.len(),
            tally.mismatches
        ),
    );
    failed += tally.mismatches;
    let ledger = ledger_matches(&svc, &names, &tally, built.params);
    check(
        &mut checks,
        "per analyst, ledger queries and spend equal the charged responses",
        ledger.is_ok(),
        match &ledger {
            Ok(n) => format!("{n} charges over {} analysts", names.len()),
            Err(e) => e.clone(),
        },
    );

    // Durability: a restart over the window's log must rebuild the very
    // same ledger, bit for bit.
    let mut recovery_ms = 0.0;
    let mut replayed = 0u64;
    if spec.wal {
        let path = wal_path(spec.name, "window");
        let live = WalOp::Snapshot(svc.ledger().snapshot()).encode();
        drop(svc);
        let t0 = Instant::now();
        let reopened = start_service(&built.db, opts.seed, Some(path.clone()))?;
        recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
        replayed = reopened.recovery_report().replayed_records;
        let recovered = WalOp::Snapshot(reopened.ledger().snapshot()).encode();
        check(
            &mut checks,
            "a restart over the log reproduces the ledger bitwise, wal_errors = 0",
            live == recovered && after.wal_errors == 0,
            format!(
                "{replayed} records replayed in {recovery_ms:.2} ms, {} wal errors",
                after.wal_errors
            ),
        );
        drop(reopened);
        remove_wal(&path);
    } else {
        drop(svc);
    }

    let k = if opts.smoke { 50 } else { spec.serial_k };
    let serial = serial_pass(&spec, opts, &built, &streams[0], &names, &tally, k)?;
    check(
        &mut checks,
        "serial pass: every true row released, label cells un-noised, bytes equal the window's",
        serial.failures.is_empty() && serial.cross_checked > 0 && serial.wal_errors == 0,
        format!(
            "{} of {k} responses cross-checked against the window; {}",
            serial.cross_checked,
            serial
                .failures
                .first()
                .map_or("no failures", String::as_str)
        ),
    );

    let submitted = after.submitted - before.submitted;
    let appends = after.wal_appends - before.wal_appends;
    let window = vec![
        ("client.latency_p95_us", latency_us(0.95)),
        ("client.latency_p99_us", latency_us(0.99)),
        ("client.latency_max_us", latency_max as f64 / 1e3),
        ("client.samples", samples as f64),
        ("client.clients", clients as f64),
        ("client.slice_cv", slice_cv),
        ("client.failed_share", share(failed, attempted)),
        ("client.sequence_wraps", wraps as f64),
        (
            "service.cache.hit_ratio",
            share(after.cache_hits - before.cache_hits, submitted),
        ),
        (
            "service.cache.coalesced_share",
            share(after.coalesced - before.coalesced, submitted),
        ),
        (
            "service.cache.evictions",
            (after.cache_evictions - before.cache_evictions) as f64,
        ),
        ("service.cache.bytes", after.cache_bytes as f64),
        (
            "service.shed_share",
            share(after.shed - before.shed, submitted),
        ),
        (
            "service.timeout_share",
            share(after.timeouts - before.timeouts, submitted),
        ),
        (
            "service.rejected_share",
            share(after.rejected_budget - before.rejected_budget, submitted),
        ),
        // Under FsyncPolicy::Always every append syncs once and every
        // compaction syncs once more.
        (
            "service.wal.compactions",
            (after.wal_fsyncs - before.wal_fsyncs).saturating_sub(appends) as f64,
        ),
        ("service.wal.recovery_ms", recovery_ms),
        ("service.wal.replayed_records", replayed as f64),
    ];

    let end_to_end = vec![
        // The median 1-s slice, so one scheduler hiccup moves one slice and
        // not the metric.
        ("throughput_qps", median_u64(&slices)),
        ("latency_p50_us", latency_us(0.50)),
        (
            "dp_overhead_ratio",
            ratio(serial.service_ns as f64, serial.bare_ns as f64),
        ),
        ("epsilon_per_request", serial.epsilon / k as f64),
        ("median_rel_error_pct", median(&serial.cell_errors_pct)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
    ];

    Ok(Outcome {
        spec,
        clients,
        end_to_end,
        window,
        samples,
        attempted,
        failed,
        checks,
        slice_cv,
        slices,
        machine_rows_per_s: sum_rows_per_s(spec.data(opts.seed, opts.smoke).trips),
        serial,
        built,
        stream0: streams.into_iter().next().expect("at least one client"),
        names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_errors_match_rows_by_label() {
        let is_label = [true, false];
        let truth = vec![
            vec![Value::str("b"), Value::Int(10)],
            vec![Value::str("a"), Value::Int(0)],
        ];
        // Released in label order, with one enumerated bin the truth lacks.
        let released = vec![
            vec![Value::str("a"), Value::Float(1.5)],
            vec![Value::str("b"), Value::Float(12.0)],
            vec![Value::str("c"), Value::Float(-0.5)],
        ];
        // The zero-truth cell is skipped; b is off by 20 %.
        assert_eq!(
            relative_errors(&is_label, &released, &truth).unwrap(),
            vec![20.0]
        );
        // A true row that was not released is an error, not a skip.
        assert!(relative_errors(&is_label, &released[..1], &truth).is_err());
    }
}
