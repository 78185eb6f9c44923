//! The traced pass: the serial pass's requests replayed single-threaded
//! through the layers' public functions in pipeline order, one span per
//! call, timed from outside the program.
//!
//! Nothing here reads `ServiceResponse::trace`/`timings`: spans inside
//! the program are a later change, and until then the benchmark's own
//! clock around each public entry point is the only per-layer evidence.
//! `run_query_with` is the one call that cannot be split from outside
//! (its perturbation step is private), so analysis and execution are
//! also run on their own as *probes* and subtracted.

use crate::run::{clients, cores, remove_wal, wal_path, Options, Outcome, EPSILON};
use crate::stats::{median_u64, ratio};
use flex_core::{
    analyze_with, laplace, lower, run_query_with, smooth, AnalysisOptions, FlexOptions,
};
use flex_service::{
    Admission, AnswerCache, BudgetLedger, CacheKey, CachedAnswer, FileStorage, FsyncPolicy, Wal,
    WalOp,
};
use flex_sql::{canonicalize, parse_query, print_query, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One timed call. `id` is the span's index in the trace; spans of one
/// request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder: a pre-allocated vector and the stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    pub fn enter(&mut self, request: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Clock read last on entry and first on exit, so bookkeeping
        // falls outside the span.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    pub fn exit(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    pub fn span<T>(&mut self, request: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(request, name);
        let out = f();
        self.exit(id);
        out
    }
}

/// Self time per span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.ns());
        }
    }
    own
}

// Span names: layer = crate.module, as in the per-layer metric names.
const REQUEST: &str = "request";
const PARSE: &str = "sql.parser.parse";
const CANONICALIZE: &str = "sql.canonical.canonicalize";
const PRINT: &str = "sql.printer.print";
const ADMIT: &str = "service.cache.admit";
const CHARGE: &str = "service.ledger.charge";
const RUN_QUERY: &str = "core.mechanism.run_query";
const SETTLE: &str = "service.ledger.settle";
const COMPLETE: &str = "service.cache.complete";
// Probes: calls the pipeline makes inside `run_query_with` (or, for
// `get`, on a later hit), repeated on their own to be timed.
const LOWER: &str = "probe.core.lower.lower";
const ANALYZE: &str = "probe.core.analysis.analyze";
const EXECUTE: &str = "probe.db.execute";
const SMOOTH: &str = "probe.core.smooth.smooth";
const GET: &str = "probe.service.cache.get";

/// Top-level spans that make up what `QueryService::query` does for a
/// request; their sum over the serial latency is `trace.coverage`.
const PIPELINE: [&str; 7] = [
    PARSE,
    CANONICALIZE,
    PRINT,
    ADMIT,
    RUN_QUERY,
    SETTLE,
    COMPLETE,
];

pub struct Traced {
    pub per_layer: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub failures: Vec<String>,
}

/// Durations of the spans named `name`, keyed by request.
fn by_request(spans: &[Span], durations: &[u64], name: &str) -> HashMap<u32, u64> {
    let mut out = HashMap::new();
    for (s, d) in spans.iter().zip(durations) {
        if s.name == name {
            *out.entry(s.request).or_insert(0) += d;
        }
    }
    out
}

fn p50(map: &HashMap<u32, u64>) -> f64 {
    median_u64(&map.values().copied().collect::<Vec<_>>())
}

fn open_wal(path: &Path, snapshot_threshold: u64) -> Result<Arc<Wal>, String> {
    remove_wal(path);
    let storage = FileStorage::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok(Arc::new(Wal::new(
        Box::new(storage),
        FsyncPolicy::Always,
        snapshot_threshold,
    )))
}

pub fn traced_pass(outcome: &Outcome, opts: &Options) -> Result<Traced, String> {
    let spec = &outcome.spec;
    let (db, params) = (&outcome.built.db, outcome.built.params);
    let k = outcome.serial.latencies_ns.len();
    let config = crate::run::service_config(opts.seed, None);
    let cache: AnswerCache<()> = AnswerCache::with_config(
        config.cache_capacity,
        config.cache_max_bytes,
        config.cache_shards,
    );
    let wal_file = wal_path(spec.name, "traced");
    let ledger = if spec.wal {
        let wal = open_wal(&wal_file, config.wal_snapshot_threshold)?;
        BudgetLedger::with_wal(config.policy, config.ledger_shards, wal)
            .map_err(|e| e.to_string())?
            .0
    } else {
        BudgetLedger::with_shards(config.policy, config.ledger_shards)
    };
    let flex = FlexOptions::new();
    let analysis_opts = AnalysisOptions::default();

    let mut tr = Tracer::with_capacity(k * 16);
    let mut failures = Vec::new();
    let mut misses: Vec<(u32, Query)> = Vec::new();
    let (mut rows_scanned, mut rows_emitted, mut morsels) = (0u64, 0u64, 0u64);
    let (mut cells_noised, mut enumerated, mut vectorized) = (0u64, 0u64, 0u64);
    let mut input_bytes = 0u64;

    for i in 0..k {
        let r = i as u32;
        let sql = outcome.stream0.sql(i);
        let analyst = &outcome.names[outcome.stream0.analyst(i)];
        input_bytes += sql.len() as u64;
        let root = tr.enter(r, REQUEST);
        let parsed = tr
            .span(r, PARSE, || parse_query(sql))
            .map_err(|e| format!("traced request {i}: {e}"))?;
        let query = tr.span(r, CANONICALIZE, || canonicalize(&parsed));
        let canonical_sql = tr.span(r, PRINT, || print_query(&query));

        let admit = tr.enter(r, ADMIT);
        let key = CacheKey::new(canonical_sql, params);
        let decision = cache.admit(
            &key,
            || (),
            || {
                let id = tr.enter(r, CHARGE);
                let charge = ledger.try_charge(analyst, params.epsilon, params.delta);
                tr.exit(id);
                charge
            },
        );
        tr.exit(admit);
        let charge = match decision {
            Admission::Hit(_) => {
                tr.exit(root);
                continue;
            }
            Admission::Admitted(charge) => charge,
            Admission::Coalesced => return Err(format!("traced request {i}: coalesced")),
            Admission::Rejected(e) => return Err(format!("traced request {i}: {e}")),
        };

        let mut rng = StdRng::seed_from_u64(opts.seed ^ i as u64);
        let result = tr
            .span(r, RUN_QUERY, || {
                run_query_with(db, &query, params, &mut rng, &flex)
            })
            .map_err(|e| format!("run_query_with {i}: {e}"))?;
        tr.span(r, SETTLE, || ledger.settle(&charge));
        let answer = CachedAnswer {
            columns: result.columns.clone(),
            rows: result.rows.clone(),
            join_count: result.join_count,
        };
        tr.span(r, COMPLETE, || cache.complete(key.clone(), answer));
        tr.exit(root);

        // Probes, after the request so they cannot warm the caches for
        // it: the steps inside `run_query_with` in its own order (`lower`
        // is the first step of the analysis, repeated on its own last).
        let analysis = tr
            .span(r, ANALYZE, || analyze_with(&query, db, &analysis_opts))
            .map_err(|e| format!("analyze {i}: {e}"))?;
        let (exec, truth) = tr.span(r, EXECUTE, || db.execute_traced(&query));
        let truth = truth.map_err(|e| format!("execute {i}: {e}"))?;
        rows_scanned += exec.rows_scanned;
        rows_emitted += exec.rows_emitted;
        morsels += exec.morsels;
        vectorized += u64::from(exec.route.is_vectorized());
        let n = db.total_rows();
        tr.span(r, SMOOTH, || {
            for sens in analysis.outputs.iter().flatten() {
                std::hint::black_box(smooth(sens, params, n)).ok();
            }
        });
        let lowered = tr.span(r, LOWER, || lower(&query, db));
        lowered.map_err(|e| format!("lower {i}: {e}"))?;
        if tr.span(r, GET, || cache.get(&key)).is_none() {
            failures.push(format!("request {i}: completed key not readable"));
        }

        // Output check: the mechanism ran the unmodified query, and
        // label cells leave it un-noised.
        if !result.bins_enumerated && result.true_rows != truth.rows {
            failures.push(format!("request {i}: true_rows differ from bare execute"));
        }
        let aggregates = result.column_sensitivity.iter().flatten().count() as u64;
        cells_noised += aggregates * result.rows.len() as u64;
        enumerated += u64::from(result.bins_enumerated);
        for (noised, truth) in result.rows.iter().zip(&result.true_rows) {
            for (c, sens) in result.column_sensitivity.iter().enumerate() {
                if sens.is_none() && noised[c] != truth[c] {
                    failures.push(format!("request {i}: label cell {c} was altered"));
                }
            }
        }
        misses.push((r, query));
    }
    remove_wal(&wal_file);

    let spans = tr.spans;
    let durations: Vec<u64> = spans.iter().map(Span::ns).collect();
    let own = self_times(&spans);
    let get = |name: &str| by_request(&spans, &durations, name);
    let miss_ids: Vec<u32> = misses.iter().map(|(r, _)| *r).collect();
    let per_miss = |f: &dyn Fn(u32) -> u64| -> f64 {
        median_u64(&miss_ids.iter().map(|&r| f(r)).collect::<Vec<_>>())
    };
    let at = |m: &HashMap<u32, u64>, r: u32| m.get(&r).copied().unwrap_or(0);

    let (lower_ns, analyze_ns, execute_ns) = (get(LOWER), get(ANALYZE), get(EXECUTE));
    let (run_ns, charge_ns, settle_ns) = (get(RUN_QUERY), get(CHARGE), get(SETTLE));
    let admit_self = by_request(&spans, &own, ADMIT);
    let complete_ns = get(COMPLETE);
    let pipeline: Vec<HashMap<u32, u64>> = PIPELINE.iter().map(|n| get(n)).collect();
    let pipeline_of = |r: u32| pipeline.iter().map(|m| at(m, r)).sum::<u64>();

    // What the serial pass saw for the same requests.
    let serial = &outcome.serial;
    let serial_miss: Vec<u64> = serial
        .latencies_ns
        .iter()
        .zip(&serial.charged)
        .filter(|(_, charged)| **charged)
        .map(|(ns, _)| *ns)
        .collect();
    let admissions = serial_miss.len() as f64;
    let serial_total: u64 = serial.latencies_ns.iter().sum();
    let traced_total: u64 = get(REQUEST).values().sum();
    let pipeline_total: u64 = (0..k as u32).map(pipeline_of).sum();

    // Execution: absolute rates next to the machine's plain-sum ceiling.
    let execute_total: u64 = execute_ns.values().sum();
    let machine_rows_per_s = outcome.machine_rows_per_s;
    let rows_per_s = ratio(rows_scanned as f64, execute_total as f64 / 1e9);
    let workers = clients();
    let sample = &misses[..misses.len().min(64)];
    let timed_at = |parallelism: usize| {
        db.set_parallelism(parallelism);
        let t0 = Instant::now();
        for (_, q) in sample {
            std::hint::black_box(db.execute(q)).ok();
        }
        t0.elapsed().as_nanos() as f64
    };
    let sequential = timed_at(1);
    let parallel = timed_at(workers);
    db.set_parallelism(config.parallelism);
    let mut copy = (**db).clone();
    let t0 = Instant::now();
    copy.recompute_metrics();
    let recompute_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(copy);

    // Ledger and WAL on their own.
    let memory_ledger = BudgetLedger::with_shards(config.policy, config.ledger_shards);
    let charge_settle: Vec<u64> = (0..k)
        .map(|i| {
            let analyst = &outcome.names[outcome.stream0.analyst(i)];
            let t0 = Instant::now();
            if let Ok(c) = memory_ledger.try_charge(analyst, params.epsilon, params.delta) {
                memory_ledger.settle(&c);
            }
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    let mut append_ns = Vec::new();
    if spec.wal {
        let path = wal_path(spec.name, "append");
        let wal = open_wal(&path, 0)?;
        for id in 0..k.min(512) as u64 {
            let op = WalOp::Charge {
                analyst: outcome.names[0].clone(),
                id,
                epsilon: EPSILON,
                delta: params.delta,
            };
            let t0 = Instant::now();
            wal.append(&op)
                .map_err(|e| format!("wal append probe: {e}"))?;
            append_ns.push(t0.elapsed().as_nanos() as u64);
        }
        remove_wal(&path);
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let draws = 4096;
    let t0 = Instant::now();
    let mut acc = 0.0;
    for _ in 0..draws {
        acc += laplace(&mut rng, 20.0);
    }
    std::hint::black_box(acc);
    let draw_ns = t0.elapsed().as_nanos() as f64 / draws as f64;

    let wal_only = |v: f64| if spec.wal { v } else { 0.0 };
    let mut per_layer = vec![
        ("sql.parser.parse_ns", p50(&get(PARSE))),
        ("sql.canonical.canonicalize_ns", p50(&get(CANONICALIZE))),
        ("sql.printer.print_ns", p50(&get(PRINT))),
        ("sql.input_bytes", ratio(input_bytes as f64, k as f64)),
        ("service.cache.get_ns", p50(&get(GET))),
        (
            "service.submit_hit_ns",
            median_u64(&serial.hit_latencies_ns),
        ),
        (
            "service.cache.admit_complete_ns",
            per_miss(&|r| at(&admit_self, r) + at(&complete_ns, r)),
        ),
        ("core.lower.lower_ns", p50(&lower_ns)),
        (
            "core.analysis.analyze_ns",
            per_miss(&|r| at(&analyze_ns, r).saturating_sub(at(&lower_ns, r))),
        ),
        ("core.smooth.smooth_ns", p50(&get(SMOOTH))),
        (
            "core.mechanism.perturb_ns",
            per_miss(&|r| at(&run_ns, r).saturating_sub(at(&analyze_ns, r) + at(&execute_ns, r))),
        ),
        ("core.mechanism.cells_noised", cells_noised as f64),
        (
            "core.histogram.bins_enumerated_share",
            ratio(enumerated as f64, misses.len() as f64),
        ),
        ("core.laplace.draw_ns", draw_ns),
        ("db.execute_ns", p50(&execute_ns)),
        ("db.rows_scanned", rows_scanned as f64),
        ("db.rows_emitted", rows_emitted as f64),
        ("db.morsels", morsels as f64),
        (
            "db.ns_per_row_scanned",
            ratio(execute_total as f64, rows_scanned as f64),
        ),
        ("db.rows_per_s", rows_per_s),
        // The share of a computed request's serial latency that is
        // execution: what separates scan-cold from frontdoor-cold.
        (
            "db.execute_share",
            ratio(execute_total as f64, serial_miss.iter().sum::<u64>() as f64),
        ),
        ("db.roofline_share", ratio(rows_per_s, machine_rows_per_s)),
        (
            "db.vectorized_share",
            ratio(vectorized as f64, misses.len() as f64),
        ),
        ("db.parallel_ratio", ratio(sequential, parallel)),
        ("db.metrics.recompute_ms", recompute_ms),
        (
            "service.ledger.charge_settle_ns",
            median_u64(&charge_settle),
        ),
        (
            "service.ledger.charge_settle_wal_ns",
            wal_only(per_miss(&|r| at(&charge_ns, r) + at(&settle_ns, r))),
        ),
        ("service.wal.append_ns", median_u64(&append_ns)),
        (
            "service.wal.bytes_per_admission",
            ratio(serial.wal_bytes as f64, admissions),
        ),
        (
            "service.wal.fsyncs_per_admission",
            ratio(serial.wal_fsyncs as f64, admissions),
        ),
        // `service.rs` self time: queue push and pop, worker wake-up,
        // reply channel, PRF seeding, telemetry.
        (
            "service.handoff_ns",
            median_u64(&serial_miss) - per_miss(&pipeline_of),
        ),
        (
            "trace.overhead_ratio",
            ratio(traced_total as f64, serial_total as f64),
        ),
        (
            "trace.coverage",
            ratio(pipeline_total as f64, serial_total as f64),
        ),
        ("machine.sum_rows_per_s", machine_rows_per_s),
        ("machine.cores", cores() as f64),
    ];
    per_layer.extend(outcome.window.iter().copied());
    failures.extend(serial.failures.iter().cloned());
    Ok(Traced {
        per_layer,
        spans,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),     // root: 100 − (30 + 50)
            span(1, Some(0), 10, 40),  // child: 30 − 20
            span(2, Some(1), 15, 35),  // grandchild: counted once, in 1
            span(3, Some(0), 50, 100), // child with no children
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 50]);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut tr = Tracer::with_capacity(4);
        let root = tr.enter(7, "root");
        let inner = tr.span(7, "inner", || 42);
        tr.exit(root);
        tr.span(8, "after", || ());
        assert_eq!(inner, 42);
        let parents: Vec<_> = tr
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            parents,
            vec![("root", None, 7), ("inner", Some(0), 7), ("after", None, 8)]
        );
        assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(tr.spans[1].start_ns >= tr.spans[0].start_ns);
        assert!(tr.spans[1].end_ns <= tr.spans[0].end_ns);
    }
}
