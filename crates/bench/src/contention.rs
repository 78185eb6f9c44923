//! Service hot-path contention storms: multi-threaded cache-hit and
//! budget-admission throughput at 1→N threads.
//!
//! The elastic-sensitivity mechanism is cheap per query, so at service
//! scale the bottleneck is the bookkeeping *around* it. These scenarios
//! hammer exactly that bookkeeping — the sharded noisy-answer cache on
//! the hit path and the lock-striped [`BudgetLedger`] on the admission
//! path — with Zipf-skewed analysts and queries (hot keys collide on
//! shards, like production traffic does), and report throughput scaling
//! relative to one thread. On a serialized hot path the curve is flat;
//! with striped shards it should track the core count. Each thread draws
//! its whole request sequence before the storm starts, so the clock
//! times requests, not the sampler. A third storm, `contention-hot-text`
//! (reported, not gated), has every thread repeat one text: the case in
//! which a hit that writes a shared line serializes the threads.
//!
//! Determinism is asserted before anything is timed: the same seeded
//! service at cache/ledger shard counts 1, 4 and 16 must release
//! byte-identical rows — sharding is scheduling, never part of a noise
//! seed.

use flex_core::PrivacyParams;
use flex_db::Value as DbValue;
use flex_service::{BudgetLedger, LedgerPolicy, QueryService, ServiceConfig};
use flex_workloads::uber::{self, UberConfig};
use flex_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Thread counts each storm is driven at (the 1-thread run is the
/// scaling denominator).
pub const THREAD_STEPS: [usize; 5] = [1, 2, 4, 8, 16];

/// Cache-hit scaling floor at 4 threads, enforced on ≥ 4-core runners
/// (like the parallel execution scenarios' scaling floor).
pub const CACHE_SCALING_FLOOR_4: f64 = 2.0;

/// Cache-hit scaling floor at 16 threads, enforced on ≥ 8-core runners:
/// the acceptance bar for the sharded hot path.
pub const CACHE_SCALING_FLOOR_16: f64 = 4.0;

/// Distinct analysts driving the storms (Zipf-skewed).
const ANALYSTS: usize = 64;

/// Distinct warmed queries in the cache-hit pool (Zipf-skewed, so hot
/// queries really do collide on cache shards).
const QUERY_POOL: usize = 32;

/// One scaling-floor requirement: enforce `scaling ≥ floor` only when
/// the runner has at least `min_cores` cores; report otherwise.
#[derive(Debug, Clone)]
pub struct ScalingGate {
    /// Scenario name the gate belongs to.
    pub name: String,
    /// Thread count the scaling was measured at.
    pub threads: usize,
    /// Measured throughput scaling vs one thread.
    pub scaling: f64,
    /// Minimum acceptable scaling.
    pub floor: f64,
    /// Cores the runner needs before the floor is enforced.
    pub min_cores: usize,
}

/// The contention scenarios' results: JSON entries (shaped like the
/// exec_bench scenarios, `median_ns` included so the baseline regression
/// gate covers the 1-thread paths) plus the scaling gates.
#[derive(Debug)]
pub struct ContentionReport {
    /// `(scenario name, JSON entry)` pairs for the report artifact.
    pub scenarios: Vec<(String, Value)>,
    /// Scaling floors to enforce (conditioned on runner cores).
    pub gates: Vec<ScalingGate>,
}

/// Median wall time in ns over `iters` runs (after one warmup run).
fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The cache-hit pool: distinct canonical queries, all cheap.
fn pool_sql(i: usize) -> String {
    format!("SELECT COUNT(*) FROM trips WHERE fare > {i}")
}

/// Each thread's `per_thread` draws, from a stream seeded by `seed` plus
/// the thread index: made before a storm starts.
fn draws<T>(
    seed: u64,
    threads: usize,
    per_thread: usize,
    draw: impl Fn(&mut StdRng) -> T,
) -> Vec<Vec<T>> {
    (0..threads)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed + t as u64);
            (0..per_thread).map(|_| draw(&mut rng)).collect()
        })
        .collect()
}

/// Drive `per_thread` operations on each of `threads` barrier-started
/// threads; returns overall ops/sec: total ops over the time from the
/// first thread's start to the last thread's end. (Timing each thread
/// from its own start would let threads that outnumber the cores run one
/// after another and read as parallel.)
fn storm(threads: usize, per_thread: usize, op: impl Fn(usize, usize) + Sync) -> f64 {
    let barrier = Barrier::new(threads);
    let total = (threads * per_thread) as f64;
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                let op = &op;
                scope.spawn(move || {
                    barrier.wait();
                    let t0 = Instant::now();
                    for i in 0..per_thread {
                        op(t, i);
                    }
                    (t0, Instant::now())
                })
            })
            .collect();
        (handles.into_iter())
            .map(|h| h.join().expect("storm thread"))
            .collect()
    });
    let first = spans
        .iter()
        .map(|s| s.0)
        .min()
        .expect("at least one thread");
    let last = spans
        .iter()
        .map(|s| s.1)
        .max()
        .expect("at least one thread");
    total / (last - first).as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Scaling map + gate rows for one storm family, from its per-thread
/// ops/sec readings.
fn scenario_entry(median_1t_ns: u64, ops: &[(usize, f64)]) -> Value {
    let base = ops
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, o)| *o)
        .unwrap_or(1.0);
    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    json!({
        "median_ns": median_1t_ns,
        "threads": ops.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
        "ops_per_sec": Value::Object(
            ops.iter()
                .map(|(t, o)| (t.to_string(), Value::from(o.round())))
                .collect(),
        ),
        "scaling": Value::Object(
            ops.iter()
                .map(|(t, o)| (t.to_string(), Value::from(round2(o / base))))
                .collect(),
        ),
    })
}

fn scaling_at(ops: &[(usize, f64)], threads: usize) -> f64 {
    let base = ops.iter().find(|(t, _)| *t == 1).map(|(_, o)| *o);
    let at = ops.iter().find(|(t, _)| *t == threads).map(|(_, o)| *o);
    match (base, at) {
        (Some(b), Some(a)) if b > 0.0 => a / b,
        _ => 0.0,
    }
}

/// Run both storms and the shard-determinism assertions. `quick` shrinks
/// the database and per-thread op counts for CI.
pub fn run(quick: bool) -> ContentionReport {
    let (trips, cache_ops, admit_ops) = if quick {
        (10_000, 1_000, 2_000)
    } else {
        (20_000, 4_000, 8_000)
    };
    eprintln!("contention: generating uber database ({trips} trips)...");
    let db = Arc::new(uber::generate(&UberConfig {
        trips,
        drivers: 500,
        riders: 1_000,
        user_tags: 500,
        ..UberConfig::default()
    }));
    let params = PrivacyParams::new(0.01, 1e-9).expect("valid params");
    let service_at = |shards: usize| {
        QueryService::new(
            Arc::clone(&db),
            ServiceConfig {
                seed: Some(0xC047),
                cache_shards: shards,
                ledger_shards: shards,
                ..ServiceConfig::default()
            },
        )
    };

    // Determinism first: shard counts must be invisible in the released
    // bytes. Warm every pool query at 1/4/16 shards and compare rows.
    let reference: Vec<Vec<Vec<DbValue>>> = {
        let svc = service_at(1);
        (0..QUERY_POOL)
            .map(|i| {
                svc.query("warm", &pool_sql(i), params)
                    .expect("warm")
                    .rows
                    .to_vec()
            })
            .collect()
    };
    for shards in [4usize, 16] {
        let svc = service_at(shards);
        for (i, expect) in reference.iter().enumerate() {
            let got = svc.query("warm", &pool_sql(i), params).expect("warm").rows;
            assert_eq!(
                &*got, expect,
                "released bytes moved at {shards} shards (query {i}) — sharding leaked \
                 into a noise seed; refusing to benchmark"
            );
        }
    }
    eprintln!("contention: releases byte-identical at 1/4/16 shards");

    let mut scenarios = Vec::new();
    let mut gates = Vec::new();

    // ---- cache-hit storm: the full serving path on warmed queries ----
    {
        // Run this storm with the durable ledger enabled: cache hits
        // must never touch the write-ahead log (hits are free, nothing
        // is charged, nothing is logged), so the scaling floors have to
        // hold with fsync-per-admission durability turned on. Only the
        // warmup admissions pay for log writes.
        let wal_path =
            std::env::temp_dir().join(format!("flex-contention-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal_path);
        let svc = QueryService::new(
            Arc::clone(&db),
            ServiceConfig {
                seed: Some(0xC047),
                wal_path: Some(wal_path.clone()),
                ..ServiceConfig::default()
            },
        );
        let sqls: Vec<String> = (0..QUERY_POOL).map(pool_sql).collect();
        for (i, sql) in sqls.iter().enumerate() {
            let got = svc.query("warm", sql, params).expect("warm").rows;
            assert_eq!(*got, reference[i], "warmed release diverged");
        }
        let appends_after_warm = svc.telemetry().wal_appends;
        assert!(appends_after_warm > 0, "warm admissions must hit the WAL");
        let analysts: Vec<String> = (0..ANALYSTS).map(|i| format!("analyst-{i}")).collect();
        let query_zipf = Zipf::new(QUERY_POOL, 1.1);
        let analyst_zipf = Zipf::new(ANALYSTS, 1.1);

        let med = {
            let mut rng = StdRng::seed_from_u64(11);
            median_ns(cache_ops, || {
                let sql = &sqls[query_zipf.sample(&mut rng)];
                let analyst = &analysts[analyst_zipf.sample(&mut rng)];
                let r = svc.query(analyst, sql, params).expect("cache hit");
                assert!(r.from_cache, "pool query must hit the cache");
                std::hint::black_box(r);
            })
        };

        let mut ops = Vec::new();
        for threads in THREAD_STEPS {
            // Per-thread streams: deterministic skew, no shared state.
            let requests = draws(0x5708, threads, cache_ops, |rng| {
                (query_zipf.sample(rng), analyst_zipf.sample(rng))
            });
            let rate = storm(threads, cache_ops, |t, i| {
                let (sql, analyst) = requests[t][i];
                let (sql, analyst) = (&sqls[sql], &analysts[analyst]);
                std::hint::black_box(svc.query(analyst, sql, params).expect("cache hit"));
            });
            eprintln!("contention-cache-hit: {threads:>2} threads, {rate:>12.0} ops/sec");
            ops.push((threads, rate));
        }
        scenarios.push((
            "contention-cache-hit".to_string(),
            scenario_entry(med, &ops),
        ));
        gates.push(ScalingGate {
            name: "contention-cache-hit".to_string(),
            threads: 4,
            scaling: scaling_at(&ops, 4),
            floor: CACHE_SCALING_FLOOR_4,
            min_cores: 4,
        });
        gates.push(ScalingGate {
            name: "contention-cache-hit".to_string(),
            threads: 16,
            scaling: scaling_at(&ops, 16),
            floor: CACHE_SCALING_FLOOR_16,
            min_cores: 8,
        });

        // Every thread repeats the hottest text, as its own analyst.
        // Reported, not gated: it shows whether one hot text serializes.
        let hot = &sqls[0];
        let med = median_ns(cache_ops, || {
            std::hint::black_box(svc.query(&analysts[0], hot, params).expect("cache hit"));
        });
        let mut ops = Vec::new();
        for threads in THREAD_STEPS {
            let rate = storm(threads, cache_ops, |t, _| {
                let analyst = &analysts[t % ANALYSTS];
                std::hint::black_box(svc.query(analyst, hot, params).expect("cache hit"));
            });
            eprintln!("contention-hot-text: {threads:>2} threads, {rate:>12.0} ops/sec");
            ops.push((threads, rate));
        }
        scenarios.push(("contention-hot-text".to_string(), scenario_entry(med, &ops)));
        let t = svc.telemetry();
        assert_eq!(t.failed, 0, "storm must not fail queries: {t}");
        assert_eq!(
            t.wal_appends, appends_after_warm,
            "cache hits must never touch the WAL: {t}"
        );
        assert_eq!(t.wal_errors, 0, "storm must not poison the WAL: {t}");
        let _ = std::fs::remove_file(&wal_path);
    }

    // ---- admission storm: charge + settle on the striped ledger ----
    {
        // Huge caps: the storm measures admission bookkeeping, not
        // rejection. Zipf-skewed analysts, so hot accounts collide on
        // their shard exactly as a heavy-hitter analyst would.
        let ledger = BudgetLedger::new(LedgerPolicy::sequential(1e12, 1.0));
        let analysts: Vec<String> = (0..ANALYSTS).map(|i| format!("analyst-{i}")).collect();
        let analyst_zipf = Zipf::new(ANALYSTS, 1.1);

        let med = {
            let mut rng = StdRng::seed_from_u64(13);
            median_ns(admit_ops, || {
                let analyst = &analysts[analyst_zipf.sample(&mut rng)];
                let c = ledger.try_charge(analyst, 1e-6, 1e-12).expect("admit");
                ledger.settle(&c);
            })
        };

        let mut ops = Vec::new();
        for threads in THREAD_STEPS {
            let by = draws(0xAD31, threads, admit_ops, |rng| analyst_zipf.sample(rng));
            let rate = storm(threads, admit_ops, |t, i| {
                let c = (ledger.try_charge(&analysts[by[t][i]], 1e-6, 1e-12)).expect("admit");
                ledger.settle(&c);
            });
            eprintln!("contention-admission: {threads:>2} threads, {rate:>12.0} ops/sec");
            ops.push((threads, rate));
        }
        scenarios.push((
            "contention-admission".to_string(),
            scenario_entry(med, &ops),
        ));
        // Reported, not gated: admission shares one global charge-id
        // counter by design (charge-id uniqueness), so its ceiling is
        // lower than the cache hit path's; the baseline regression gate
        // still bounds its 1-thread median.
    }

    ContentionReport { scenarios, gates }
}

/// Enforce `gates` given the runner's core count. Returns `true` if any
/// enforced gate failed; under-provisioned runners report instead of
/// flaking, like the parallel-execution scaling floors.
pub fn enforce_gates(gates: &[ScalingGate], available_cores: usize) -> bool {
    let mut failed = false;
    for g in gates {
        if available_cores >= g.min_cores {
            if g.scaling < g.floor {
                eprintln!(
                    "REGRESSION GATE: `{}` scales only {:.2}x at {} threads (floor {}x)",
                    g.name, g.scaling, g.threads, g.floor
                );
                failed = true;
            } else {
                eprintln!(
                    "gate ok: `{}` scaling {:.2}x at {} threads (floor {}x)",
                    g.name, g.scaling, g.threads, g.floor
                );
            }
        } else {
            eprintln!(
                "runner has {available_cores} core(s) < {}: reporting `{}` scaling \
                 {:.2}x at {} threads without enforcing its {}x floor",
                g.min_cores, g.name, g.scaling, g.threads, g.floor
            );
        }
    }
    failed
}
