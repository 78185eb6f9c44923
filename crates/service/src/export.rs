//! Metrics exposition: one [`MetricsReport`] per scrape, rendered as
//! Prometheus text format ([`MetricsReport::prometheus`]) or a JSON
//! document ([`MetricsReport::to_json`]).
//!
//! The report joins two sources: the service's [`TelemetrySnapshot`]
//! (counters, latency histograms, slow-query log) and
//! the [`BudgetLedger`]'s per-analyst budget burn. Exposition carries
//! only operational data — canonical query text, counts and timings —
//! never result rows or raw data values.

use crate::ledger::BudgetLedger;
use crate::telemetry::{Kind, LatencySnapshot, SlowQuery, TelemetrySnapshot, LATENCIES, SCALARS};
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::time::Duration;

/// One analyst's budget burn, read from the ledger at report time.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalystBudget {
    /// Analyst name (ledger account key).
    pub analyst: String,
    /// Settled `ε` spend (refunded charges excluded).
    pub epsilon_spent: f64,
    /// Settled `δ` spend.
    pub delta_spent: f64,
    /// `ε` headroom under the analyst's cap.
    pub epsilon_remaining: f64,
    /// Released (charged) queries.
    pub queries: u32,
}

/// One row of [`ANALYST_GAUGES`]: a per-analyst gauge labelled by
/// `analyst` in Prometheus and keyed by `key` in each JSON analyst entry.
#[derive(Debug, Clone, Copy)]
pub struct AnalystGauge {
    /// JSON key.
    pub key: &'static str,
    /// Prometheus metric name.
    pub prometheus: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// Reads the value out of one analyst's budget.
    pub get: fn(&AnalystBudget) -> f64,
}

/// Every per-analyst gauge, in exposition order.
pub const ANALYST_GAUGES: &[AnalystGauge] = &[
    AnalystGauge {
        key: "epsilon_spent",
        prometheus: "flex_analyst_epsilon_spent",
        help: "Settled epsilon spend per analyst.",
        get: |a| a.epsilon_spent,
    },
    AnalystGauge {
        key: "delta_spent",
        prometheus: "flex_analyst_delta_spent",
        help: "Settled delta spend per analyst.",
        get: |a| a.delta_spent,
    },
    AnalystGauge {
        key: "epsilon_remaining",
        prometheus: "flex_analyst_epsilon_remaining",
        help: "Epsilon headroom under the analyst's cap.",
        get: |a| a.epsilon_remaining,
    },
    AnalystGauge {
        key: "queries",
        prometheus: "flex_analyst_queries",
        help: "Released (charged) queries per analyst.",
        get: |a| f64::from(a.queries),
    },
];

/// The one derived gauge, `(prometheus name, help)`: a ratio of two
/// [`SCALARS`] counters ([`TelemetrySnapshot::wal_records_per_fsync`]),
/// exported so group commit and never-synced settles show without a
/// query language. JSON key `wal_records_per_fsync`, after the
/// histograms.
pub const WAL_RECORDS_PER_FSYNC: (&str, &str) = (
    "flex_wal_records_per_fsync",
    "WAL records written per durability sync (1 = a sync per record).",
);

/// A complete metrics report: telemetry plus per-analyst budget gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// The service-wide telemetry snapshot.
    pub telemetry: TelemetrySnapshot,
    /// Sorted by analyst name for stable exposition order.
    pub analysts: Vec<AnalystBudget>,
}

impl MetricsReport {
    /// Snapshot the ledger's per-analyst budgets next to `telemetry`.
    pub fn new(telemetry: TelemetrySnapshot, ledger: &BudgetLedger) -> Self {
        // `analysts()` returns sorted names; keep that order.
        let analysts = ledger
            .analysts()
            .into_iter()
            .map(|analyst| {
                let (epsilon_spent, delta_spent) = ledger.spent(&analyst);
                AnalystBudget {
                    epsilon_remaining: ledger.remaining_epsilon(&analyst),
                    queries: ledger.queries(&analyst),
                    analyst,
                    epsilon_spent,
                    delta_spent,
                }
            })
            .collect();
        MetricsReport {
            telemetry,
            analysts,
        }
    }

    /// Render the report in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` comments, one sample per line,
    /// label values escaped per the spec. Every [`SCALARS`] row grouped
    /// by kind, [`WAL_RECORDS_PER_FSYNC`], the [`LATENCIES`] histograms as summaries (`quantile` labels plus
    /// `_sum`/`_count`), then [`ANALYST_GAUGES`]; the slow-query log is
    /// JSON-only (Prometheus samples are numeric).
    pub fn prometheus(&self) -> String {
        let t = &self.telemetry;
        let mut out = String::new();
        let header = |out: &mut String, name: &str, help: &str, kind: &str| {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        };
        // Exposition order: counters, then gauges.
        for kind in [Kind::Counter, Kind::Gauge] {
            for m in SCALARS.iter().filter(|m| m.kind == kind) {
                let name = m.prometheus;
                header(&mut out, name, m.help, kind.prometheus_type());
                let _ = writeln!(out, "{name} {}", (m.get)(t));
            }
        }
        let (name, help) = WAL_RECORDS_PER_FSYNC;
        header(&mut out, name, help, "gauge");
        let _ = writeln!(out, "{name} {}", fmt_f64(t.wal_records_per_fsync()));
        for m in LATENCIES {
            let (name, snap) = (m.prometheus, (m.get)(t));
            header(&mut out, name, m.help, "summary");
            let quantiles = [
                ("0.5", snap.p50()),
                ("0.95", snap.p95()),
                ("0.99", snap.p99()),
            ];
            for (q, v) in quantiles {
                let v = fmt_f64(v.as_secs_f64());
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum {}", fmt_f64(snap.sum().as_secs_f64()));
            let _ = writeln!(out, "{name}_count {}", snap.count());
        }
        for m in ANALYST_GAUGES {
            let name = m.prometheus;
            header(&mut out, name, m.help, "gauge");
            for a in &self.analysts {
                let (analyst, value) = (escape_label(&a.analyst), fmt_f64((m.get)(a)));
                let _ = writeln!(out, "{name}{{analyst=\"{analyst}\"}} {value}");
            }
        }
        out
    }

    /// Render the report as a JSON document (durations in nanoseconds,
    /// quantiles precomputed, slow-query log included): the `telemetry`
    /// object holds every [`SCALARS`] and [`LATENCIES`] row under its
    /// key, each `analysts` entry every [`ANALYST_GAUGES`] row. Parses
    /// back with `serde_json::from_str` — see the round-trip test.
    pub fn to_json(&self) -> Value {
        let t = &self.telemetry;
        let entry = |key: &str, value: Value| (key.to_string(), value);
        let mut telemetry = Vec::new();
        for m in SCALARS {
            telemetry.push(entry(m.key, (m.get)(t).into()));
        }
        for m in LATENCIES {
            telemetry.push(entry(m.key, latency_json((m.get)(t))));
        }
        telemetry.push(entry(
            "wal_records_per_fsync",
            t.wal_records_per_fsync().into(),
        ));
        let analyst_json = |a: &AnalystBudget| {
            let gauges = ANALYST_GAUGES
                .iter()
                .map(|m| entry(m.key, (m.get)(a).into()));
            let name = entry("analyst", Value::from(&a.analyst));
            Value::Object(std::iter::once(name).chain(gauges).collect())
        };
        json!({
            "telemetry": Value::Object(telemetry),
            "slow_queries": t.slow_queries.iter().map(slow_query_json).collect::<Vec<Value>>(),
            "analysts": self.analysts.iter().map(analyst_json).collect::<Vec<Value>>()
        })
    }

    /// The JSON report, pretty-printed.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("json render is total")
    }
}

/// Escape a Prometheus label value: backslash, double quote and newline,
/// per the text exposition format.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Format an `f64` sample so the output is always a valid Prometheus
/// float (no NaN from 0/0 upstream — callers guarantee finiteness, this
/// clamps just in case).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn latency_json(snap: &LatencySnapshot) -> Value {
    json!({
        "count": snap.count(),
        "sum_ns": snap.sum_ns,
        "mean_ns": snap.mean().as_nanos() as u64,
        "p50_ns": snap.p50().as_nanos() as u64,
        "p95_ns": snap.p95().as_nanos() as u64,
        "p99_ns": snap.p99().as_nanos() as u64
    })
}

fn slow_query_json(q: &SlowQuery) -> Value {
    let ns = |d: Duration| d.as_nanos() as u64;
    json!({
        "analyst": q.analyst,
        "canonical_sql": q.canonical_sql,
        "epsilon": q.epsilon,
        "delta": q.delta,
        "total_ns": ns(q.trace.total()),
        "spans_ns": {
            "parse": ns(q.trace.parse),
            "canonicalize": ns(q.trace.canonicalize),
            "admission": ns(q.trace.admission),
            "queue": ns(q.trace.queue),
            "analysis": ns(q.trace.analysis),
            "execution": ns(q.trace.execution),
            "perturbation": ns(q.trace.perturbation),
            "durability": ns(q.trace.durability)
        },
        "topk": q.trace.exec.topk,
        "morsels": q.trace.exec.morsels,
        "workers": q.trace.exec.workers,
        "rows_scanned": q.trace.exec.rows_scanned,
        "rows_emitted": q.trace.exec.rows_emitted
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerPolicy;
    use crate::telemetry::{QueryTrace, Telemetry};
    use flex_db::ExecTrace;

    /// A report in which every [`SCALARS`] row holds its own value
    /// (`1000 + row index`), two queries completed (one slow-logged) and
    /// two analysts spent budget — one with a name that needs label
    /// escaping.
    fn sample_report() -> MetricsReport {
        let t = Telemetry::default();
        let trace = QueryTrace {
            analysis: Duration::from_micros(250),
            execution: Duration::from_micros(900),
            perturbation: Duration::from_micros(40),
            ..QueryTrace::new(ExecTrace {
                topk: true,
                morsels: 2,
                workers: 4,
                rows_scanned: 8192,
                rows_emitted: 3,
                ..ExecTrace::default()
            })
        };
        t.record_completed(&trace);
        t.record_release(SlowQuery {
            analyst: "alice".to_string(),
            canonical_sql: "SELECT COUNT(*) FROM trips".to_string(),
            epsilon: 0.5,
            delta: 1e-9,
            trace,
        });
        t.record_completed(&trace);
        for (i, m) in SCALARS.iter().enumerate() {
            t.set(m.metric, 1000 + i as u64);
        }

        let ledger = BudgetLedger::new(LedgerPolicy::sequential(10.0, 1e-4));
        let c = ledger.try_charge("alice", 0.5, 1e-9).unwrap();
        ledger.settle(&c);
        let c = ledger
            .try_charge("bob \"the\\analyst\"", 1.0, 1e-9)
            .unwrap();
        ledger.settle(&c);
        MetricsReport::new(t.snapshot(), &ledger)
    }

    /// Every name any renderer exports, across the three tables.
    fn exported_names() -> Vec<&'static str> {
        let scalars = SCALARS.iter().map(|m| m.prometheus);
        let latencies = LATENCIES.iter().map(|m| m.prometheus);
        let analysts = ANALYST_GAUGES.iter().map(|m| m.prometheus);
        scalars
            .chain([WAL_RECORDS_PER_FSYNC.0])
            .chain(latencies)
            .chain(analysts)
            .collect()
    }

    /// Every non-comment line of the Prometheus rendering must be a
    /// valid sample: `name{labels} value` with a parseable, finite
    /// value and a well-formed metric name.
    #[test]
    fn prometheus_text_is_well_formed() {
        let text = sample_report().prometheus();
        assert!(text.ends_with('\n'), "exposition must end with a newline");
        let mut samples = 0;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let name = series.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name: {line}"
            );
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(
                        rest.starts_with('{') && rest.ends_with('}'),
                        "labels: {line}"
                    );
                }
            }
            let v: f64 = value.parse().unwrap_or_else(|_| panic!("value: {line}"));
            assert!(v.is_finite(), "non-finite sample: {line}");
            samples += 1;
        }
        assert!(samples >= 30, "expected a full exposition, got {samples}");
    }

    /// The one test of the metric tables: every row shows up exactly
    /// once, with its own value, in `Display`, in Prometheus (`# HELP`,
    /// `# TYPE` and sample) and in JSON; names and keys are unique and
    /// well formed.
    #[test]
    fn every_table_row_appears_once_in_every_rendering() {
        let report = sample_report();
        let t = &report.telemetry;
        let (display, prom) = (t.to_string(), report.prometheus());
        let json = serde_json::from_str(&report.to_json_string()).expect("valid JSON");
        let telemetry = json.get("telemetry").unwrap();
        let once = |text: &str, line: String| {
            let n = text.lines().filter(|l| *l == line).count();
            assert_eq!(n, 1, "`{line}` appears {n} times in:\n{text}");
        };

        let names = exported_names();
        for (i, name) in names.iter().enumerate() {
            assert!(
                name.starts_with("flex_")
                    && name.bytes().all(|b| b == b'_' || b.is_ascii_lowercase()),
                "{name} must match [a-z_]+"
            );
            assert!(!names[..i].contains(name), "{name} is declared twice");
        }

        for (i, m) in SCALARS.iter().enumerate() {
            let (name, value) = (m.prometheus, 1000 + i as u64);
            assert_eq!((m.get)(t), value, "{}", m.key);
            once(&display, format!("  {:<18}{value:>10}", m.label));
            once(&prom, format!("# HELP {name} {}", m.help));
            once(&prom, format!("# TYPE {name} {}", m.kind.prometheus_type()));
            once(&prom, format!("{name} {value}"));
            assert_eq!(telemetry.get(m.key).unwrap().as_i64(), Some(value as i64));
        }

        for m in LATENCIES {
            let (name, snap) = (m.prometheus, (m.get)(t));
            assert_eq!(snap.count(), 2, "{}", m.key);
            assert_eq!(display.matches(&format!("\n  {:<22}p50", m.key)).count(), 1);
            once(&prom, format!("# HELP {name} {}", m.help));
            once(&prom, format!("# TYPE {name} summary"));
            once(&prom, format!("{name}_count 2"));
            assert_eq!(prom.matches(&format!("\n{name}{{quantile=")).count(), 3);
            let entry = telemetry.get(m.key).unwrap();
            assert_eq!(entry.get("count").unwrap().as_i64(), Some(2));
            assert_eq!(
                entry.get("sum_ns").unwrap().as_i64(),
                Some(snap.sum_ns as i64)
            );
        }

        let analysts = json.get("analysts").unwrap().as_array().unwrap();
        assert_eq!(analysts.len(), 2);
        assert_eq!(analysts[0].get("analyst").unwrap().as_str(), Some("alice"));
        for m in ANALYST_GAUGES {
            let name = m.prometheus;
            once(&prom, format!("# HELP {name} {}", m.help));
            once(&prom, format!("# TYPE {name} gauge"));
            assert_eq!(prom.matches(&format!("\n{name}{{analyst=")).count(), 2);
            for (a, entry) in report.analysts.iter().zip(analysts) {
                assert_eq!(entry.get(m.key).unwrap().as_f64(), Some((m.get)(a)));
            }
        }
        // Label escaping: quote and backslash in the analyst name.
        once(
            &prom,
            "flex_analyst_epsilon_spent{analyst=\"bob \\\"the\\\\analyst\\\"\"} 1".to_string(),
        );

        // No key is emitted twice (the parser keeps duplicates).
        let serde_json::Value::Object(entries) = telemetry else {
            panic!("telemetry is an object");
        };
        assert_eq!(entries.len(), SCALARS.len() + LATENCIES.len() + 1);
        for (i, (key, _)) in entries.iter().enumerate() {
            assert!(entries[..i].iter().all(|(k, _)| k != key), "{key} twice");
        }
    }

    /// README's exposition paragraph must name every exported metric.
    #[test]
    fn readme_names_every_exported_metric() {
        let readme = include_str!("../../../README.md");
        for name in exported_names() {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md omits `{name}`"
            );
        }
    }

    /// The JSON export round-trips through the parser, and the parsed
    /// tree carries the slow-query log.
    #[test]
    fn json_export_round_trips() {
        let text = sample_report().to_json_string();
        let parsed = serde_json::from_str(&text).expect("valid JSON");
        // Print → parse is a fixpoint: re-rendering the parsed tree
        // reproduces the exposition byte for byte. (Value-level equality
        // with `to_json()` would be too strict — the printer renders
        // whole floats like `1.0` as `1`, which parse back as integers.)
        let reprinted = serde_json::to_string_pretty(&parsed).unwrap();
        assert_eq!(reprinted, text, "print(parse(text)) == text");

        let slow = parsed.get("slow_queries").unwrap().as_array().unwrap();
        assert_eq!(slow.len(), 1, "one query was offered to the slow log");
        assert_eq!(
            slow[0].get("canonical_sql").unwrap().as_str(),
            Some("SELECT COUNT(*) FROM trips")
        );
        assert_eq!(slow[0].get("rows_scanned").unwrap().as_i64(), Some(8192));
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let ledger = BudgetLedger::new(LedgerPolicy::sequential(1.0, 1e-6));
        let report = MetricsReport::new(Telemetry::default().snapshot(), &ledger);
        let text = report.prometheus();
        assert!(text.contains("flex_queries_submitted_total 0"));
        assert!(!text.contains("NaN"), "empty report leaked NaN:\n{text}");
        let parsed = serde_json::from_str(&report.to_json_string()).unwrap();
        assert_eq!(
            parsed.get("analysts").unwrap().as_array().map(Vec::len),
            Some(0)
        );
    }
}
