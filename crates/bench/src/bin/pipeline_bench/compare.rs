//! `pipeline_bench compare <dir-a> <dir-b>`: two result sets, one row
//! per (workload, end-to-end metric), judged against the bounds in
//! `BENCHMARK.json`. `a` is the reference (the parent commit, or the
//! first of two runs of one commit); `b` is what is being judged.

use crate::{benchmark, declared, Declared, NOISY_SLICE_CV};
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics that do not depend on time and repeat exactly for
/// a seed. Between two runs of one seed they are held to a bound of 0:
/// any worsening is a change in behaviour, not noise. (Across seeds they
/// vary with the data, and the bound in `BENCHMARK.json` applies.) A
/// noisy run never makes them `unresolved`.
const EXACT_PER_SEED: [&str; 2] = ["epsilon_per_request", "median_rel_error_pct"];

fn exact_per_seed(metric: &Declared) -> bool {
    EXACT_PER_SEED.contains(&metric.name.as_str())
}

/// The bound `compare` holds `metric` to.
fn bound_for(metric: &Declared, same_seed: bool) -> f64 {
    if same_seed && exact_per_seed(metric) {
        0.0
    } else {
        metric.bound.unwrap_or(0.0)
    }
}

/// What one (workload, metric) pair shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, on runs steady enough to tell.
    Unchanged,
    /// Within the bound, but a side's slice spread exceeds the bound (or
    /// [`NOISY_SLICE_CV`], whichever is smaller), so a difference of that
    /// size could not have been seen.
    Unresolved,
    /// `b` is worse than `a` by more than the bound.
    Worse,
}

/// Share of `a` by which `b` is worse (negative when `b` is better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -rel
    } else {
        rel
    }
}

pub fn verdict(better: &str, bound: f64, a: f64, b: f64, slice_cv: f64) -> Verdict {
    if worsening(better, a, b) > bound {
        Verdict::Worse
    } else if a != b && slice_cv > bound.min(NOISY_SLICE_CV) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn load(dir: &Path, workload: &str) -> Result<Value, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(doc: &Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no number at {}", path.join(".")))
}

pub fn run(dir_a: &Path, dir_b: &Path) -> ExitCode {
    let metrics = declared("end_to_end");
    let bench = benchmark();
    let workloads = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists workloads");
    println!(
        "{:<15} {:<22} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b vs a", "bound"
    );
    let mut worse = 0;
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap_or_default();
        let (a, b) = match (load(dir_a, name), load(dir_b, name)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        for (side, doc) in [("a", &a), ("b", &b)] {
            if doc.get("correct") != Some(&Value::Bool(true)) {
                println!("{name:<15} side {side} failed its own output checks");
                worse += 1;
            }
        }
        let same_seed = a.get("seed") == b.get("seed");
        if !same_seed {
            println!("{name:<15} note: the two sides ran different seeds");
        }
        let slice_cv = [&a, &b]
            .iter()
            .map(|doc| number(doc, &["window", "client.slice_cv"]).unwrap_or(f64::INFINITY))
            .fold(0.0, f64::max);
        for m in &metrics {
            let path = ["end_to_end", m.name.as_str(), "value"];
            let (va, vb) = match (number(&a, &path), number(&b, &path)) {
                (Ok(va), Ok(vb)) => (va, vb),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::from(2);
                }
            };
            let bound = bound_for(m, same_seed);
            let spread = if exact_per_seed(m) { 0.0 } else { slice_cv };
            let v = verdict(&m.better, bound, va, vb, spread);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{name:<15} {:<22} {va:>16.4} {vb:>16.4} {:>+8.2}% {:>5.0}%  {}",
                m.name,
                100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE),
                100.0 * bound,
                match v {
                    Verdict::Unchanged => "unchanged",
                    Verdict::Unresolved => "unresolved (slice_cv too high to tell)",
                    Verdict::Worse => "WORSE than the bound allows",
                }
            );
        }
        let digests = (a.get("release_digest"), b.get("release_digest"));
        if same_seed && digests.0 != digests.1 {
            println!("{name:<15} release_digest differs: {digests:?}");
            worse += 1;
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{worse} pair(s) past a bound or failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verdict on `b` against a reference value of 100.
    fn v(better: &str, bound: f64, b: f64, slice_cv: f64) -> Verdict {
        verdict(better, bound, 100.0, b, slice_cv)
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert_eq!(v("lower", 0.10, 109.0, 0.01), Verdict::Unchanged);
        assert_eq!(v("lower", 0.10, 111.0, 0.01), Verdict::Worse);
        assert_eq!(v("lower", 0.10, 50.0, 0.01), Verdict::Unchanged);
        assert_eq!(v("higher", 0.10, 91.0, 0.01), Verdict::Unchanged);
        assert_eq!(v("higher", 0.10, 89.0, 0.01), Verdict::Worse);
        assert_eq!(v("higher", 0.10, 200.0, 0.01), Verdict::Unchanged);
    }

    #[test]
    fn noisy_sides_are_unresolved_not_unchanged() {
        assert_eq!(v("lower", 0.05, 101.0, 0.07), Verdict::Unresolved);
        assert_eq!(v("lower", 0.05, 100.0, 0.07), Verdict::Unchanged);
        // A wide bound does not make a noisy run trustworthy: the slice
        // spread is held to NOISY_SLICE_CV as well.
        assert_eq!(v("lower", 0.25, 101.0, 0.09), Verdict::Unchanged);
        assert_eq!(v("lower", 0.25, 101.0, 0.12), Verdict::Unresolved);
        // Past the bound stays a failure however noisy the run was.
        assert_eq!(v("lower", 0.10, 120.0, 0.20), Verdict::Worse);
    }

    #[test]
    fn per_seed_exact_metrics_get_no_slack_on_one_seed() {
        let error = Declared {
            name: "median_rel_error_pct".into(),
            unit: "%".into(),
            better: "lower".into(),
            bound: Some(0.25),
        };
        assert_eq!(bound_for(&error, false), 0.25);
        assert_eq!(bound_for(&error, true), 0.0);
        assert!(exact_per_seed(&error));
        // A 1 % accuracy loss on the same seed is a regression.
        assert_eq!(v("lower", 0.0, 101.0, 0.0), Verdict::Worse);
        assert_eq!(v("lower", 0.0, 100.0, 0.0), Verdict::Unchanged);
        assert_eq!(v("lower", 0.0, 99.0, 0.0), Verdict::Unchanged);
        let timing = Declared {
            name: "latency_p50_us".into(),
            ..error
        };
        assert_eq!(bound_for(&timing, true), 0.25);
        assert!(!exact_per_seed(&timing));
    }
}
