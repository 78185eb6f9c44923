//! `pipeline_bench` — the repo's end-to-end benchmark: four traffic
//! mixes through `QueryService::submit`, the end-to-end metrics named
//! in `BENCHMARK.json`, and a per-layer trace timed from outside.
//!
//! ```text
//! pipeline_bench --seed <u64>                       every workload, one child process each
//! pipeline_bench --seed <u64> --workload <name> [--seconds <n>] [--trace 0|1] [--smoke]
//! pipeline_bench compare <dir-a> <dir-b>            two result sets against the bounds
//! ```
//!
//! See `README.md` beside this file for the metric and workload glossary.

mod compare;
mod run;
mod stats;
mod trace;
mod workload;

use run::Options;
use serde_json::{json, Value};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's contract: workloads, metrics, units, directions and
/// bounds. Compiled in, so the names this binary prints and the bounds
/// `compare` applies cannot drift from what the driver reads.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// The timed window `W`: one constant, the same on every commit
/// (`run_seconds` in `BENCHMARK.json`).
const WINDOW_S: f64 = 15.0;
const WARMUP_S: f64 = 3.0;

/// Above this spread of the window's 1-s slices a result is flagged as
/// noisy instead of being printed as a bare number.
pub const NOISY_SLICE_CV: f64 = 0.10;

const RESULTS_DIR: &str = "results/pipeline";

/// One declared metric of `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

pub fn benchmark() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// The metrics of one section (`end_to_end` or `per_layer`), in file order.
pub fn declared(section: &str) -> Vec<Declared> {
    let text = |m: &Value, key: &str| {
        m.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {section} metric without `{key}`"))
            .to_string()
    };
    benchmark()
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no `{section}` list"))
        .iter()
        .map(|m| Declared {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// `{name: {value, unit}}` for every metric the section declares; an
/// undeclared or missing name is an error, so the printed set is exactly
/// the declared one.
fn render(section: &str, values: &[(&'static str, f64)]) -> Result<Value, String> {
    let declared = declared(section);
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !declared.iter().any(|d| d.name == *n))
    {
        return Err(format!("{name} is measured but not declared in {section}"));
    }
    let mut out = Vec::with_capacity(declared.len());
    for d in declared {
        let (_, value) = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .ok_or_else(|| format!("{} is declared in {section} but not measured", d.name))?;
        out.push((d.name, json!({"value": *value, "unit": d.unit})));
    }
    Ok(Value::Object(out))
}

fn print_metrics(workload: &str, metrics: &Value) {
    for (name, m) in metrics.as_object().into_iter().flatten() {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("{workload:<15} {name:<36} {value:>18.4} {unit}");
    }
}

fn write_json(dir: &Path, file: &str, value: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let text = serde_json::to_string_pretty(value).expect("json renders");
    std::fs::write(dir.join(file), text + "\n").map_err(|e| format!("write {file}: {e}"))
}

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    "usage: pipeline_bench --seed <u64> [--workload <name>] [--seconds <n>] [--trace 0|1] [--smoke]\n       \
     pipeline_bench compare <dir-a> <dir-b>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut seed = None;
    let mut parsed = Args {
        seed: 0,
        workload: None,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must lie in (0, 3600], got {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    // No default: a seed baked into the binary would end up in every
    // recorded result without anyone having chosen it.
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}

fn options(args: &Args) -> Options {
    let (window, warmup) = if args.smoke {
        (1.0, 0.3)
    } else {
        (WINDOW_S, WARMUP_S)
    };
    Options {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds.unwrap_or(window)),
        warmup: Duration::from_secs_f64(warmup),
        smoke: args.smoke,
        trace: args.trace,
    }
}

/// Run one workload, print its metrics, write its result files, and
/// return the driver's result line.
fn measure(name: &str, opts: &Options, dir: &Path) -> Result<(Value, bool), String> {
    let spec = workload::spec(name).ok_or_else(|| {
        let known: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let mut outcome = run::run_workload(spec, opts)?;
    let end_to_end = render("end_to_end", &outcome.end_to_end)?;

    let mut per_layer = None;
    if opts.trace {
        let traced = trace::traced_pass(&outcome, opts)?;
        outcome.checks.push(run::Check {
            name: "traced pass: true_rows equal bare execute, label cells un-noised",
            ok: traced.failures.is_empty(),
            detail: traced
                .failures
                .first()
                .map_or_else(|| "no failures".to_string(), String::clone),
        });
        let metrics = render("per_layer", &traced.per_layer)?;
        let spans: Vec<Value> = traced
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": s.parent,
                    "request": s.request,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns
                })
            })
            .collect();
        write_json(
            dir,
            &format!("trace_{name}.json"),
            &json!({
                "workload": name,
                "seed": opts.seed,
                "requests": outcome.serial.latencies_ns.len(),
                "per_layer": metrics,
                "spans": spans
            }),
        )?;
        per_layer = Some(metrics);
    }

    let correct = outcome.correct();
    let noisy = outcome.slice_cv > NOISY_SLICE_CV;
    let checks: Vec<Value> = outcome
        .checks
        .iter()
        .map(|c| json!({"name": c.name, "ok": c.ok, "detail": c.detail}))
        .collect();
    let window: Vec<(String, Value)> = outcome
        .window
        .iter()
        .map(|(n, v)| (n.to_string(), json!(*v)))
        .collect();
    write_json(
        dir,
        &format!("{name}.json"),
        &json!({
            "workload": name,
            "seed": opts.seed,
            "window_s": opts.window.as_secs_f64(),
            "smoke": opts.smoke,
            "clients": outcome.clients,
            "machine": {"cores": run::cores(), "sum_rows_per_s": outcome.machine_rows_per_s},
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "samples": outcome.samples,
            "noisy": noisy,
            "slices_qps": outcome.slices,
            "release_digest": format!("{:016x}", outcome.serial.release_digest),
            "end_to_end": end_to_end,
            "window": Value::Object(window),
            "checks": checks
        }),
    )?;

    print_metrics(name, &end_to_end);
    if let Some(metrics) = &per_layer {
        print_metrics(name, metrics);
    }
    println!(
        "{name:<15} seed {} · {} clients on {} cores · {} samples · release_digest {:016x}",
        opts.seed,
        outcome.clients,
        run::cores(),
        outcome.samples,
        outcome.serial.release_digest
    );
    if noisy {
        println!(
            "{name:<15} NOISY: client.slice_cv = {:.3} > {NOISY_SLICE_CV}; \
             treat this run's timings as unresolved",
            outcome.slice_cv
        );
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("{name:<15} {verdict} {} ({})", c.name, c.detail);
    }
    let line = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": per_layer.unwrap_or(end_to_end)
    });
    Ok((line, correct))
}

/// Every workload in its own process, so `peak_rss_mb` is per workload.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for spec in workload::SPECS {
        let status = std::process::Command::new(&exe)
            .args(raw)
            .args(["--workload", spec.name, "--trace", "1"])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(spec.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return match raw.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return run_all(&raw);
    };
    match measure(name, &options(&args), Path::new(RESULTS_DIR)) {
        Ok((line, correct)) => {
            println!("{}", serde_json::to_string(&line).expect("json renders"));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seed_is_required_and_flags_parse() {
        assert!(parse_args(&strings(&["--workload", "repeat-hot"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1", "--seconds", "0"])).is_err());
        let a = parse_args(&strings(&[
            "--workload",
            "scan-cold",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.seed, a.workload.as_deref(), a.trace),
            (9, Some("scan-cold"), true)
        );
        assert_eq!(options(&a).window, Duration::from_secs(10));
    }

    #[test]
    fn benchmark_json_names_the_workloads_and_the_window() {
        let b = benchmark();
        let names: Vec<&str> = b
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let specs: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, specs);
        assert_eq!(b.get("run_seconds").and_then(Value::as_f64), Some(WINDOW_S));
        assert!(declared("end_to_end").iter().all(|d| d.bound.is_some()));
        assert!(declared("end_to_end").iter().any(|d| d.name == "setup_s"));
    }

    /// A `--smoke` run of all four workloads passes its own checks and
    /// prints exactly the declared metrics (`render` rejects any other
    /// set).
    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        let dir = Path::new("target/bench-tmp").join(format!("smoke-{}", std::process::id()));
        for spec in workload::SPECS {
            let args = Args {
                seed: 42,
                workload: Some(spec.name.to_string()),
                seconds: None,
                trace: true,
                smoke: true,
            };
            let (line, correct) = measure(spec.name, &options(&args), &dir)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(correct, "{}: {line:?}", spec.name);
            assert_eq!(line.get("failed").and_then(Value::as_i64), Some(0));
            let metrics = line.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(metrics.len(), declared("per_layer").len());
        }
        let _ = std::fs::remove_dir_all(&dir);
        // Leave nothing behind when the scratch directories were created
        // just for this test (`remove_dir` refuses a non-empty one).
        let _ = std::fs::remove_dir("target/bench-tmp");
        let _ = std::fs::remove_dir("target");
    }
}
