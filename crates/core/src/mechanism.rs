//! The FLEX mechanism (paper §4, Figure 2; Definition 7).
//!
//! For a SQL query FLEX (1) statically computes its elastic sensitivity,
//! (2) smooths it with smooth sensitivity at `β = ε/(2 ln(2/δ))`,
//! (3) runs the *unmodified* query on the database, and (4) perturbs each
//! aggregate output cell with `Lap(2S/ε)` noise — enumerating histogram
//! bins when their labels are public, so absent bins are released as
//! noised zeros.
//!
//! Theorem 2: the released values are (ε, δ)-differentially private.

use crate::analysis::{analyze_with, AnalysisOptions, AnalyzedQuery};
use crate::error::{FlexError, Result};
use crate::histogram::{enumerate_bins, DEFAULT_MAX_BINS};
use crate::laplace::laplace;
use crate::lower::OutputColumn;
use crate::smooth::{smooth, PrivacyParams, SmoothSensitivity};
use flex_db::{Database, ExecTrace, ResultSet, RowKey, Value};
use flex_sql::{parse_query, Query};
use rand::Rng;
use std::time::{Duration, Instant};

/// Options controlling one FLEX run.
#[derive(Debug, Clone, Default)]
pub struct FlexOptions {
    /// Analysis options (e.g. disabling the public-table optimization).
    pub analysis: AnalysisOptions,
    /// Analyst-supplied histogram bin labels `ℓ` (Definition 7). Overrides
    /// automatic enumeration.
    pub bins: Option<Vec<Vec<Value>>>,
    /// Cap for automatic bin enumeration.
    pub max_bins: usize,
}

impl FlexOptions {
    pub fn new() -> Self {
        FlexOptions {
            analysis: AnalysisOptions::default(),
            bins: None,
            max_bins: DEFAULT_MAX_BINS,
        }
    }
}

/// Wall-clock timings of the three pipeline stages (Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlexTimings {
    /// Elastic-sensitivity analysis (parse + lower + sensitivity).
    pub analysis: Duration,
    /// Original query execution on the database.
    pub execution: Duration,
    /// Smoothing + noise + histogram assembly.
    pub perturbation: Duration,
}

/// The outcome of a FLEX run.
#[derive(Debug, Clone)]
pub struct FlexResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Differentially-private rows (aggregate cells noised; label cells
    /// passed through — labels are only released when non-protected).
    pub rows: Vec<Vec<Value>>,
    /// The true (sensitive!) rows, aligned with `rows`. Exposed for the
    /// utility experiments; a production deployment would not return them.
    pub true_rows: Vec<Vec<Value>>,
    /// Per-output-column smooth sensitivity (None for label columns).
    pub column_sensitivity: Vec<Option<SmoothSensitivity>>,
    /// Whether histogram bins were enumerated (vs. echoing observed bins).
    pub bins_enumerated: bool,
    pub timings: FlexTimings,
    /// Join count of the analyzed query.
    pub join_count: usize,
    /// The executor's own record of how the true query ran: top-K
    /// pushdown, morsel/worker/row statistics, join order. Telemetry
    /// only — it never affects the released values.
    pub trace: ExecTrace,
}

impl FlexResult {
    /// The noised scalar of a 1×1 result.
    pub fn scalar(&self) -> Option<f64> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            self.rows[0][0].as_f64()
        } else {
            None
        }
    }

    /// Median relative error (%) across aggregate cells, the utility metric
    /// of the paper's §5 experiments. Cells whose true value is 0 are
    /// skipped (relative error undefined), matching the experimental
    /// methodology.
    pub fn median_relative_error_pct(&self) -> Option<f64> {
        let mut errs: Vec<f64> = Vec::new();
        for (noised, truth) in self.rows.iter().zip(&self.true_rows) {
            for (ci, s) in self.column_sensitivity.iter().enumerate() {
                if s.is_none() {
                    continue;
                }
                let t = truth[ci].as_f64()?;
                if t == 0.0 {
                    continue;
                }
                let n = noised[ci].as_f64()?;
                errs.push(((n - t) / t).abs() * 100.0);
            }
        }
        median(&mut errs)
    }
}

fn median(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

/// Run FLEX on SQL text.
pub fn run_sql<R: Rng + ?Sized>(
    db: &Database,
    sql: &str,
    params: PrivacyParams,
    rng: &mut R,
) -> Result<FlexResult> {
    run_sql_with(db, sql, params, rng, &FlexOptions::new())
}

/// Run FLEX on SQL text with options.
pub fn run_sql_with<R: Rng + ?Sized>(
    db: &Database,
    sql: &str,
    params: PrivacyParams,
    rng: &mut R,
    opts: &FlexOptions,
) -> Result<FlexResult> {
    let t0 = Instant::now();
    let q = parse_query(sql)?;
    run_query_timed(db, &q, params, rng, opts, t0.elapsed(), None)
}

/// Run FLEX on a parsed query.
pub fn run_query<R: Rng + ?Sized>(
    db: &Database,
    q: &Query,
    params: PrivacyParams,
    rng: &mut R,
) -> Result<FlexResult> {
    run_query_with(db, q, params, rng, &FlexOptions::new())
}

/// Run FLEX on a parsed query with options (the entry point used by
/// `flex-service`, which parses and canonicalizes up front).
pub fn run_query_with<R: Rng + ?Sized>(
    db: &Database,
    q: &Query,
    params: PrivacyParams,
    rng: &mut R,
    opts: &FlexOptions,
) -> Result<FlexResult> {
    run_query_timed(db, q, params, rng, opts, Duration::ZERO, None)
}

/// Like [`run_query_with`], but checks `deadline` at each pipeline
/// stage boundary and aborts with [`FlexError::DeadlineExceeded`] once
/// it has passed. The check sits *between* stages (after analysis and
/// after execution), never after perturbation: once noise has been
/// drawn the answer is ready, and the privacy charge is about to be
/// settled — a deadline abort must always leave the charge refundable.
pub fn run_query_deadline<R: Rng + ?Sized>(
    db: &Database,
    q: &Query,
    params: PrivacyParams,
    rng: &mut R,
    opts: &FlexOptions,
    deadline: Option<Instant>,
) -> Result<FlexResult> {
    run_query_timed(db, q, params, rng, opts, Duration::ZERO, deadline)
}

fn check_deadline(deadline: Option<Instant>, stage: &'static str) -> Result<()> {
    match deadline {
        Some(d) if Instant::now() > d => Err(FlexError::DeadlineExceeded { stage }),
        _ => Ok(()),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_query_timed<R: Rng + ?Sized>(
    db: &Database,
    q: &Query,
    params: PrivacyParams,
    rng: &mut R,
    opts: &FlexOptions,
    parse_time: Duration,
    deadline: Option<Instant>,
) -> Result<FlexResult> {
    // --- Stage 1: elastic sensitivity analysis (static). ---
    let t_analysis = Instant::now();
    let analysis = analyze_with(q, db, &opts.analysis)?;
    let analysis_time = parse_time + t_analysis.elapsed();
    check_deadline(deadline, "analysis")?;

    // --- Stage 2: execute the unmodified query on the database. ---
    let t_exec = Instant::now();
    let (trace, truth) = db.execute_traced(q);
    let truth: ResultSet = truth?;
    let execution = t_exec.elapsed();
    check_deadline(deadline, "execution")?;

    // --- Stage 3: smooth sensitivity + Laplace perturbation. ---
    let t_perturb = Instant::now();
    let n = db.total_rows();
    let mut column_sensitivity = Vec::with_capacity(analysis.outputs.len());
    for out in &analysis.outputs {
        column_sensitivity.push(match out {
            Some(sens) => Some(smooth(sens, params, n)?),
            None => None,
        });
    }
    // Sensitivities are zipped onto the result by position, so the header
    // the analysis bound must be the header that executed.
    if truth.columns != analysis.lowered.columns {
        return Err(FlexError::Db(format!(
            "analysis bound output columns {:?} but execution produced {:?}",
            analysis.lowered.columns, truth.columns
        )));
    }

    let (rows, true_rows, bins_enumerated) = if analysis.is_histogram() {
        assemble_histogram(db, &analysis, &truth, &column_sensitivity, opts, rng)?
    } else {
        let mut noised = Vec::with_capacity(truth.rows.len());
        for row in &truth.rows {
            noised.push(noise_row(row, &column_sensitivity, rng)?);
        }
        (noised, truth.rows.clone(), false)
    };

    let perturbation = t_perturb.elapsed();
    Ok(FlexResult {
        columns: truth.columns,
        rows,
        true_rows,
        column_sensitivity,
        bins_enumerated,
        timings: FlexTimings {
            analysis: analysis_time,
            execution,
            perturbation,
        },
        join_count: analysis.join_count,
        trace,
    })
}

fn noise_row<R: Rng + ?Sized>(
    row: &[Value],
    sens: &[Option<SmoothSensitivity>],
    rng: &mut R,
) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(row.len());
    for (v, s) in row.iter().zip(sens) {
        match s {
            None => out.push(v.clone()),
            Some(s) => {
                let t = v.as_f64().unwrap_or(0.0);
                out.push(Value::Float(t + laplace(rng, s.noise_scale)));
            }
        }
    }
    Ok(out)
}

/// Histogram assembly: enumerate bins where possible, fill missing bins
/// with noised zeros, and pass bin labels through.
#[allow(clippy::type_complexity)]
fn assemble_histogram<R: Rng + ?Sized>(
    db: &Database,
    analysis: &AnalyzedQuery,
    truth: &ResultSet,
    sens: &[Option<SmoothSensitivity>],
    opts: &FlexOptions,
    rng: &mut R,
) -> Result<(Vec<Vec<Value>>, Vec<Vec<Value>>, bool)> {
    // Label columns as (result column, group key) pairs, in output order.
    let (label_cols, label_keys): (Vec<usize>, Vec<usize>) = analysis
        .lowered
        .outputs
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o {
            OutputColumn::Label(g) => Some((i, *g)),
            OutputColumn::Aggregate(_) => None,
        })
        .unzip();

    // Resolve the bin label set: analyst-provided (in label-column
    // order), else auto-enumerated — in GROUP BY order, so each tuple is
    // rearranged to the order its labels are projected in.
    let group_by = &analysis.lowered.group_by;
    let bins: Option<Vec<Vec<Value>>> = match &opts.bins {
        Some(b) => Some(b.clone()),
        None => match enumerate_bins(db, group_by, opts.max_bins)? {
            Some(_) if (0..group_by.len()).any(|g| !label_keys.contains(&g)) => {
                return Err(FlexError::BinsNotEnumerable(
                    "a GROUP BY key is not projected, so its bins cannot be told apart".into(),
                ))
            }
            Some(bins) => Some(
                bins.iter()
                    .map(|bin| label_keys.iter().map(|&g| bin[g].clone()).collect())
                    .collect(),
            ),
            None => None,
        },
    };

    let Some(bins) = bins else {
        // No enumeration possible: noise the observed bins only. The
        // analyst is responsible for the bin-presence channel (§4).
        let mut noised = Vec::with_capacity(truth.rows.len());
        for row in &truth.rows {
            noised.push(noise_row(row, sens, rng)?);
        }
        return Ok((noised, truth.rows.clone(), false));
    };

    // The output order of labels must match the query's label columns; a
    // bin tuple is keyed by the label cells in projection order.
    let mut by_label: std::collections::HashMap<RowKey, &Vec<Value>> =
        std::collections::HashMap::with_capacity(truth.rows.len());
    for row in &truth.rows {
        let labels: Vec<Value> = label_cols.iter().map(|&c| row[c].clone()).collect();
        by_label.insert(RowKey::from_values(&labels), row);
    }

    let width = truth.columns.len();
    let mut rows = Vec::with_capacity(bins.len());
    let mut true_rows = Vec::with_capacity(bins.len());
    for bin in &bins {
        if bin.len() != label_cols.len() {
            return Err(FlexError::BinsNotEnumerable(format!(
                "bin arity {} does not match {} label columns",
                bin.len(),
                label_cols.len()
            )));
        }
        let true_row: Vec<Value> = match by_label.get(&RowKey::from_values(bin)) {
            Some(row) => (*row).clone(),
            None => {
                // Absent bin: labels + zero aggregates.
                let mut row = vec![Value::Int(0); width];
                for (bi, &c) in label_cols.iter().enumerate() {
                    row[c] = bin[bi].clone();
                }
                row
            }
        };
        rows.push(noise_row(&true_row, sens, rng)?);
        true_rows.push(true_row);
    }
    Ok((rows, true_rows, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_db::{DataType, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "trips",
            Schema::of(&[
                ("id", DataType::Int),
                ("driver_id", DataType::Int),
                ("city_id", DataType::Int),
            ]),
        )
        .unwrap();
        db.create_table(
            "cities",
            Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]),
        )
        .unwrap();
        db.mark_public("cities");
        db.insert(
            "cities",
            vec![
                vec![Value::Int(1), Value::str("sf")],
                vec![Value::Int(2), Value::str("nyc")],
                vec![Value::Int(3), Value::str("la")],
            ],
        )
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..1000i64 {
            rows.push(vec![
                Value::Int(i),
                Value::Int(i % 37),
                Value::Int(1 + (i % 2)), // only cities 1 and 2 appear
            ]);
        }
        db.insert("trips", rows).unwrap();
        db
    }

    fn params() -> PrivacyParams {
        PrivacyParams::new(1.0, 1e-8).unwrap()
    }

    #[test]
    fn count_query_end_to_end() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_sql(&db, "SELECT COUNT(*) FROM trips", params(), &mut rng).unwrap();
        let noised = r.scalar().unwrap();
        // Sensitivity 1, ε=1 → scale 2·S/ε where S=1 → |noise| small w.h.p.
        assert!((noised - 1000.0).abs() < 100.0, "noised = {noised}");
        assert_eq!(r.true_rows[0][0], Value::Int(1000));
        assert_eq!(r.join_count, 0);
    }

    #[test]
    fn noise_magnitude_tracks_epsilon() {
        let db = db();
        let sql = "SELECT COUNT(*) FROM trips";
        let spread = |eps: f64| {
            let mut rng = StdRng::seed_from_u64(7);
            let p = PrivacyParams::new(eps, 1e-8).unwrap();
            let mut errs = Vec::new();
            for _ in 0..200 {
                let r = run_sql(&db, sql, p, &mut rng).unwrap();
                errs.push((r.scalar().unwrap() - 1000.0).abs());
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        assert!(spread(0.1) > 2.0 * spread(10.0));
    }

    #[test]
    fn histogram_bins_enumerated_with_noised_zeros() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(5);
        let r = run_sql(
            &db,
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
             GROUP BY c.name",
            params(),
            &mut rng,
        )
        .unwrap();
        assert!(r.bins_enumerated);
        // All three city names appear even though `la` has no trips.
        assert_eq!(r.rows.len(), 3);
        let la = r
            .true_rows
            .iter()
            .find(|row| row[0] == Value::str("la"))
            .unwrap();
        assert_eq!(la[1], Value::Int(0));
    }

    #[test]
    fn private_labels_fall_back_to_observed_bins() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(5);
        let r = run_sql(
            &db,
            "SELECT driver_id, COUNT(*) FROM trips GROUP BY driver_id",
            params(),
            &mut rng,
        )
        .unwrap();
        assert!(!r.bins_enumerated);
        assert_eq!(r.rows.len(), 37);
    }

    #[test]
    fn analyst_bins_override() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(5);
        let mut opts = FlexOptions::new();
        opts.bins = Some(vec![vec![Value::Int(0)], vec![Value::Int(999)]]);
        let r = run_sql_with(
            &db,
            "SELECT driver_id, COUNT(*) FROM trips GROUP BY driver_id",
            params(),
            &mut rng,
            &opts,
        )
        .unwrap();
        assert!(r.bins_enumerated);
        assert_eq!(r.rows.len(), 2);
        // driver 999 does not exist → true count 0.
        assert_eq!(r.true_rows[1][1], Value::Int(0));
    }

    #[test]
    fn label_cells_pass_through_unnoised() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(2);
        let r = run_sql(
            &db,
            "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
             GROUP BY c.name",
            params(),
            &mut rng,
        )
        .unwrap();
        for (noised, truth) in r.rows.iter().zip(&r.true_rows) {
            assert_eq!(noised[0], truth[0]);
            assert_ne!(noised[1], truth[1]); // counts are noised
        }
    }

    #[test]
    fn public_only_query_is_noiseless() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(2);
        let r = run_sql(&db, "SELECT COUNT(*) FROM cities", params(), &mut rng).unwrap();
        assert_eq!(r.scalar().unwrap(), 3.0);
    }

    #[test]
    fn raw_query_rejected() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            run_sql(&db, "SELECT id FROM trips", params(), &mut rng),
            Err(FlexError::RawDataQuery)
        ));
    }

    #[test]
    fn median_relative_error_reported() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(11);
        let r = run_sql(&db, "SELECT COUNT(*) FROM trips", params(), &mut rng).unwrap();
        let err = r.median_relative_error_pct().unwrap();
        assert!((0.0..10.0).contains(&err), "error {err}%");
    }

    #[test]
    fn expired_deadline_aborts_between_stages() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(4);
        let q = flex_sql::parse_query("SELECT COUNT(*) FROM trips").unwrap();
        // A deadline already in the past: the first stage boundary
        // aborts the run.
        let err = run_query_deadline(
            &db,
            &q,
            params(),
            &mut rng,
            &FlexOptions::new(),
            Some(Instant::now() - Duration::from_secs(1)),
        )
        .unwrap_err();
        assert!(matches!(err, FlexError::DeadlineExceeded { .. }), "{err}");
        // A generous deadline changes nothing — including the noise
        // bits, since the deadline check never touches the RNG.
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        let with = run_query_deadline(
            &db,
            &q,
            params(),
            &mut rng_a,
            &FlexOptions::new(),
            Some(Instant::now() + Duration::from_secs(3600)),
        )
        .unwrap();
        let without = run_query_with(&db, &q, params(), &mut rng_b, &FlexOptions::new()).unwrap();
        assert_eq!(with.rows, without.rows);
    }

    #[test]
    fn timings_populated() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(3);
        let r = run_sql(&db, "SELECT COUNT(*) FROM trips", params(), &mut rng).unwrap();
        assert!(r.timings.execution > Duration::ZERO);
    }
}
