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

use crate::analysis::{analyze_plan, AnalysisOptions, AnalyzedQuery};
use crate::error::{FlexError, Result};
use crate::histogram::{bin_domains, DEFAULT_MAX_BINS};
use crate::laplace::laplace;
use crate::lower::OutputColumn;
use crate::smooth::{smooth, PrivacyParams, SmoothSensitivity};
use flex_db::{BorrowKey, Database, ExecTrace, KeyHash, ResultSet, Value};
use flex_sql::{parse_query, Query};
use rand::Rng;
use std::collections::HashMap;
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
    /// Elastic-sensitivity analysis (parse + plan + lower + sensitivity).
    pub analysis: Duration,
    /// Running the plan the analysis read: the original query.
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

/// Whether `deadline` has passed at `now`, the end of `stage`.
fn check_deadline(deadline: Option<Instant>, now: Instant, stage: &'static str) -> Result<()> {
    match deadline {
        Some(d) if now > d => Err(FlexError::DeadlineExceeded { stage }),
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
    // One clock read ends each stage and starts the next.
    // --- Stage 1: plan the query, then analyse the plan (static). ---
    let t_analysis = Instant::now();
    let planned = crate::lower::plan(q, db)?;
    let analysis = analyze_plan(&planned, db, &opts.analysis)?;
    let t_exec = Instant::now();
    let analysis_time = parse_time + (t_exec - t_analysis);
    check_deadline(deadline, t_exec, "analysis")?;

    // --- Stage 2: run the plan the analysis read: the unmodified query. ---
    let (trace, truth) = planned.run();
    let truth: ResultSet = truth?;
    let t_perturb = Instant::now();
    let execution = t_perturb - t_exec;
    check_deadline(deadline, t_perturb, "execution")?;

    // --- Stage 3: smooth sensitivity + Laplace perturbation. ---
    let n = db.total_rows();
    let mut column_sensitivity = Vec::with_capacity(analysis.outputs.len());
    for out in &analysis.outputs {
        column_sensitivity.push(match out {
            Some(sens) => Some(smooth(sens, params, n)?),
            None => None,
        });
    }
    let ResultSet { columns, rows } = truth;
    let (rows, true_rows, bins_enumerated) = if analysis.is_histogram() {
        assemble_histogram(db, &analysis, rows, &column_sensitivity, opts, rng)?
    } else {
        let noised = rows
            .iter()
            .map(|row| noise_row(row, &column_sensitivity, rng));
        (noised.collect::<Result<_>>()?, rows, false)
    };

    let perturbation = t_perturb.elapsed();
    Ok(FlexResult {
        columns,
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
///
/// Truth rows are matched to bins by [`BorrowKey`] — `ValueKey`'s
/// equality without a copy. A truth row matches at most one bin of a
/// grid, so it moves into the release instead of being copied; a label
/// is cloned only into a row the call returns.
#[allow(clippy::type_complexity)]
fn assemble_histogram<R: Rng + ?Sized>(
    db: &Database,
    analysis: &AnalyzedQuery,
    mut truth: Vec<Vec<Value>>,
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

    // Resolve the bins and find each one's truth row, if it has one:
    // analyst-provided bins (in label-column order), else the cross
    // product of the label domains (in GROUP BY order).
    let group_by = &analysis.lowered.group_by;
    let bins = match &opts.bins {
        Some(bins) => Bins::Listed(bins),
        None => match bin_domains(db, group_by, opts.max_bins)? {
            Some(_) if (0..group_by.len()).any(|g| !label_keys.contains(&g)) => {
                return Err(FlexError::BinsNotEnumerable(
                    "a GROUP BY key is not projected, so its bins cannot be told apart".into(),
                ))
            }
            Some(domains) => Bins::Grid(domains),
            None => {
                // No enumeration possible: noise the observed bins only.
                // The analyst is responsible for the bin-presence
                // channel (§4).
                let noised = truth.iter().map(|row| noise_row(row, sens, rng));
                return Ok((noised.collect::<Result<_>>()?, truth, false));
            }
        },
    };
    let found = bins.match_rows(&truth, &label_cols, &label_keys)?;

    let width = sens.len();
    let mut rows = Vec::with_capacity(found.len());
    let mut true_rows = Vec::with_capacity(found.len());
    for (bin, row) in found.into_iter().enumerate() {
        let true_row = match row {
            // Listed bins may repeat, and a repeat shares its row.
            Some(row) if matches!(bins, Bins::Listed(_)) => truth[row].clone(),
            Some(row) => std::mem::take(&mut truth[row]),
            None => {
                // Absent bin: labels + zero aggregates.
                let mut row = vec![Value::Int(0); width];
                for (j, &c) in label_cols.iter().enumerate() {
                    row[c] = bins.label(bin, label_keys[j], j).clone();
                }
                row
            }
        };
        rows.push(noise_row(&true_row, sens, rng)?);
        true_rows.push(true_row);
    }
    Ok((rows, true_rows, true))
}

/// The bins of a histogram, in release order.
enum Bins<'a> {
    /// Analyst-supplied label tuples, in label-column order.
    Listed(&'a [Vec<Value>]),
    /// The cross product of each GROUP BY key's label domain, the first
    /// key varying slowest.
    Grid(Vec<&'a [Value]>),
}

impl Bins<'_> {
    /// For each bin, the index of the truth row whose label cells key
    /// equal to its labels (the last one, should several).
    fn match_rows(
        &self,
        truth: &[Vec<Value>],
        label_cols: &[usize],
        label_keys: &[usize],
    ) -> Result<Vec<Option<usize>>> {
        match self {
            Bins::Listed(bins) => {
                if let Some(bin) = bins.iter().find(|b| b.len() != label_cols.len()) {
                    return Err(FlexError::BinsNotEnumerable(format!(
                        "bin arity {} does not match {} label columns",
                        bin.len(),
                        label_cols.len()
                    )));
                }
                let by_label: HashMap<Vec<BorrowKey<'_>>, usize> = truth
                    .iter()
                    .enumerate()
                    .map(|(i, row)| (label_cols.iter().map(|&c| (&row[c]).into()).collect(), i))
                    .collect();
                let mut key = Vec::with_capacity(label_cols.len());
                Ok(bins
                    .iter()
                    .map(|bin| {
                        key.clear();
                        key.extend(bin.iter().map(BorrowKey::from));
                        by_label.get(&key).copied()
                    })
                    .collect())
            }
            Bins::Grid(domains) => {
                // Per GROUP BY key, a column projecting it (every key is
                // projected; one projected twice holds one label twice)
                // and its domain, searched by order.
                let mut keys: Vec<(usize, Domain<'_>)> = (domains.iter())
                    .enumerate()
                    .map(|(g, &labels)| {
                        let at = label_keys.iter().position(|&k| k == g);
                        let col = label_cols[at.expect("every GROUP BY key is projected")];
                        (col, Domain::new(labels))
                    })
                    .collect();
                let mut found = vec![None; domains.iter().map(|d| d.len()).product()];
                'rows: for (r, row) in truth.iter().enumerate() {
                    let mut bin = 0;
                    for (col, domain) in &mut keys {
                        let Some(i) = domain.position(&row[*col]) else {
                            continue 'rows;
                        };
                        bin = bin * domain.labels.len() + i;
                    }
                    found[bin] = Some(r);
                }
                Ok(found)
            }
        }
    }

    /// The label of `bin` in label column `j`, which projects GROUP BY
    /// key `g`.
    fn label(&self, bin: usize, g: usize, j: usize) -> &Value {
        match self {
            Bins::Listed(bins) => &bins[bin][j],
            Bins::Grid(domains) => {
                let stride: usize = domains[g + 1..].iter().map(|d| d.len()).product();
                &domains[g][bin / stride % domains[g].len()]
            }
        }
    }
}

/// One GROUP BY key's label domain: sorted by [`Value::total_cmp`],
/// distinct under [`BorrowKey`], without NULL ([`flex_db::Table::labels`]).
struct Domain<'a> {
    labels: &'a [Value],
    /// Every label by key, built the first time a search by order misses
    /// a label that keys equal to one in the domain (`-0.0` against
    /// `0.0`, say, which `total_cmp` tells apart).
    by_key: Option<HashMap<BorrowKey<'a>, usize, KeyHash>>,
}

impl<'a> Domain<'a> {
    fn new(labels: &'a [Value]) -> Self {
        Domain {
            labels,
            by_key: None,
        }
    }

    /// The position of the label that keys equal to `v`, if any.
    fn position(&mut self, v: &Value) -> Option<usize> {
        if v.is_null() {
            return None;
        }
        let key = BorrowKey::from(v);
        let labels = self.labels;
        match labels.binary_search_by(|l| l.total_cmp(v)) {
            Ok(i) if BorrowKey::from(&labels[i]) == key => Some(i),
            _ => (self.by_key)
                .get_or_insert_with(|| {
                    labels
                        .iter()
                        .enumerate()
                        .map(|(i, l)| (l.into(), i))
                        .collect()
                })
                .get(&key)
                .copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_with;
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

    /// The bin grid releases what the cross product of `enumerate_bins`,
    /// rearranged to projection order and matched by `RowKey`, released:
    /// one key, two keys projected out of GROUP BY order, and one key
    /// projected twice.
    #[test]
    fn grid_bins_are_the_enumerated_cross_product() {
        use crate::histogram::enumerate_bins;
        let mut db = db();
        // Four ids, three names: the two domains differ in length.
        db.insert("cities", vec![vec![Value::Int(4), Value::str("sf")]])
            .unwrap();
        let from = "FROM trips t JOIN cities c ON t.city_id = c.id";
        for sql in [
            format!("SELECT c.name, COUNT(*) {from} GROUP BY c.name"),
            format!("SELECT c.id, COUNT(*), c.name {from} WHERE t.id < 900 GROUP BY c.name, c.id"),
            format!("SELECT c.name, COUNT(*), c.name AS again {from} GROUP BY c.name"),
        ] {
            let q = parse_query(&sql).unwrap();
            let analysis = analyze_with(&q, &db, &AnalysisOptions::default()).unwrap();
            let labels: Vec<(usize, usize)> = (analysis.lowered.outputs.iter().enumerate())
                .filter_map(|(i, o)| match o {
                    OutputColumn::Label(g) => Some((i, *g)),
                    OutputColumn::Aggregate(_) => None,
                })
                .collect();
            let truth = db.execute(&q).unwrap();
            let by_label: std::collections::HashMap<flex_db::RowKey, &Vec<Value>> = truth
                .rows
                .iter()
                .map(|row| {
                    let cells: Vec<Value> = labels.iter().map(|&(c, _)| row[c].clone()).collect();
                    (flex_db::RowKey::from_values(&cells), row)
                })
                .collect();
            let grid = enumerate_bins(&db, &analysis.lowered.group_by, 1000)
                .unwrap()
                .unwrap();
            let want: Vec<Vec<Value>> = grid
                .iter()
                .map(|bin| {
                    let cells: Vec<Value> = labels.iter().map(|&(_, g)| bin[g].clone()).collect();
                    match by_label.get(&flex_db::RowKey::from_values(&cells)) {
                        Some(row) => (*row).clone(),
                        None => {
                            let mut row = vec![Value::Int(0); truth.columns.len()];
                            for (&(c, _), v) in labels.iter().zip(cells) {
                                row[c] = v;
                            }
                            row
                        }
                    }
                })
                .collect();
            let r = run_sql(&db, &sql, params(), &mut StdRng::seed_from_u64(5)).unwrap();
            assert!(r.bins_enumerated, "{sql}");
            assert_eq!(r.true_rows, want, "{sql}");
        }
    }

    /// A public table's label domain is rebuilt after a write: a city
    /// inserted between two histograms is a bin of the second, and bins
    /// an analyst lists stay the analyst's.
    #[test]
    fn a_label_inserted_between_histograms_is_enumerated() {
        let mut db = db();
        let sql = "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
                   GROUP BY c.name";
        let names = |db: &Database, opts: &FlexOptions| -> Vec<Value> {
            let mut rng = StdRng::seed_from_u64(5);
            let r = run_sql_with(db, sql, params(), &mut rng, opts).unwrap();
            r.true_rows.into_iter().map(|row| row[0].clone()).collect()
        };
        let plain = FlexOptions::new();
        assert_eq!(names(&db, &plain), ["la", "nyc", "sf"].map(Value::str));
        db.insert("cities", vec![vec![Value::Int(4), Value::str("austin")]])
            .unwrap();
        assert_eq!(
            names(&db, &plain),
            ["austin", "la", "nyc", "sf"].map(Value::str)
        );
        let listed = FlexOptions {
            bins: Some(vec![vec![Value::str("sf")], vec![Value::str("oslo")]]),
            ..FlexOptions::new()
        };
        assert_eq!(names(&db, &listed), ["sf", "oslo"].map(Value::str));
    }

    /// The bin cap is checked before the projection: a histogram over
    /// too many bins is refused for its size, whatever it projects.
    #[test]
    fn the_bin_cap_is_checked_before_the_projection() {
        let db = db();
        let sql = "SELECT c.name, COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id \
                   GROUP BY c.name, c.id";
        let refusal = |max_bins| {
            let opts = FlexOptions {
                max_bins,
                ..FlexOptions::new()
            };
            let mut rng = StdRng::seed_from_u64(5);
            run_sql_with(&db, sql, params(), &mut rng, &opts)
                .unwrap_err()
                .to_string()
        };
        assert!(
            refusal(8).contains("exceeds the 8-bin cap"),
            "{}",
            refusal(8)
        );
        assert!(refusal(9).contains("not projected"), "{}", refusal(9));
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

    #[test]
    fn a_domain_finds_labels_by_order_and_by_key() {
        let labels = [Value::Float(-1.5), Value::Float(0.0), Value::Float(2.0)];
        let mut domain = Domain::new(&labels);
        assert_eq!(domain.position(&Value::Float(2.0)), Some(2));
        assert_eq!(domain.position(&Value::Int(2)), Some(2), "2 keys as 2.0");
        assert!(domain.by_key.is_none(), "found by order");
        assert_eq!(domain.position(&Value::Null), None);
        // `total_cmp` puts -0.0 before 0.0; the two key equal.
        assert_eq!(domain.position(&Value::Float(-0.0)), Some(1));
        assert!(domain.by_key.is_some(), "found by key");
        assert_eq!(domain.position(&Value::Float(3.0)), None);
        assert_eq!(domain.position(&Value::str("x")), None);
    }
}
