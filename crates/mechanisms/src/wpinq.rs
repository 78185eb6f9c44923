//! Weighted PINQ (Proserpio, Goldberg & McSherry, VLDB 2014) — the
//! baseline FLEX is compared against in paper §5.5.
//!
//! wPINQ attaches a real-valued weight to every record. Transformations
//! manipulate weights so that the *weighted* sensitivity of any pipeline
//! is at most 1; a noisy count is then the total weight plus `Lap(1/ε)`
//! noise. The crucial operator is the equijoin, which scales the weight of
//! each output pair `(a, b)` with key `k` to
//! `w(a)·w(b) / (Σ_A(k) + Σ_B(k))`, where `Σ_X(k)` is the total weight of
//! key `k` on side `X`. This supports one-to-one, one-to-many and
//! many-to-many joins alike — at the cost of down-weighting (and thus
//! biasing) counts over skewed keys.

use flex_db::{Row, Table, Value, ValueKey};
use rand::Rng;
use std::collections::HashMap;

/// A weighted dataset: named columns plus `(record, weight)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedDataset {
    pub columns: Vec<String>,
    pub records: Vec<(Row, f64)>,
}

impl WeightedDataset {
    /// Import a protected table: every row gets weight 1.
    pub fn from_table(table: &Table) -> Self {
        WeightedDataset {
            columns: table
                .schema
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect(),
            records: table.rows().into_iter().map(|r| (r, 1.0)).collect(),
        }
    }

    /// Number of records (not total weight).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total weight (the quantity a noisy count perturbs).
    pub fn total_weight(&self) -> f64 {
        self.records.iter().map(|(_, w)| w).sum()
    }

    fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("unknown wPINQ column `{name}`"))
    }

    /// `Where`: filter records; weights are unchanged (stable, c = 1).
    pub fn where_<F: Fn(&Row) -> bool>(&self, pred: F) -> WeightedDataset {
        WeightedDataset {
            columns: self.columns.clone(),
            records: self
                .records
                .iter()
                .filter(|(r, _)| pred(r))
                .cloned()
                .collect(),
        }
    }

    /// `Select`: map each record (weights unchanged). The mapping must be
    /// per-record (stable, c = 1).
    pub fn select<F: Fn(&Row) -> Row>(&self, new_columns: Vec<String>, f: F) -> WeightedDataset {
        WeightedDataset {
            columns: new_columns,
            records: self.records.iter().map(|(r, w)| (f(r), *w)).collect(),
        }
    }

    /// The §5.5 experimental setup replaces joins against **public** tables
    /// with a `Select` that looks the public row up as a pure function —
    /// no weight rescaling, so no noise is spent protecting public records
    /// (equivalent to FLEX's §3.6 optimization). Rows without a match are
    /// dropped (inner-join semantics); a public key matching several rows
    /// duplicates the record with its weight (the public multiplicity is
    /// data-independent).
    pub fn lookup_join(&self, key: &str, public: &Table, public_key: &str) -> WeightedDataset {
        let ki = self.col(key);
        let pki = public
            .schema
            .index_of(public_key)
            .unwrap_or_else(|| panic!("unknown public column `{public_key}`"));
        let public_rows = public.rows();
        let mut index: HashMap<ValueKey, Vec<&Row>> = HashMap::new();
        for row in &public_rows {
            if !row[pki].is_null() {
                index
                    .entry(ValueKey::from(&row[pki]))
                    .or_default()
                    .push(row);
            }
        }
        let mut columns = self.columns.clone();
        for c in &public.schema.columns {
            columns.push(format!("{}_{}", public.name, c.name));
        }
        let mut records = Vec::new();
        for (row, w) in &self.records {
            if row[ki].is_null() {
                continue;
            }
            if let Some(matches) = index.get(&ValueKey::from(&row[ki])) {
                for m in matches {
                    let mut out = row.clone();
                    out.extend(m.iter().cloned());
                    records.push((out, *w));
                }
            }
        }
        WeightedDataset { columns, records }
    }

    /// wPINQ equijoin with weight rescaling:
    /// output pair weight = `w(a)·w(b) / (Σ_A(k) + Σ_B(k))`.
    pub fn join(&self, key: &str, other: &WeightedDataset, other_key: &str) -> WeightedDataset {
        let ki = self.col(key);
        let kj = other.col(other_key);

        #[derive(Default)]
        struct Side<'a> {
            rows: Vec<(&'a Row, f64)>,
            total: f64,
        }
        let mut groups: HashMap<ValueKey, (Side, Side)> = HashMap::new();
        for (row, w) in &self.records {
            if row[ki].is_null() {
                continue;
            }
            let g = groups.entry(ValueKey::from(&row[ki])).or_default();
            g.0.rows.push((row, *w));
            g.0.total += *w;
        }
        for (row, w) in &other.records {
            if row[kj].is_null() {
                continue;
            }
            let g = groups.entry(ValueKey::from(&row[kj])).or_default();
            g.1.rows.push((row, *w));
            g.1.total += *w;
        }

        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        let mut records = Vec::new();
        for (_, (a, b)) in groups {
            if a.rows.is_empty() || b.rows.is_empty() {
                continue;
            }
            let denom = a.total + b.total;
            for (ra, wa) in &a.rows {
                for (rb, wb) in &b.rows {
                    let mut out = (*ra).clone();
                    out.extend(rb.iter().cloned());
                    records.push((out, wa * wb / denom));
                }
            }
        }
        WeightedDataset { columns, records }
    }

    /// wPINQ `Distinct`: one output record per distinct key tuple, with
    /// weight `min(1, Σw)` — the total output weight then tracks the
    /// distinct count while keeping weighted sensitivity ≤ 1.
    pub fn distinct(&self, key_cols: &[&str]) -> WeightedDataset {
        let idxs: Vec<usize> = key_cols.iter().map(|c| self.col(c)).collect();
        let mut totals: HashMap<Vec<ValueKey>, (Row, f64)> = HashMap::new();
        for (row, w) in &self.records {
            let key: Vec<ValueKey> = idxs.iter().map(|&i| ValueKey::from(&row[i])).collect();
            let entry = totals
                .entry(key)
                .or_insert_with(|| (idxs.iter().map(|&i| row[i].clone()).collect(), 0.0));
            entry.1 += *w;
        }
        WeightedDataset {
            columns: key_cols.iter().map(|c| c.to_string()).collect(),
            records: totals
                .into_values()
                .map(|(row, w)| (row, w.min(1.0)))
                .collect(),
        }
    }

    /// Rename all columns (used to disambiguate before joins).
    pub fn with_columns(mut self, columns: Vec<String>) -> WeightedDataset {
        assert_eq!(columns.len(), self.columns.len(), "column arity mismatch");
        self.columns = columns;
        self
    }

    /// `NoisyCount`: total weight + `Lap(1/ε)` (the wPINQ counting query).
    pub fn noisy_count<R: Rng + ?Sized>(&self, epsilon: f64, rng: &mut R) -> f64 {
        self.total_weight() + flex_core::laplace(rng, 1.0 / epsilon)
    }

    /// Histogram `NoisyCount` partitioned by a key column, over an
    /// analyst-supplied set of bins (parallel composition: the partitions
    /// are disjoint, so each bin is perturbed with the full ε).
    pub fn noisy_count_by_key<R: Rng + ?Sized>(
        &self,
        key: &str,
        bins: &[Value],
        epsilon: f64,
        rng: &mut R,
    ) -> Vec<(Value, f64)> {
        let ki = self.col(key);
        let mut totals: HashMap<ValueKey, f64> = HashMap::new();
        for (row, w) in &self.records {
            *totals.entry(ValueKey::from(&row[ki])).or_default() += *w;
        }
        bins.iter()
            .map(|bin| {
                let t = totals.get(&ValueKey::from(bin)).copied().unwrap_or(0.0);
                (bin.clone(), t + flex_core::laplace(rng, 1.0 / epsilon))
            })
            .collect()
    }

    /// True (non-private) weight per key — used by experiments to measure
    /// the bias the join rescaling introduces.
    pub fn weight_by_key(&self, key: &str) -> HashMap<ValueKey, f64> {
        let ki = self.col(key);
        let mut totals: HashMap<ValueKey, f64> = HashMap::new();
        for (row, w) in &self.records {
            *totals.entry(ValueKey::from(&row[ki])).or_default() += *w;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_db::{DataType, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(name: &str, cols: &[(&str, DataType)], rows: Vec<Row>) -> Table {
        let mut t = Table::new(name, Schema::of(cols));
        t.insert_all(rows).unwrap();
        t
    }

    fn trips() -> Table {
        table(
            "trips",
            &[("driver_id", DataType::Int), ("city", DataType::Str)],
            vec![
                vec![Value::Int(1), Value::str("sf")],
                vec![Value::Int(1), Value::str("sf")],
                vec![Value::Int(1), Value::str("nyc")],
                vec![Value::Int(2), Value::str("sf")],
            ],
        )
    }

    fn drivers() -> Table {
        table(
            "drivers",
            &[("id", DataType::Int), ("home", DataType::Str)],
            vec![
                vec![Value::Int(1), Value::str("sf")],
                vec![Value::Int(2), Value::str("nyc")],
                vec![Value::Int(3), Value::str("la")],
            ],
        )
    }

    #[test]
    fn import_gives_unit_weights() {
        let w = WeightedDataset::from_table(&trips());
        assert_eq!(w.len(), 4);
        assert_eq!(w.total_weight(), 4.0);
    }

    #[test]
    fn where_preserves_weights() {
        let w = WeightedDataset::from_table(&trips()).where_(|r| r[1] == Value::str("sf"));
        assert_eq!(w.total_weight(), 3.0);
    }

    #[test]
    fn join_rescales_weights() {
        // Key 1: trips side total 3, drivers side total 1 → each of the
        // 3×1 pairs gets 1·1/(3+1) = 0.25.
        // Key 2: 1 and 1 → pair weight 1/(1+1) = 0.5.
        let t = WeightedDataset::from_table(&trips());
        let d = WeightedDataset::from_table(&drivers());
        let j = t.join("driver_id", &d, "id");
        assert_eq!(j.len(), 4);
        let total = j.total_weight();
        assert!((total - (3.0 * 0.25 + 0.5)).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn join_weighted_sensitivity_bounded() {
        // Adding one record to a side of a join changes the total output
        // weight by at most 1 (the wPINQ sensitivity guarantee). Check a
        // skewed instance numerically.
        let t = WeightedDataset::from_table(&trips());
        let d = WeightedDataset::from_table(&drivers());
        let base = t.join("driver_id", &d, "id").total_weight();

        let mut trips2 = trips();
        trips2
            .insert(vec![Value::Int(1), Value::str("sf")])
            .unwrap();
        let t2 = WeightedDataset::from_table(&trips2);
        let with_extra = t2.join("driver_id", &d, "id").total_weight();
        assert!((with_extra - base).abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn lookup_join_keeps_weights() {
        let t = WeightedDataset::from_table(&trips());
        let j = t.lookup_join("driver_id", &drivers(), "id");
        // All 4 trips match a driver; weights unchanged.
        assert_eq!(j.total_weight(), 4.0);
        assert!(j.columns.contains(&"drivers_home".to_string()));
    }

    #[test]
    fn noisy_count_concentrates() {
        let t = WeightedDataset::from_table(&trips());
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        let n = 2000;
        for _ in 0..n {
            sum += t.noisy_count(1.0, &mut rng);
        }
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn histogram_counts_with_missing_bins() {
        let t = WeightedDataset::from_table(&trips());
        let mut rng = StdRng::seed_from_u64(2);
        let bins = vec![Value::str("sf"), Value::str("nyc"), Value::str("la")];
        let out = t.noisy_count_by_key("city", &bins, 10.0, &mut rng);
        assert_eq!(out.len(), 3);
        assert!((out[0].1 - 3.0).abs() < 2.0);
        assert!((out[2].1 - 0.0).abs() < 2.0); // la has no trips
    }

    #[test]
    fn select_remaps_columns() {
        let t = WeightedDataset::from_table(&trips());
        let s = t.select(vec!["city".into()], |r| vec![r[1].clone()]);
        assert_eq!(s.columns, vec!["city"]);
        assert_eq!(s.total_weight(), 4.0);
    }

    #[test]
    fn distinct_caps_weights_at_one() {
        let t = WeightedDataset::from_table(&trips());
        let d = t.distinct(&["driver_id"]);
        // Drivers 1 (3 trips) and 2 (1 trip) → two records of weight 1.
        assert_eq!(d.len(), 2);
        assert_eq!(d.total_weight(), 2.0);
    }

    #[test]
    fn distinct_preserves_fractional_weights() {
        let t = WeightedDataset::from_table(&trips());
        let d = WeightedDataset::from_table(&drivers());
        // After a join the per-driver weights are fractional (< 1); distinct
        // must not round them up.
        let j = t.join("driver_id", &d, "id");
        let dd = j.distinct(&["driver_id"]);
        assert!(dd.total_weight() < 2.0);
        assert!(dd.total_weight() > 0.0);
    }

    #[test]
    fn null_keys_never_join() {
        let mut t = trips();
        t.insert(vec![Value::Null, Value::str("sf")]).unwrap();
        let w = WeightedDataset::from_table(&t);
        let d = WeightedDataset::from_table(&drivers());
        let j = w.join("driver_id", &d, "id");
        assert_eq!(j.len(), 4);
    }
}
