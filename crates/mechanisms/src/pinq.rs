//! PINQ (McSherry, SIGMOD 2009) — Privacy Integrated Queries.
//!
//! PINQ's counting queries add `Lap(1/ε)` noise. Its join is *restricted*:
//! records are grouped by join key, and one output group is produced per
//! matching key. A count over the join therefore counts **unique matched
//! join keys**, not joined pairs — for one-to-one joins this matches the
//! standard semantics; for one-to-many and many-to-many joins it does not
//! (paper §2.3, Table 1).

use flex_db::{Row, Table, Value, ValueKey};
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// An unweighted protected dataset in the PINQ style.
#[derive(Debug, Clone, PartialEq)]
pub struct PinqDataset {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl PinqDataset {
    pub fn from_table(table: &Table) -> Self {
        PinqDataset {
            columns: table
                .schema
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect(),
            rows: table.rows(),
        }
    }

    fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("unknown PINQ column `{name}`"))
    }

    /// `Where` (stable, c = 1).
    pub fn where_<F: Fn(&Row) -> bool>(&self, pred: F) -> PinqDataset {
        PinqDataset {
            columns: self.columns.clone(),
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// PINQ's restricted join: one output record per join key present on
    /// both sides (the groups themselves are kept opaque).
    pub fn restricted_join(&self, key: &str, other: &PinqDataset, other_key: &str) -> PinqDataset {
        let ki = self.col(key);
        let kj = other.col(other_key);
        let left: HashSet<ValueKey> = self
            .rows
            .iter()
            .filter(|r| !r[ki].is_null())
            .map(|r| ValueKey::from(&r[ki]))
            .collect();
        let mut seen = HashSet::new();
        let mut rows = Vec::new();
        for r in &other.rows {
            if r[kj].is_null() {
                continue;
            }
            let k = ValueKey::from(&r[kj]);
            if left.contains(&k) && seen.insert(k) {
                rows.push(vec![r[kj].clone()]);
            }
        }
        PinqDataset {
            columns: vec![format!("{key}_matched")],
            rows,
        }
    }

    /// `NoisyCount`: row count + `Lap(1/ε)`.
    pub fn noisy_count<R: Rng + ?Sized>(&self, epsilon: f64, rng: &mut R) -> f64 {
        self.rows.len() as f64 + flex_core::laplace(rng, 1.0 / epsilon)
    }

    /// Histogram via PINQ's `Partition` operator: disjoint bins each get
    /// the full ε (parallel composition).
    pub fn partition_count<R: Rng + ?Sized>(
        &self,
        key: &str,
        bins: &[Value],
        epsilon: f64,
        rng: &mut R,
    ) -> Vec<(Value, f64)> {
        let ki = self.col(key);
        let mut counts: HashMap<ValueKey, usize> = HashMap::new();
        for r in &self.rows {
            *counts.entry(ValueKey::from(&r[ki])).or_default() += 1;
        }
        bins.iter()
            .map(|bin| {
                let c = counts.get(&ValueKey::from(bin)).copied().unwrap_or(0);
                (
                    bin.clone(),
                    c as f64 + flex_core::laplace(rng, 1.0 / epsilon),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_db::{DataType, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn orders() -> Table {
        let mut t = Table::new(
            "orders",
            Schema::of(&[("id", DataType::Int), ("cust", DataType::Int)]),
        );
        t.insert_all(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(10)],
            vec![Value::Int(3), Value::Int(11)],
            vec![Value::Int(4), Value::Int(12)],
        ])
        .unwrap();
        t
    }

    fn custs() -> Table {
        let mut t = Table::new("custs", Schema::of(&[("id", DataType::Int)]));
        t.insert_all(vec![
            vec![Value::Int(10)],
            vec![Value::Int(11)],
            vec![Value::Int(99)],
        ])
        .unwrap();
        t
    }

    #[test]
    fn restricted_join_counts_unique_keys_not_pairs() {
        let o = PinqDataset::from_table(&orders());
        let c = PinqDataset::from_table(&custs());
        let j = o.restricted_join("cust", &c, "id");
        // Keys 10 and 11 match; a standard join would produce 3 rows, the
        // restricted join produces 2.
        assert_eq!(j.rows.len(), 2);
    }

    #[test]
    fn noisy_count_near_truth() {
        let o = PinqDataset::from_table(&orders());
        let mut rng = StdRng::seed_from_u64(4);
        let mut mean = 0.0;
        for _ in 0..1000 {
            mean += o.noisy_count(1.0, &mut rng);
        }
        mean /= 1000.0;
        assert!((mean - 4.0).abs() < 0.2);
    }

    #[test]
    fn partition_counts_bins() {
        let o = PinqDataset::from_table(&orders());
        let mut rng = StdRng::seed_from_u64(4);
        let out = o.partition_count(
            "cust",
            &[Value::Int(10), Value::Int(12), Value::Int(77)],
            10.0,
            &mut rng,
        );
        assert!((out[0].1 - 2.0).abs() < 1.5);
        assert!((out[1].1 - 1.0).abs() < 1.5);
        assert!(out[2].1.abs() < 1.5);
    }

    #[test]
    fn where_filters() {
        let o = PinqDataset::from_table(&orders()).where_(|r| r[1] == Value::Int(10));
        assert_eq!(o.rows.len(), 2);
    }
}
