//! Order statistics and digests shared by the window, the serial pass
//! and the traced pass.

use flex_db::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// Nearest-rank percentile of ascending-sorted ns samples (`p` in
/// `(0, 1]`); 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num ÷ den`, 0 when there is nothing to divide by (a share of no
/// requests, a rate over no rows).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (mean of the two middle values for an even count); 0
/// for an empty slice. Sorts a copy.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples (ns durations, counts) as `f64`.
pub fn median_u64(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Coefficient of variation (population standard deviation ÷ mean); 0
/// when the mean is 0.
pub fn cv(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Latency samples in bounded memory: every `stride`-th sample is kept,
/// and the stride doubles whenever the buffer fills. Without the bound
/// the benchmark's own buffers would grow with throughput and a faster
/// service would read as a `peak_rss_mb` regression.
#[derive(Debug)]
pub struct Samples {
    kept: Vec<u32>,
    capacity: usize,
    stride: u64,
    seen: u64,
    max: u32,
}

impl Samples {
    /// A buffer of at most `capacity` (even) samples.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2 && capacity.is_multiple_of(2));
        Samples {
            kept: Vec::with_capacity(capacity),
            capacity,
            stride: 1,
            seen: 0,
            max: 0,
        }
    }

    pub fn push(&mut self, ns: u32) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.capacity {
                // Keep the even positions: exactly the samples the doubled
                // stride would have kept from the start.
                for j in 0..self.capacity / 2 {
                    self.kept[j] = self.kept[2 * j];
                }
                self.kept.truncate(self.capacity / 2);
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(ns);
            }
        }
        self.seen += 1;
        self.max = self.max.max(ns);
    }

    /// Samples offered, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Largest sample offered (tracked exactly, not sampled).
    pub fn max(&self) -> u32 {
        self.max
    }

    pub fn kept(&self) -> &[u32] {
        &self.kept
    }
}

/// 64-bit hash of a canonical SQL string (the per-release identity in
/// the byte-identity check; a collision would only hide a mismatch).
pub fn key_hash(canonical_sql: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(canonical_sql.as_bytes());
    h.finish()
}

/// Digest of a released answer's bytes: column names, then every cell by
/// type tag and exact bit pattern, row and column order included.
pub fn answer_digest(columns: &[String], rows: &[Vec<Value>]) -> u64 {
    let mut h = DefaultHasher::new();
    for c in columns {
        h.write(c.as_bytes());
        h.write_u8(0xff);
    }
    for row in rows {
        h.write_usize(row.len());
        for v in row {
            match v {
                Value::Null => h.write_u8(0),
                Value::Bool(b) => h.write(&[1, *b as u8]),
                Value::Int(i) => {
                    h.write_u8(2);
                    h.write_i64(*i);
                }
                Value::Float(f) => {
                    h.write_u8(3);
                    h.write_u64(f.to_bits());
                }
                Value::Str(s) => {
                    h.write_u8(4);
                    h.write_usize(s.len());
                    h.write(s.as_bytes());
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.95), 95);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.5), 7);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_slices_ignores_one_hiccup() {
        // Nine steady seconds and one stalled one: the mean drops 10 %,
        // the median does not move.
        let mut slices = vec![1000u64; 9];
        slices.push(0);
        assert_eq!(median_u64(&slices), 1000.0);
        let cv = cv(&slices.iter().map(|&s| s as f64).collect::<Vec<_>>());
        assert!((cv - 1.0 / 3.0).abs() < 1e-9, "cv = {cv}");
    }

    #[test]
    fn samples_keep_every_stride_th_value_in_bounded_memory() {
        const CAPACITY: usize = 1 << 10;
        let mut s = Samples::with_capacity(CAPACITY);
        let n = 5 * CAPACITY as u32 + 3;
        for i in 0..n {
            s.push(i);
        }
        assert_eq!((s.seen(), s.max()), (n as u64, n - 1));
        assert!(s.kept().len() <= CAPACITY);
        assert!(s.kept().len() > CAPACITY / 2);
        // 5 × capacity needs three doublings; the kept values are the
        // multiples of the stride, in order.
        let expect: Vec<u32> = (0..n).step_by(8).collect();
        assert_eq!(s.kept(), expect);
    }

    #[test]
    fn digest_sees_bits_and_order() {
        let cols = vec!["a".to_string()];
        let a = vec![vec![Value::Float(0.0)], vec![Value::Int(1)]];
        let b = vec![vec![Value::Float(-0.0)], vec![Value::Int(1)]];
        let c = vec![vec![Value::Int(1)], vec![Value::Float(0.0)]];
        assert_eq!(answer_digest(&cols, &a), answer_digest(&cols, &a.clone()));
        assert_ne!(answer_digest(&cols, &a), answer_digest(&cols, &b));
        assert_ne!(answer_digest(&cols, &a), answer_digest(&cols, &c));
    }
}
