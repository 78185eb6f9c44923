//! The aggregates: which names spell them, what each computes over a
//! group, and the fold grid `SUM`, `AVG` and `STDDEV` reduce on, stated
//! as plainly as it can be.

use flex_db::{DbError, Result, Value, ValueKey};
use std::collections::HashSet;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Agg {
    CountStar,
    Count,
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
    Median,
    Stddev,
}

impl Agg {
    /// The aggregate a call `name([DISTINCT] …)` is, `star` when its first
    /// argument is `*`; `None` for any other function.
    pub(crate) fn named(name: &str, distinct: bool, star: bool) -> Option<Agg> {
        Some(match name {
            "count" if star => Agg::CountStar,
            "count" if distinct => Agg::CountDistinct,
            "count" => Agg::Count,
            "sum" => Agg::Sum,
            "avg" | "mean" => Agg::Avg,
            "min" => Agg::Min,
            "max" => Agg::Max,
            "median" => Agg::Median,
            "stddev" | "stddev_samp" => Agg::Stddev,
            _ => return None,
        })
    }

    /// Whether `name` spells an aggregate at all.
    pub(crate) fn is_name(name: &str) -> bool {
        Agg::named(name, false, false).is_some()
    }

    /// Check one non-NULL argument: `SUM`, `AVG`, `MEDIAN` and `STDDEV`
    /// read numbers, the others any value.
    pub(crate) fn argument(self, v: Value) -> Result<Value> {
        let context = match self {
            Agg::Sum => "Sum",
            Agg::Avg => "Avg",
            Agg::Median => "Median",
            Agg::Stddev => "Stddev",
            _ => return Ok(v),
        };
        match v.as_f64() {
            Some(_) => Ok(v),
            None => Err(DbError::TypeMismatch {
                context: format!("{context} argument"),
                expected: "number".to_string(),
                found: v.type_name().to_string(),
            }),
        }
    }

    /// The aggregate over a group of `rows` rows whose non-NULL arguments,
    /// checked by [`Agg::argument`], are `args`, each with its row's
    /// position in the block's post-WHERE input.
    pub(crate) fn over(self, rows: usize, args: &[(usize, Value)], fold_rows: usize) -> Value {
        let numbers = || -> Vec<(usize, f64)> {
            let number = |v: &Value| v.as_f64().expect("checked by Agg::argument");
            args.iter().map(|(p, v)| (*p, number(v))).collect()
        };
        match self {
            Agg::CountStar => Value::Int(rows as i64),
            Agg::Count => Value::Int(args.len() as i64),
            Agg::CountDistinct => {
                let distinct: HashSet<ValueKey> = args.iter().map(|(_, v)| v.into()).collect();
                Value::Int(distinct.len() as i64)
            }
            // The first of equal values wins.
            Agg::Min | Agg::Max => {
                let mut best: Option<&Value> = None;
                for (_, v) in args {
                    let better = match best {
                        None => true,
                        Some(b) if self == Agg::Min => v.total_cmp(b).is_lt(),
                        Some(b) => v.total_cmp(b).is_gt(),
                    };
                    if better {
                        best = Some(v);
                    }
                }
                best.cloned().unwrap_or(Value::Null)
            }
            Agg::Sum | Agg::Avg if args.is_empty() => Value::Null,
            Agg::Sum => Value::Float(fold_sum(&numbers(), fold_rows)),
            Agg::Avg => Value::Float(fold_sum(&numbers(), fold_rows) / args.len() as f64),
            Agg::Median => {
                let mut xs: Vec<f64> = numbers().into_iter().map(|(_, x)| x).collect();
                xs.sort_by(f64::total_cmp);
                let n = xs.len();
                match n {
                    0 => Value::Null,
                    _ if n % 2 == 1 => Value::Float(xs[n / 2]),
                    _ => Value::Float((xs[n / 2 - 1] + xs[n / 2]) / 2.0),
                }
            }
            // Sample standard deviation: the mean from one fold, then the
            // squared deviations from it through a second fold on the same
            // positions.
            Agg::Stddev if args.len() < 2 => Value::Null,
            Agg::Stddev => {
                let xs = numbers();
                let n = xs.len() as f64;
                let mean = fold_sum(&xs, fold_rows) / n;
                let squares: Vec<(usize, f64)> =
                    xs.iter().map(|&(p, x)| (p, (x - mean).powi(2))).collect();
                Value::Float((fold_sum(&squares, fold_rows) / (n - 1.0)).sqrt())
            }
        }
    }
}

/// The fold grid: the one order in which `SUM`, `AVG` and `STDDEV` add
/// floats, so that their bits are a function of the data and of
/// `fold_rows` alone — never of worker count or scheduling.
///
/// `values` are a group's numbers in row order, each with its row's
/// position in the block's post-WHERE input.
/// 1. Position `p` lies in fold chunk `p / fold_rows`. Each chunk that
///    holds a value gives one leaf; a chunk without one gives none.
/// 2. Within a leaf, the `i`-th value is added into lane `i mod 8` (every
///    lane starts at `0.0`), and the lanes combine as
///    `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`.
/// 3. The leaves, in chunk order, are added in adjacent pairs —
///    `(v0 + v1), (v2 + v3), …`, an odd last one carried up as it is —
///    level after level until one value is left.
///
/// `values` must not be empty.
pub(crate) fn fold_sum(values: &[(usize, f64)], fold_rows: usize) -> f64 {
    let mut leaves = Vec::new();
    let mut rest = values;
    while let Some(&(first, _)) = rest.first() {
        let chunk = first / fold_rows;
        let len = rest
            .iter()
            .take_while(|(p, _)| p / fold_rows == chunk)
            .count();
        let mut lanes = [0.0f64; 8];
        for (i, (_, x)) in rest[..len].iter().enumerate() {
            lanes[i % 8] += x;
        }
        let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
        leaves.push(((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)));
        rest = &rest[len..];
    }
    while leaves.len() > 1 {
        leaves = leaves
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => a + b,
                [a] => *a,
                _ => unreachable!("chunks of two"),
            })
            .collect();
    }
    leaves[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The aggregate over one group whose rows hold `vals`, one a row, at
    /// positions `0..`, on 4096-row fold chunks.
    fn over(agg: Agg, vals: &[Value]) -> Result<Value> {
        let mut args = Vec::new();
        for (p, v) in vals.iter().enumerate() {
            if agg != Agg::CountStar && !v.is_null() {
                args.push((p, agg.argument(v.clone())?));
            }
        }
        Ok(agg.over(vals.len(), &args, 4096))
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn count_star_counts_all_rows() {
        let vals = [Value::Null, Value::Int(1)];
        assert_eq!(over(Agg::CountStar, &vals), Ok(Value::Int(2)));
    }

    #[test]
    fn count_skips_nulls() {
        let vals = [Value::Null, Value::Int(1), Value::Int(2)];
        assert_eq!(over(Agg::Count, &vals), Ok(Value::Int(2)));
    }

    #[test]
    fn count_distinct_keys_one_and_one_point_zero_together() {
        let vals = [Value::Int(1), Value::Float(1.0), Value::Int(2), Value::Null];
        assert_eq!(over(Agg::CountDistinct, &vals), Ok(Value::Int(2)));
    }

    #[test]
    fn empty_and_all_null_groups_are_null_and_count_zero() {
        for vals in [&[][..], &[Value::Null, Value::Null][..]] {
            for agg in [
                Agg::Sum,
                Agg::Avg,
                Agg::Min,
                Agg::Max,
                Agg::Median,
                Agg::Stddev,
            ] {
                assert_eq!(over(agg, vals), Ok(Value::Null), "{agg:?} of {vals:?}");
            }
            assert_eq!(over(Agg::Count, vals), Ok(Value::Int(0)));
        }
    }

    #[test]
    fn sum_and_avg() {
        let vals = [Value::Int(1), Value::Int(2), Value::Float(3.0)];
        assert_eq!(over(Agg::Sum, &vals), Ok(Value::Float(6.0)));
        assert_eq!(over(Agg::Avg, &vals), Ok(Value::Float(2.0)));
    }

    #[test]
    fn min_max_skip_nulls_and_order_across_types() {
        let vals = [Value::Int(3), Value::Null, Value::Int(1), Value::Int(2)];
        assert_eq!(over(Agg::Min, &vals), Ok(Value::Int(1)));
        assert_eq!(over(Agg::Max, &vals), Ok(Value::Int(3)));
        let vals = [Value::str("b"), Value::str("a"), Value::str("c")];
        assert_eq!(over(Agg::Min, &vals), Ok(Value::str("a")));
        assert_eq!(over(Agg::Max, &vals), Ok(Value::str("c")));
        // Booleans sort below numbers, numbers below strings.
        let vals = [Value::str("a"), Value::Float(2.5), Value::Bool(true)];
        assert_eq!(over(Agg::Min, &vals), Ok(Value::Bool(true)));
        assert_eq!(over(Agg::Max, &vals), Ok(Value::str("a")));
    }

    /// Of equal values the first wins: `1` and `1.0` tie, and -0.0 sorts
    /// below 0.0, NaN above every number.
    #[test]
    fn min_max_keep_the_first_of_equals_and_order_signed_zero_and_nan() {
        assert_eq!(
            over(Agg::Min, &[Value::Float(1.0), Value::Int(1)]),
            Ok(Value::Float(1.0))
        );
        assert_eq!(
            over(Agg::Max, &[Value::Int(1), Value::Float(1.0)]),
            Ok(Value::Int(1))
        );
        let zeros = [Value::Float(0.0), Value::Float(-0.0)];
        let Ok(Value::Float(min)) = over(Agg::Min, &zeros) else {
            panic!("a float minimum");
        };
        assert_eq!(min.to_bits(), (-0.0f64).to_bits());
        let nan = [Value::Float(f64::NAN), Value::Float(1e300)];
        assert!(matches!(over(Agg::Max, &nan), Ok(Value::Float(x)) if x.is_nan()));
        assert_eq!(over(Agg::Min, &nan), Ok(Value::Float(1e300)));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(over(Agg::Median, &ints(&[3, 1, 2])), Ok(Value::Float(2.0)));
        assert_eq!(
            over(Agg::Median, &ints(&[1, 2, 3, 4])),
            Ok(Value::Float(2.5))
        );
        // The even median of {-0.0, 0.0} is +0.0; NaN sorts last.
        let Ok(Value::Float(m)) = over(Agg::Median, &[Value::Float(0.0), Value::Float(-0.0)])
        else {
            panic!("a float median");
        };
        assert_eq!(m.to_bits(), 0.0f64.to_bits());
        let vals = [Value::Float(f64::NAN), Value::Int(5), Value::Int(1)];
        assert_eq!(over(Agg::Median, &vals), Ok(Value::Float(5.0)));
    }

    #[test]
    fn stddev_is_the_sample_deviation() {
        // {2, 4, 4, 4, 5, 5, 7, 9} with an n − 1 denominator ≈ 2.138.
        let Ok(Value::Float(s)) = over(Agg::Stddev, &ints(&[2, 4, 4, 4, 5, 5, 7, 9])) else {
            panic!("a float deviation");
        };
        assert!((s - 2.13809).abs() < 1e-4);
        assert_eq!(over(Agg::Stddev, &ints(&[1])), Ok(Value::Null));
        let vals = [Value::Float(f64::NAN), Value::Int(1)];
        assert!(matches!(over(Agg::Stddev, &vals), Ok(Value::Float(x)) if x.is_nan()));
    }

    #[test]
    fn numeric_aggregates_refuse_strings_and_read_booleans() {
        for (agg, context) in [
            (Agg::Sum, "Sum"),
            (Agg::Avg, "Avg"),
            (Agg::Median, "Median"),
            (Agg::Stddev, "Stddev"),
        ] {
            let err = over(agg, &[Value::str("x")]).unwrap_err().to_string();
            assert_eq!(
                err,
                format!("type mismatch in {context} argument: expected number, found string")
            );
        }
        assert_eq!(over(Agg::Min, &[Value::str("x")]), Ok(Value::str("x")));
        let bools = [Value::Bool(true), Value::Bool(true), Value::Bool(false)];
        assert_eq!(over(Agg::Sum, &bools), Ok(Value::Float(2.0)));
    }

    #[test]
    fn names_spell_the_aggregates_and_nothing_else() {
        assert_eq!(Agg::named("count", false, true), Some(Agg::CountStar));
        assert_eq!(Agg::named("count", true, true), Some(Agg::CountStar));
        assert_eq!(Agg::named("count", true, false), Some(Agg::CountDistinct));
        assert_eq!(Agg::named("mean", false, false), Some(Agg::Avg));
        assert_eq!(Agg::named("stddev_samp", false, false), Some(Agg::Stddev));
        assert_eq!(Agg::named("sum", true, false), Some(Agg::Sum));
        for name in ["lower", "coalesce", "total", "variance", "COUNT"] {
            assert!(!Agg::is_name(name), "{name}");
        }
    }

    // ---- the fold grid ------------------------------------------------------

    /// `n` values at positions `0..n` alternating `1e16` and `1.0`: `1e16`
    /// absorbs a lone `1.0` but not two added first, so any other
    /// association changes the bits.
    fn shape(n: usize) -> Vec<(usize, f64)> {
        (0..n)
            .map(|i| (i, if i % 2 == 0 { 1e16 } else { 1.0 }))
            .collect()
    }

    #[test]
    fn one_leaf_adds_lane_by_lane_then_pairs_the_lanes() {
        let v = |i: usize| shape(16)[i].1;
        // Lane k holds values k and k + 8.
        let lane = |k: usize| 0.0 + v(k) + v(k + 8);
        let expected = ((lane(0) + lane(1)) + (lane(2) + lane(3)))
            + ((lane(4) + lane(5)) + (lane(6) + lane(7)));
        assert_eq!(fold_sum(&shape(16), 4096).to_bits(), expected.to_bits());
        // Three values fill three lanes: (v0 + v1) + v2.
        let expected = (0.0 + v(0) + (0.0 + v(1))) + (0.0 + v(2));
        assert_eq!(fold_sum(&shape(3), 4096).to_bits(), expected.to_bits());
    }

    #[test]
    fn leaves_are_chunks_of_positions_and_combine_in_adjacent_pairs() {
        // One value a chunk: the leaves are the values themselves.
        let leaf = |i: usize| shape(5)[i].1;
        let five = ((leaf(0) + leaf(1)) + (leaf(2) + leaf(3))) + leaf(4);
        assert_eq!(fold_sum(&shape(5), 1).to_bits(), five.to_bits());
        // Positions, not the values' ranks, cut the chunks: values at
        // positions 0, 1 and 5 with 2-row chunks are leaves {0, 1} and {5}.
        let values = [(0, 1e16), (1, 1.0), (5, 1.0)];
        let expected: f64 = (1e16 + 1.0) + 1.0;
        assert_eq!(fold_sum(&values, 2).to_bits(), expected.to_bits());
        assert_ne!(expected.to_bits(), (1e16 + (1.0 + 1.0f64)).to_bits());
    }

    #[test]
    fn signed_zero_and_nan_fold_like_any_value() {
        // Lanes start at +0.0, so -0.0 alone sums to +0.0.
        assert_eq!(fold_sum(&[(0, -0.0)], 4).to_bits(), 0.0f64.to_bits());
        assert!(fold_sum(&[(0, 1.0), (7, f64::NAN), (9, 2.0)], 4).is_nan());
    }
}
