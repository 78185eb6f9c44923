//! Histogram bin enumeration (paper §4).
//!
//! When a GROUP BY query's bin labels are drawn from finite, non-protected
//! domains (e.g. city names from the public `cities` table), FLEX can
//! enumerate every possible bin itself, returning a noised count for each
//! — including noised zeros for absent bins — so the presence or absence
//! of a bin reveals nothing. When the labels are protected or not
//! enumerable, the analyst must supply the bin labels explicitly.

use crate::error::{FlexError, Result};
use crate::lower::GroupKey;
use flex_db::{Database, Value};

/// Default cap on the number of enumerated bins (the cross product of
/// label domains can explode).
pub const DEFAULT_MAX_BINS: usize = 100_000;

/// The label domain of every group key, in GROUP BY order: the sorted
/// distinct non-NULL values of its public column, as the table keeps
/// them ([`flex_db::Table::labels`]). The bins are their cross product,
/// lexicographic in this order. `Ok(None)` when some key is not a column
/// of a public table; an error when the cross product exceeds `max_bins`
/// (an empty domain counts as one for the cap).
pub(crate) fn bin_domains<'a>(
    db: &'a Database,
    group_by: &[GroupKey],
    max_bins: usize,
) -> Result<Option<Vec<&'a [Value]>>> {
    if group_by.is_empty() {
        return Ok(None);
    }
    let mut domains = Vec::with_capacity(group_by.len());
    for g in group_by {
        let Some(attr) = (if g.public { g.base.as_ref() } else { None }) else {
            return Ok(None);
        };
        let table = db
            .table(&attr.table)
            .ok_or_else(|| FlexError::UnknownTable(attr.table.clone()))?;
        let labels = table
            .labels(&attr.column)
            .ok_or_else(|| FlexError::UnknownColumn(attr.column.clone()))?;
        domains.push(labels);
    }

    let total: usize = domains
        .iter()
        .map(|d| d.len().max(1))
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);
    if total > max_bins {
        return Err(FlexError::BinsNotEnumerable(format!(
            "cross product of {total} bins exceeds the {max_bins}-bin cap"
        )));
    }
    Ok(Some(domains))
}

/// Attempt to enumerate all possible bin label tuples for a histogram.
///
/// Returns `Ok(Some(bins))` when every group key is a column of a public
/// table (labels are then the distinct values of those columns, crossed),
/// `Ok(None)` when automatic enumeration is impossible, and an error only
/// if the cross product exceeds `max_bins`.
pub fn enumerate_bins(
    db: &Database,
    group_by: &[GroupKey],
    max_bins: usize,
) -> Result<Option<Vec<Vec<Value>>>> {
    let Some(domains) = bin_domains(db, group_by, max_bins)? else {
        return Ok(None);
    };

    // Cross product, lexicographic in domain order.
    let mut bins: Vec<Vec<Value>> = vec![Vec::new()];
    for domain in domains {
        let mut next = Vec::with_capacity(bins.len() * domain.len().max(1));
        for prefix in &bins {
            for v in domain {
                let mut bin = prefix.clone();
                bin.push(v.clone());
                next.push(bin);
            }
        }
        bins = next;
    }
    Ok(Some(bins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relalg::Attr;
    use flex_db::{DataType, Schema};
    use flex_sql::{ColumnRef, Expr};

    fn db() -> Database {
        let mut db = Database::new();
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
                vec![Value::Int(2), Value::str("nyc")], // duplicate row
                vec![Value::Int(3), Value::Null],       // null label skipped
            ],
        )
        .unwrap();
        db
    }

    fn key(table: &str, column: &str, public: bool) -> GroupKey {
        GroupKey {
            expr: Expr::Column(ColumnRef::bare(column)),
            base: Some(Attr {
                occurrence: 0,
                table: table.to_string(),
                column: column.to_string(),
            }),
            public,
        }
    }

    #[test]
    fn enumerates_distinct_public_labels() {
        let db = db();
        let bins = enumerate_bins(&db, &[key("cities", "name", true)], 1000)
            .unwrap()
            .unwrap();
        assert_eq!(bins, vec![vec![Value::str("nyc")], vec![Value::str("sf")]]);
    }

    #[test]
    fn cross_product_of_two_keys() {
        let db = db();
        let bins = enumerate_bins(
            &db,
            &[key("cities", "id", true), key("cities", "name", true)],
            1000,
        )
        .unwrap()
        .unwrap();
        // 3 distinct ids × 2 distinct names.
        assert_eq!(bins.len(), 6);
        assert_eq!(bins[0], vec![Value::Int(1), Value::str("nyc")]);
    }

    #[test]
    fn private_key_not_enumerable() {
        let db = db();
        assert_eq!(
            enumerate_bins(&db, &[key("cities", "name", false)], 1000).unwrap(),
            None
        );
    }

    #[test]
    fn computed_key_not_enumerable() {
        let db = db();
        let g = GroupKey {
            expr: Expr::Column(ColumnRef::bare("x")),
            base: None,
            public: true,
        };
        assert_eq!(enumerate_bins(&db, &[g], 1000).unwrap(), None);
    }

    #[test]
    fn bin_cap_enforced() {
        let db = db();
        let err = enumerate_bins(
            &db,
            &[key("cities", "id", true), key("cities", "name", true)],
            3,
        )
        .unwrap_err();
        assert!(matches!(err, FlexError::BinsNotEnumerable(_)));
    }

    #[test]
    fn no_group_by_gives_none() {
        let db = db();
        assert_eq!(enumerate_bins(&db, &[], 10).unwrap(), None);
    }
}
