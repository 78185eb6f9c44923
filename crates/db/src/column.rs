//! Columnar storage for the executor.
//!
//! A [`ColumnarTable`] is a column-major projection of a table's rows:
//! one typed vector per column plus a null bitmap. Batch operators in
//! [`crate::vexec`] iterate these vectors directly instead of cloning and
//! interpreting `Vec<Value>` rows.
//!
//! Because runtime values are dynamically typed (a `Float` column may
//! physically hold `Value::Int`s), the representation is chosen from the
//! values actually present, not the declared schema type: a column whose
//! non-null values are all integers becomes [`ColumnData::Int64`], and so
//! on. Columns mixing physical types fall back to [`ColumnData::Mixed`],
//! which keeps the original `Value`s. This makes [`Column::value`] an
//! exact reconstruction — the executor returns byte-identical
//! results to the oracle, so DP noise calibration downstream is
//! unchanged. Columns are immutable once built (writes rebuild the
//! projection), which is what lets the morsel-parallel operators in
//! [`crate::vexec`] read them from many worker threads lock-free.

use crate::schema::DataType;
use crate::table::Row;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Sentinel row index meaning "no source row" in a gather index vector:
/// [`Column::gather`] fills such slots with NULL. Used by the
/// join pipeline for the NULL-padded side of outer-join rows — probe-side
/// pads for LEFT/FULL, matched-bit build-side pads for RIGHT/FULL.
pub const GATHER_NULL: u32 = u32::MAX;

/// A bitmap marking NULL slots of a column (1 bit per row, set = NULL).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NullMask {
    words: Vec<u64>,
    count: usize,
}

impl NullMask {
    /// An all-valid mask for `len` rows.
    pub fn new(len: usize) -> Self {
        NullMask {
            words: vec![0u64; len.div_ceil(64)],
            count: 0,
        }
    }

    /// An all-NULL mask for `len` rows.
    pub fn all_null(len: usize) -> Self {
        NullMask {
            words: vec![!0u64; len.div_ceil(64)],
            count: len,
        }
    }

    /// Mark row `i` as NULL.
    pub fn set(&mut self, i: usize) {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.count += 1;
        }
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.count
    }

    /// Whether any row is NULL (lets kernels skip the bitmap probe).
    #[inline]
    pub fn any(&self) -> bool {
        self.count > 0
    }
}

/// Typed value vector backing one column. NULL slots hold an arbitrary
/// placeholder in the typed variants; the [`NullMask`] is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integer column.
    Int64(Vec<i64>),
    /// 64-bit float column.
    Float64(Vec<f64>),
    /// Boolean column.
    Bool(Vec<bool>),
    /// String column.
    Str(Vec<String>),
    /// Columns mixing physical types (e.g. `Int` and `Float` in one
    /// `Float` column) keep their original values, NULLs included.
    Mixed(Vec<Value>),
}

/// One column: typed data plus a null bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The typed value vector (placeholders in NULL slots).
    pub data: ColumnData,
    /// Which slots are NULL — authoritative over `data`.
    pub nulls: NullMask,
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether slot `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_null(i)
    }

    /// Reconstruct the exact original [`Value`] at row `i`.
    pub fn value(&self, i: usize) -> Value {
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Gather rows by index into a new column: output slot `k` holds the
    /// value of row `idxs[k]`, and slots where `idxs[k] == GATHER_NULL`
    /// become NULL. This is the late-materialization primitive of the
    /// join pipeline: joined values are only ever gathered for
    /// the columns the query actually touches, after all filtering.
    pub fn gather(&self, idxs: &[u32]) -> Column {
        let mut nulls = NullMask::new(idxs.len());
        let has_nulls = self.nulls.any();
        for (k, &i) in idxs.iter().enumerate() {
            if i == GATHER_NULL || (has_nulls && self.nulls.is_null(i as usize)) {
                nulls.set(k);
            }
        }
        // Typed vectors keep an arbitrary placeholder in NULL slots (the
        // mask is authoritative), exactly like `from_rows`.
        let data = match &self.data {
            ColumnData::Int64(xs) => ColumnData::Int64(
                idxs.iter()
                    .map(|&i| if i == GATHER_NULL { 0 } else { xs[i as usize] })
                    .collect(),
            ),
            ColumnData::Float64(xs) => ColumnData::Float64(
                idxs.iter()
                    .map(|&i| {
                        if i == GATHER_NULL {
                            0.0
                        } else {
                            xs[i as usize]
                        }
                    })
                    .collect(),
            ),
            ColumnData::Bool(bs) => ColumnData::Bool(
                idxs.iter()
                    .map(|&i| i != GATHER_NULL && bs[i as usize])
                    .collect(),
            ),
            ColumnData::Str(ss) => ColumnData::Str(
                idxs.iter()
                    .map(|&i| {
                        if i == GATHER_NULL {
                            String::new()
                        } else {
                            ss[i as usize].clone()
                        }
                    })
                    .collect(),
            ),
            ColumnData::Mixed(vs) => ColumnData::Mixed(
                idxs.iter()
                    .map(|&i| {
                        if i == GATHER_NULL {
                            Value::Null
                        } else {
                            vs[i as usize].clone()
                        }
                    })
                    .collect(),
            ),
        };
        Column { data, nulls }
    }

    /// A comparator over this column's rows with exactly the semantics of
    /// `self.value(a).total_cmp(&self.value(b))` — the oracle's ORDER
    /// BY comparison — but with the type dispatch hoisted out of the
    /// comparison loop so sorting a selection vector never materializes a
    /// `Value`. NULLs sort first (`total_cmp` ranks `NULL` below every
    /// non-null value); `Int64` columns compare exact `i64` (matching the
    /// Int-vs-Int arm of `total_cmp`, *not* the f64 coercion `sql_cmp`
    /// uses); `Mixed` columns defer to `Value::total_cmp` itself so
    /// cross-type coercions match. `Sync` so morsel-parallel sort workers
    /// can share one comparator.
    pub(crate) fn row_ordering(&self) -> Box<dyn Fn(usize, usize) -> Ordering + Sync + '_> {
        let nulls = &self.nulls;
        let has_nulls = nulls.any();
        // NULL slots hold arbitrary placeholders in the typed vectors, so
        // every typed arm must settle NULLs from the mask first.
        macro_rules! ord {
            ($cmp:expr) => {{
                let cmp = $cmp;
                Box::new(move |a: usize, b: usize| {
                    if has_nulls {
                        match (nulls.is_null(a), nulls.is_null(b)) {
                            (true, true) => return Ordering::Equal,
                            (true, false) => return Ordering::Less,
                            (false, true) => return Ordering::Greater,
                            (false, false) => {}
                        }
                    }
                    cmp(a, b)
                })
            }};
        }
        match &self.data {
            ColumnData::Int64(xs) => ord!(move |a: usize, b: usize| xs[a].cmp(&xs[b])),
            ColumnData::Float64(xs) => ord!(move |a: usize, b: usize| xs[a].total_cmp(&xs[b])),
            ColumnData::Bool(bs) => ord!(move |a: usize, b: usize| bs[a].cmp(&bs[b])),
            ColumnData::Str(ss) => ord!(move |a: usize, b: usize| ss[a].cmp(&ss[b])),
            // Mixed keeps original `Value`s (NULLs included), and
            // `Value::total_cmp` already ranks NULL first.
            ColumnData::Mixed(vs) => Box::new(move |a, b| vs[a].total_cmp(&vs[b])),
        }
    }

    /// An all-NULL column of `len` rows, used for the *dead* columns of a
    /// late-materialized join result (columns the query never touches).
    ///
    /// The backing vector is intentionally empty: every accessor consults
    /// the null mask first (which marks every row NULL), so the data is
    /// never indexed. Only the [`ColumnarTable`]'s own `len()` is
    /// meaningful for such a column.
    pub fn all_null(len: usize) -> Column {
        Column {
            data: ColumnData::Int64(Vec::new()),
            nulls: NullMask::all_null(len),
        }
    }

    /// Build a column from owned values, choosing the representation
    /// from the values actually present (see the module docs); string
    /// payloads move, and [`Column::value`] reconstructs each input
    /// exactly.
    pub fn from_values(vals: Vec<Value>) -> Column {
        let shape = Shape::of(vals.iter());
        shape.fill(vals.into_iter().map(Cow::Owned))
    }

    /// Build a column from the `col`-th field of each row.
    fn from_rows(rows: &[Row], col: usize) -> Column {
        let cells = || rows.iter().map(|r| &r[col]);
        Shape::of(cells()).fill(cells().map(Cow::Borrowed))
    }
}

/// First of the two passes that build a [`Column`]: the null mask, and the
/// one physical type every non-null value has (`None` when they mix).
struct Shape {
    nulls: NullMask,
    uniform: Option<DataType>,
}

impl Shape {
    fn of<'a>(vals: impl ExactSizeIterator<Item = &'a Value>) -> Shape {
        let len = vals.len();
        let mut nulls = NullMask::new(len);
        let (mut ints, mut floats, mut bools, mut strs) = (0usize, 0usize, 0usize, 0usize);
        for (i, v) in vals.enumerate() {
            match v {
                Value::Null => nulls.set(i),
                Value::Int(_) => ints += 1,
                Value::Float(_) => floats += 1,
                Value::Bool(_) => bools += 1,
                Value::Str(_) => strs += 1,
            }
        }
        let non_null = len - nulls.null_count();
        let uniform = [
            (ints, DataType::Int),
            (floats, DataType::Float),
            (bools, DataType::Bool),
            (strs, DataType::Str),
        ]
        .into_iter()
        .find_map(|(n, ty)| (n == non_null).then_some(ty));
        Shape { nulls, uniform }
    }

    /// Second pass: the typed vector (placeholders in NULL slots), or the
    /// values themselves when they mix.
    fn fill<'a>(self, vals: impl Iterator<Item = Cow<'a, Value>>) -> Column {
        let data = match self.uniform {
            Some(DataType::Int) => ColumnData::Int64(
                vals.map(|v| match *v {
                    Value::Int(x) => x,
                    _ => 0,
                })
                .collect(),
            ),
            Some(DataType::Float) => ColumnData::Float64(
                vals.map(|v| match *v {
                    Value::Float(x) => x,
                    _ => 0.0,
                })
                .collect(),
            ),
            Some(DataType::Bool) => {
                ColumnData::Bool(vals.map(|v| matches!(*v, Value::Bool(true))).collect())
            }
            Some(DataType::Str) => ColumnData::Str(
                vals.map(|v| match v.into_owned() {
                    Value::Str(s) => s,
                    _ => String::new(),
                })
                .collect(),
            ),
            None => ColumnData::Mixed(vals.map(Cow::into_owned).collect()),
        };
        Column {
            data,
            nulls: self.nulls,
        }
    }
}

/// A column-major projection of a table: one [`Column`] per schema column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarTable {
    /// The columns, in schema order.
    pub columns: Vec<Column>,
    len: usize,
}

impl ColumnarTable {
    /// Convert rows (all of width `arity`) to columnar form.
    pub fn from_rows(rows: &[Row], arity: usize) -> ColumnarTable {
        ColumnarTable {
            columns: (0..arity).map(|c| Column::from_rows(rows, c)).collect(),
            len: rows.len(),
        }
    }

    /// Assemble a table from pre-built columns (each of `len` rows, or
    /// [`Column::all_null`] placeholders) — the output shape of the join
    /// pipeline's late materialization.
    pub fn from_columns(columns: Vec<Column>, len: usize) -> ColumnarTable {
        ColumnarTable { columns, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reconstruct row `i` exactly as stored in the row-major table.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_tracks_bits() {
        let mut m = NullMask::new(130);
        assert!(!m.any());
        m.set(0);
        m.set(64);
        m.set(129);
        m.set(129); // idempotent
        assert_eq!(m.null_count(), 3);
        assert!(m.is_null(0) && m.is_null(64) && m.is_null(129));
        assert!(!m.is_null(1) && !m.is_null(128));
    }

    #[test]
    fn typed_representation_per_contents() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(1.5), Value::str("a")],
            vec![Value::Null, Value::Float(2.5), Value::Null],
            vec![Value::Int(3), Value::Null, Value::str("c")],
        ];
        let t = ColumnarTable::from_rows(&rows, 3);
        assert!(matches!(t.columns[0].data, ColumnData::Int64(_)));
        assert!(matches!(t.columns[1].data, ColumnData::Float64(_)));
        assert!(matches!(t.columns[2].data, ColumnData::Str(_)));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&t.row(i), row);
        }
    }

    #[test]
    fn mixed_physical_types_fall_back() {
        // A Float schema column physically holding both Int and Float.
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Float(2.5)],
            vec![Value::Null],
        ];
        let t = ColumnarTable::from_rows(&rows, 1);
        assert!(matches!(t.columns[0].data, ColumnData::Mixed(_)));
        // Exact reconstruction: Int stays Int, Float stays Float.
        assert_eq!(t.columns[0].value(0), Value::Int(1));
        assert_eq!(t.columns[0].value(1), Value::Float(2.5));
        assert_eq!(t.columns[0].value(2), Value::Null);
    }

    #[test]
    fn all_null_and_empty_columns() {
        let rows = vec![vec![Value::Null], vec![Value::Null]];
        let t = ColumnarTable::from_rows(&rows, 1);
        assert_eq!(t.columns[0].value(0), Value::Null);
        let empty = ColumnarTable::from_rows(&[], 2);
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.columns.len(), 2);
    }

    #[test]
    fn gather_reorders_duplicates_and_pads_nulls() {
        let rows = vec![
            vec![Value::Int(10), Value::str("a")],
            vec![Value::Null, Value::str("b")],
            vec![Value::Int(30), Value::Null],
        ];
        let t = ColumnarTable::from_rows(&rows, 2);
        let idxs = [2u32, 0, 0, GATHER_NULL, 1];
        let g0 = t.columns[0].gather(&idxs);
        assert_eq!(g0.value(0), Value::Int(30));
        assert_eq!(g0.value(1), Value::Int(10));
        assert_eq!(g0.value(2), Value::Int(10));
        assert_eq!(g0.value(3), Value::Null); // GATHER_NULL pad
        assert_eq!(g0.value(4), Value::Null); // source NULL
        let g1 = t.columns[1].gather(&idxs);
        assert_eq!(g1.value(0), Value::Null);
        assert_eq!(g1.value(3), Value::Null);
        assert_eq!(g1.value(4), Value::str("b"));
    }

    #[test]
    fn gather_mixed_column_preserves_values() {
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Float(2.5)],
            vec![Value::Null],
        ];
        let t = ColumnarTable::from_rows(&rows, 1);
        let g = t.columns[0].gather(&[1, GATHER_NULL, 0]);
        assert_eq!(g.value(0), Value::Float(2.5));
        assert_eq!(g.value(1), Value::Null);
        assert_eq!(g.value(2), Value::Int(1));
    }

    #[test]
    fn all_null_column_reads_null_everywhere() {
        let c = Column::all_null(70);
        assert!(c.is_null(0) && c.is_null(69));
        assert_eq!(c.value(69), Value::Null);
        assert_eq!(c.nulls.null_count(), 70);
        let t = ColumnarTable::from_columns(vec![c], 70);
        assert_eq!(t.len(), 70);
        assert_eq!(t.row(3), vec![Value::Null]);
    }

    #[test]
    fn row_ordering_matches_value_total_cmp() {
        // One table per physical representation, NULLs and ties included;
        // the Float column also carries NaN and ±0.0 (total_cmp is a
        // total order over all bit patterns) and the Mixed column holds a
        // 2^53-boundary Int/Float pair whose comparison is coercion-
        // sensitive.
        let two53 = 9_007_199_254_740_992i64;
        let rows = vec![
            vec![
                Value::Int(3),
                Value::Float(f64::NAN),
                Value::Bool(true),
                Value::str("b"),
                Value::Int(two53 + 1),
            ],
            vec![
                Value::Null,
                Value::Float(-0.0),
                Value::Null,
                Value::Null,
                Value::Float(two53 as f64),
            ],
            vec![
                Value::Int(-1),
                Value::Float(0.0),
                Value::Bool(false),
                Value::str("a"),
                Value::Null,
            ],
            vec![
                Value::Int(3),
                Value::Null,
                Value::Bool(true),
                Value::str("a"),
                Value::Int(-two53),
            ],
            vec![
                Value::Int(0),
                Value::Float(-f64::NAN),
                Value::Bool(false),
                Value::str("ab"),
                Value::Float(0.5),
            ],
        ];
        let t = ColumnarTable::from_rows(&rows, 5);
        assert!(matches!(t.columns[4].data, ColumnData::Mixed(_)));
        for col in &t.columns {
            let cmp = col.row_ordering();
            for a in 0..rows.len() {
                for b in 0..rows.len() {
                    assert_eq!(
                        cmp(a, b),
                        col.value(a).total_cmp(&col.value(b)),
                        "row_ordering diverges from total_cmp at ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn bool_column_roundtrip() {
        let rows = vec![
            vec![Value::Bool(true)],
            vec![Value::Bool(false)],
            vec![Value::Null],
        ];
        let t = ColumnarTable::from_rows(&rows, 1);
        assert!(matches!(t.columns[0].data, ColumnData::Bool(_)));
        assert_eq!(t.columns[0].value(1), Value::Bool(false));
        assert_eq!(t.columns[0].value(2), Value::Null);
    }
}
