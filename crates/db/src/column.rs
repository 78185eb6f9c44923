//! Columnar storage: how every table is held, and the executor's
//! intermediates.
//!
//! A [`ColumnarTable`] holds a table's rows column-major: one typed
//! vector per column (a string column's cells in one buffer,
//! [`Strings`]) plus a null bitmap. A base [`crate::Table`] stores
//! its rows only this way, every executor operator returns one, nested
//! queries included, and the operators iterate these vectors directly
//! instead of interpreting `Vec<Value>` rows.
//!
//! Because runtime values are dynamically typed (a `Float` column may
//! physically hold `Value::Int`s), the representation is chosen from the
//! values actually present, not the declared schema type: a column whose
//! non-null values are all integers becomes [`ColumnData::Int64`], and so
//! on. Columns mixing physical types fall back to [`ColumnData::Mixed`],
//! which keeps the original `Value`s (a gathered column keeps its
//! source's, so a `Mixed` intermediate may hold one type). This makes
//! [`Column::value`] an exact reconstruction — the executor returns
//! byte-identical results to the oracle, so DP noise calibration
//! downstream is unchanged. Columns are never changed while shared (a
//! write appends to a table's own copy), which is what lets the
//! executor's morsel-parallel operators read them from many worker
//! threads lock-free.

use crate::table::Row;
use crate::value::{BorrowKey, Value};
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

    /// Extend the mask to `len` rows, the new ones valid.
    fn grow(&mut self, len: usize) {
        self.words.resize(len.div_ceil(64), 0);
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
    /// String column: every cell in one buffer.
    Str(Strings),
    /// Columns mixing physical types (e.g. `Int` and `Float` in one
    /// `Float` column) keep their original values, NULLs included.
    Mixed(Vec<Value>),
}

/// The cells of a string column, stored as one buffer plus `n + 1` byte
/// offsets that start at 0: cell `i` is `text[offsets[i]..offsets[i + 1]]`.
/// A cell is copied in when it is written, so a column's strings sit
/// together in row order whoever allocated the values they came from, and
/// writing one allocates nothing per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Strings {
    text: String,
    offsets: Vec<usize>,
}

impl Strings {
    /// No cells, room for `cells` of `bytes` bytes in all.
    pub(crate) fn with_capacity(cells: usize, bytes: usize) -> Strings {
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        Strings {
            text: String::with_capacity(bytes),
            offsets,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a cell, copying its bytes.
    pub(crate) fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.offsets.push(self.text.len());
    }

    /// Make room for `cells` more cells of `bytes` bytes in all.
    fn reserve(&mut self, cells: usize, bytes: usize) {
        self.offsets.reserve(cells);
        self.text.reserve(bytes);
    }
}

impl std::ops::Index<usize> for Strings {
    type Output = str;

    /// Cell `i`.
    #[inline]
    fn index(&self, i: usize) -> &str {
        &self.text[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// The representation a column's values call for: the one physical type
/// every non-null value has, `Mixed` when they differ, and `Empty` while
/// there is no non-null value (stored as [`ColumnData::Int64`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Empty,
    Int,
    Float,
    Bool,
    Str,
    Mixed,
}

impl Layout {
    /// The layout of a column holding `v` alone.
    fn of(v: &Value) -> Layout {
        match v {
            Value::Null => Layout::Empty,
            Value::Int(_) => Layout::Int,
            Value::Float(_) => Layout::Float,
            Value::Bool(_) => Layout::Bool,
            Value::Str(_) => Layout::Str,
        }
    }

    /// The layout of a column holding the values of two columns.
    fn merge(self, other: Layout) -> Layout {
        match (self, other) {
            (Layout::Empty, l) | (l, Layout::Empty) => l,
            (a, b) if a == b => a,
            _ => Layout::Mixed,
        }
    }
}

/// What the first pass over a batch learns of one of its columns: the
/// layout its values call for and the bytes its strings take.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    layout: Layout,
    bytes: usize,
}

impl Shape {
    /// The shape of no values.
    pub(crate) const NONE: Shape = Shape {
        layout: Layout::Empty,
        bytes: 0,
    };

    /// Take `v` into the shape.
    #[inline]
    pub(crate) fn see(&mut self, v: &Value) {
        if let Value::Str(s) = v {
            self.bytes += s.len();
        }
        self.layout = self.layout.merge(Layout::of(v));
    }

    /// The shape of each column of `rows` (all of width `arity`), in one
    /// pass over them.
    fn of_rows(rows: &[Row], arity: usize) -> Vec<Shape> {
        let mut shapes = vec![Shape::NONE; arity];
        for row in rows {
            for (shape, v) in shapes.iter_mut().zip(row) {
                shape.see(v);
            }
        }
        shapes
    }
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

    /// An empty column stored in `layout`.
    fn empty(layout: Layout) -> Column {
        let data = match layout {
            Layout::Empty | Layout::Int => ColumnData::Int64(Vec::new()),
            Layout::Float => ColumnData::Float64(Vec::new()),
            Layout::Bool => ColumnData::Bool(Vec::new()),
            Layout::Str => ColumnData::Str(Strings::with_capacity(0, 0)),
            Layout::Mixed => ColumnData::Mixed(Vec::new()),
        };
        Column {
            data,
            nulls: NullMask::default(),
        }
    }

    /// The layout of the values stored (`Empty` when all are NULL).
    fn layout(&self) -> Layout {
        if self.nulls.null_count() == self.len() {
            return Layout::Empty;
        }
        match &self.data {
            ColumnData::Int64(_) => Layout::Int,
            ColumnData::Float64(_) => Layout::Float,
            ColumnData::Bool(_) => Layout::Bool,
            ColumnData::Str(_) => Layout::Str,
            ColumnData::Mixed(_) => Layout::Mixed,
        }
    }

    /// Whether the column is stored the way [`Column::empty`] stores
    /// `layout` (checked without building one: an empty string column
    /// allocates its first offset).
    fn stored_as(&self, layout: Layout) -> bool {
        matches!(
            (&self.data, layout),
            (ColumnData::Int64(_), Layout::Empty | Layout::Int)
                | (ColumnData::Float64(_), Layout::Float)
                | (ColumnData::Bool(_), Layout::Bool)
                | (ColumnData::Str(_), Layout::Str)
                | (ColumnData::Mixed(_), Layout::Mixed)
        )
    }

    /// Make room for `shape`'s `rows` more values. A column whose layout
    /// they change (its first string, a float among integers) is first
    /// stored again in the layout of all its values.
    fn make_room(&mut self, rows: usize, shape: &Shape) {
        let layout = self.layout().merge(shape.layout);
        if !self.stored_as(layout) {
            let mut moved = Column::empty(layout);
            moved.reserve(self.len(), &Shape::NONE);
            for i in 0..self.len() {
                moved.push(&self.value(i));
            }
            *self = moved;
        }
        self.reserve(rows, shape);
    }

    /// Make room for `shape`'s `rows` more values: the null mask grows to
    /// cover them, the vectors reserve.
    fn reserve(&mut self, rows: usize, shape: &Shape) {
        self.nulls.grow(self.len() + rows);
        match &mut self.data {
            ColumnData::Int64(v) => v.reserve(rows),
            ColumnData::Float64(v) => v.reserve(rows),
            ColumnData::Bool(v) => v.reserve(rows),
            ColumnData::Str(v) => v.reserve(rows, shape.bytes),
            ColumnData::Mixed(v) => v.reserve(rows),
        }
    }

    /// Append `v`, which the column's layout admits (NULL, a value of the
    /// typed vector's type, or anything in a mixed column), into room
    /// [`Column::reserve`] made. A typed vector gets a placeholder for a
    /// NULL; a string's bytes are copied.
    #[inline]
    fn push(&mut self, v: &Value) {
        let i = self.len();
        if v.is_null() {
            self.nulls.set(i);
        }
        match &mut self.data {
            ColumnData::Int64(d) => d.push(if let Value::Int(x) = v { *x } else { 0 }),
            ColumnData::Float64(d) => d.push(if let Value::Float(x) = v { *x } else { 0.0 }),
            ColumnData::Bool(d) => d.push(matches!(v, Value::Bool(true))),
            ColumnData::Str(d) => d.push(if let Value::Str(s) = v { s } else { "" }),
            ColumnData::Mixed(d) => d.push(v.clone()),
        }
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
            ColumnData::Str(v) => Value::str(&v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// The [`BorrowKey`] of row `i` — `BorrowKey::from(&self.value(i))`
    /// without building the `Value`: strings are borrowed from the
    /// column. One column's contribution to every key the executor
    /// hashes — a hash join's, a group's, a DISTINCT or set operation's —
    /// and to a max-frequency key, and the dedupe key of
    /// [`crate::Table::labels`].
    pub fn key(&self, i: usize) -> BorrowKey<'_> {
        if self.nulls.is_null(i) {
            return BorrowKey::Null;
        }
        match &self.data {
            ColumnData::Int64(xs) => BorrowKey::Int(xs[i]),
            ColumnData::Float64(xs) => BorrowKey::from_float(xs[i]),
            ColumnData::Bool(bs) => BorrowKey::Bool(bs[i]),
            ColumnData::Str(ss) => BorrowKey::Str(&ss[i]),
            ColumnData::Mixed(vs) => BorrowKey::from(&vs[i]),
        }
    }

    /// The numeric view of row `i` — `self.value(i).as_f64()` without
    /// building the `Value`: `None` for NULL and strings.
    pub fn number(&self, i: usize) -> Option<f64> {
        if self.nulls.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int64(xs) => Some(xs[i] as f64),
            ColumnData::Float64(xs) => Some(xs[i]),
            ColumnData::Bool(bs) => Some(if bs[i] { 1.0 } else { 0.0 }),
            ColumnData::Str(_) => None,
            ColumnData::Mixed(vs) => vs[i].as_f64(),
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
        // mask is authoritative), exactly like the builder.
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
            ColumnData::Str(ss) => {
                let mut out = Strings::with_capacity(idxs.len(), 0);
                for &i in idxs {
                    out.push(if i == GATHER_NULL {
                        ""
                    } else {
                        &ss[i as usize]
                    });
                }
                ColumnData::Str(out)
            }
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

    /// Build a column from values, choosing the representation from the
    /// values actually present (see the module docs); [`Column::value`]
    /// reconstructs each input exactly.
    pub fn from_values(vals: Vec<Value>) -> Column {
        let mut shape = Shape::NONE;
        for v in &vals {
            shape.see(v);
        }
        let mut col = Column::empty(shape.layout);
        col.reserve(vals.len(), &shape);
        for v in &vals {
            col.push(v);
        }
        col
    }
}

/// A table's rows, column-major: one [`Column`] per schema column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarTable {
    /// The columns, in schema order.
    pub columns: Vec<Column>,
    len: usize,
}

impl ColumnarTable {
    /// Build the columns of `rows` (all of width `arity`) — the one
    /// builder of stored rows, used by table writes: one pass over the
    /// rows finds each column's representation, a second fills every
    /// column row by row.
    pub fn from_rows(rows: &[Row], arity: usize) -> ColumnarTable {
        let mut table = ColumnarTable {
            columns: vec![Column::empty(Layout::Empty); arity],
            len: 0,
        };
        table.append(rows, &Shape::of_rows(rows, arity));
        table
    }

    /// Append `rows`, whose [`Shape`]s a first pass over them found, in
    /// one row-major pass. A column whose layout the batch keeps grows in
    /// place; one it changes is first stored again
    /// ([`Column::make_room`]). Either way the columns equal one
    /// [`ColumnarTable::from_rows`] of every row.
    pub(crate) fn append(&mut self, rows: &[Row], shapes: &[Shape]) {
        for (col, shape) in self.columns.iter_mut().zip(shapes) {
            col.make_room(rows.len(), shape);
        }
        for row in rows {
            for (col, v) in self.columns.iter_mut().zip(row) {
                col.push(v);
            }
        }
        self.len += rows.len();
    }

    /// Append the rows of `other`, a table as wide, column by column —
    /// how a set operation's arms become one table. Each column ends up
    /// in the layout of the values of both ([`Column::make_room`]).
    pub(crate) fn concat(&mut self, other: &ColumnarTable) {
        for (col, add) in self.columns.iter_mut().zip(&other.columns) {
            let layout = add.layout();
            col.make_room(other.len, &Shape { layout, bytes: 0 });
            for i in 0..other.len {
                col.push(&add.value(i));
            }
        }
        self.len += other.len;
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

    /// Reconstruct row `i` exactly as it was written.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Reconstruct every row, in order — the inverse of
    /// [`ColumnarTable::from_rows`].
    pub fn rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
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
