//! Runtime values and SQL comparison semantics.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

/// A dynamically-typed SQL value.
///
/// Dates and timestamps are represented as ISO-8601 strings; lexicographic
/// string comparison then matches chronological order, which is all the
/// paper's workloads require.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
}

impl Value {
    /// Shorthand for `Value::Str(s.into())`.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Whether this is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL truthiness: only `TRUE` is true; `NULL` and everything else is
    /// not (filters drop rows whose predicate is `NULL`).
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric view used by arithmetic and numeric aggregates.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view (floats truncate, booleans map to 0/1).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Borrow the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The human-readable name of the value's runtime type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }

    /// SQL comparison: `NULL` compared with anything yields `None`;
    /// numeric types compare after coercion; mixed non-numeric types are
    /// incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Equality for joins and `IN` lists: `NULL = anything` is unknown
    /// (`None`), matching SQL semantics.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// A total order used for `ORDER BY` and `MIN`/`MAX` tie-breaking:
    /// `NULL < booleans < numbers < strings`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let x = a.as_f64().expect("numeric");
                let y = b.as_f64().expect("numeric");
                x.total_cmp(&y)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Hashable wrapper giving [`Value`] well-defined `Eq`/`Hash` for use as a
/// group-by or join key. Integer-valued floats hash equal to the
/// corresponding integers so `1 = 1.0` groups consistently with `sql_eq`,
/// and `NULL` keys compare equal to each other (SQL `GROUP BY` semantics).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    /// `NULL` (all NULLs key equal, per SQL `GROUP BY`).
    Null,
    /// A boolean key.
    Bool(bool),
    /// An integer key — also used for floats that are exact integers.
    Int(i64),
    /// Bit pattern of a float that is not exactly representable as i64.
    FloatBits(u64),
    /// A string key.
    Str(String),
}

/// Canonical key form of a float: `Ok(i)` when it is exactly an integer
/// (so `1.0` keys equal to `1`), else the bit pattern with NaNs and
/// `-0.0` normalized so equal-by-sql values collide. The single
/// normalization rule behind [`ValueKey`] and [`BorrowKey`].
fn float_key(f: f64) -> std::result::Result<i64, u64> {
    if f.fract() == 0.0 && f.is_finite() && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
        Ok(f as i64)
    } else {
        let canon = if f.is_nan() { f64::NAN } else { f + 0.0 };
        Err(canon.to_bits())
    }
}

impl From<&Value> for ValueKey {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => ValueKey::Null,
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => match float_key(*f) {
                Ok(i) => ValueKey::Int(i),
                Err(bits) => ValueKey::FloatBits(bits),
            },
            Value::Str(s) => ValueKey::Str(s.clone()),
        }
    }
}

/// The owned form of a [`BorrowKey`]: `ValueKey::from(BorrowKey::from(v))`
/// equals `ValueKey::from(v)`.
impl From<BorrowKey<'_>> for ValueKey {
    fn from(key: BorrowKey<'_>) -> Self {
        match key {
            BorrowKey::Null => ValueKey::Null,
            BorrowKey::Bool(b) => ValueKey::Bool(b),
            BorrowKey::Int(i) => ValueKey::Int(i),
            BorrowKey::FloatBits(bits) => ValueKey::FloatBits(bits),
            BorrowKey::Str(s) => ValueKey::Str(s.to_string()),
        }
    }
}

/// Borrowing counterpart of [`ValueKey`]: the same variant mapping and
/// float normalization (via the shared `float_key` rule), so two values key
/// equal under `BorrowKey` iff they key equal under `ValueKey` — but
/// strings are borrowed, so building a key never clones. The key of the
/// executor's hash joins, grouping and DISTINCT ([`crate::Column::key`]),
/// which only compare keys with each other and drop them before the
/// borrow ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BorrowKey<'a> {
    /// `NULL` (all NULLs key equal, per SQL `GROUP BY`).
    Null,
    /// A boolean key.
    Bool(bool),
    /// An integer key — also used for floats that are exact integers.
    Int(i64),
    /// Bit pattern of a float that is not exactly representable as i64.
    FloatBits(u64),
    /// A borrowed string key.
    Str(&'a str),
}

impl<'a> From<&'a Value> for BorrowKey<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => BorrowKey::Null,
            Value::Bool(b) => BorrowKey::Bool(*b),
            Value::Int(i) => BorrowKey::Int(*i),
            Value::Float(f) => BorrowKey::from_float(*f),
            Value::Str(s) => BorrowKey::Str(s),
        }
    }
}

impl<'a> BorrowKey<'a> {
    /// Key a float exactly like `ValueKey::from(&Value::Float(f))`.
    pub fn from_float(f: f64) -> BorrowKey<'a> {
        match float_key(f) {
            Ok(i) => BorrowKey::Int(i),
            Err(bits) => BorrowKey::FloatBits(bits),
        }
    }
}

/// The hasher of the executor's key maps (joins, grouping, DISTINCT and
/// set operations): one folded multiply per word, where SipHash cost
/// more than the rest of a lookup, seeded per map from [`RandomState`]
/// so that no analyst can aim keys at one bucket.
#[derive(Clone)]
pub(crate) struct KeyHash(u64);

impl Default for KeyHash {
    fn default() -> Self {
        KeyHash(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHash;
    fn build_hasher(&self) -> KeyHash {
        self.clone()
    }
}

impl Hasher for KeyHash {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().unwrap()));
        }
        // The last 0–7 bytes share one word with the length (no buffer).
        let rest = words.remainder().iter().rev();
        self.write_u64(rest.fold(bytes.len() as u64, |w, &b| w << 8 | u64::from(b)));
    }
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// A composite key over several values, used for multi-column grouping.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowKey(pub Vec<ValueKey>);

impl RowKey {
    /// Key every value of a row (e.g. a group's key columns).
    pub fn from_values(values: &[Value]) -> RowKey {
        RowKey(values.iter().map(ValueKey::from).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert!(!Value::Null.is_true());
    }

    #[test]
    fn numeric_coercion_in_comparisons() {
        assert_eq!(Value::Int(2).sql_eq(&Value::Float(2.0)), Some(true));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn strings_compare_lexicographically() {
        assert_eq!(
            Value::str("2016-10-01").sql_cmp(&Value::str("2016-10-24")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn mixed_types_incomparable() {
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vals = [
            Value::str("z"),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert!(matches!(vals[1], Value::Bool(_)));
        assert!(matches!(vals[4], Value::Str(_)));
    }

    #[test]
    fn value_key_unifies_int_and_float() {
        assert_eq!(
            ValueKey::from(&Value::Int(3)),
            ValueKey::from(&Value::Float(3.0))
        );
        assert_ne!(
            ValueKey::from(&Value::Int(3)),
            ValueKey::from(&Value::Float(3.5))
        );
    }

    #[test]
    fn value_key_null_groups_together() {
        assert_eq!(ValueKey::from(&Value::Null), ValueKey::from(&Value::Null));
    }

    #[test]
    fn negative_zero_and_nan_normalize() {
        assert_eq!(
            ValueKey::from(&Value::Float(0.0)),
            ValueKey::from(&Value::Float(-0.0))
        );
        assert_eq!(
            ValueKey::from(&Value::Float(f64::NAN)),
            ValueKey::from(&Value::Float(-f64::NAN))
        );
    }

    /// `BorrowKey` must partition values exactly like `ValueKey` — same
    /// variant, same float normalization — or the columnar DISTINCT
    /// would dedupe differently than the oracle.
    #[test]
    fn borrow_key_mirrors_value_key() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::str("a"),
            Value::str("b"),
            Value::Int(9_007_199_254_740_993),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    BorrowKey::from(a) == BorrowKey::from(b),
                    ValueKey::from(a) == ValueKey::from(b),
                    "key equality diverges on {a:?} vs {b:?}"
                );
            }
            assert_eq!(ValueKey::from(BorrowKey::from(a)), ValueKey::from(a));
        }
    }

    /// `KeyHash` spreads the key shapes the executor hashes: small
    /// integers, float bits whose low bits are all zero, and strings
    /// that differ in one byte, before or after their first eight (a
    /// collapsed hash would turn every lookup into a scan).
    #[test]
    fn key_hash_spreads_keys() {
        let strings: Vec<String> = (0..1000).map(|i| format!("2016-03-{i:04}")).collect();
        let short: Vec<String> = (0..256).map(|i| char::from(i as u8).to_string()).collect();
        let families: [Vec<BorrowKey>; 4] = [
            (0..1000).map(BorrowKey::Int).collect(),
            (0..1000)
                .map(|i| BorrowKey::from_float(i as f64 + 0.5))
                .collect(),
            strings.iter().map(|s| BorrowKey::Str(s)).collect(),
            short.iter().map(|s| BorrowKey::Str(s)).collect(),
        ];
        let hasher = KeyHash::default();
        for keys in &families {
            let buckets: HashSet<u64> = keys.iter().map(|k| hasher.hash_one(k) & 1023).collect();
            assert!(buckets.len() * 2 > keys.len().min(1024), "{keys:?}");
        }
    }
}
