//! Compiled expressions and their evaluation.
//!
//! SQL [`flex_sql::Expr`] trees are compiled against a scope (an ordered
//! list of columns) into [`CompiledExpr`], which references columns by
//! index. Uncorrelated subquery expressions (`EXISTS`, `IN (SELECT ...)`)
//! are evaluated once at compile time and embedded as value sets.

use crate::error::{DbError, Result};
use crate::value::{Value, ValueKey};
use flex_sql::{BinaryOperator, UnaryOperator};
use std::cmp::Ordering;
use std::collections::HashSet;

/// An expression compiled against a fixed row layout.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// Value of the `i`-th column of the input row.
    Column(usize),
    /// A constant value.
    Literal(Value),
    /// A binary operation `left op right` (SQL three-valued logic for
    /// comparisons and AND/OR).
    Binary {
        /// The operator.
        op: BinaryOperator,
        /// Left operand.
        left: Box<CompiledExpr>,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
    /// A unary operation (`NOT expr`, `-expr`, `+expr`).
    Unary {
        /// The operator.
        op: UnaryOperator,
        /// The operand.
        expr: Box<CompiledExpr>,
    },
    /// A scalar function call.
    ScalarFn {
        /// Which function.
        func: ScalarFunc,
        /// Argument expressions, in call order.
        args: Vec<CompiledExpr>,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// The comparison operand of a simple CASE (`None` for the
        /// searched form, whose WHEN arms are boolean conditions).
        operand: Option<Box<CompiledExpr>>,
        /// `(WHEN condition, THEN result)` arms, in order.
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        /// The `ELSE` result (NULL when absent).
        else_result: Option<Box<CompiledExpr>>,
    },
    /// `expr [NOT] IN (e1, e2, …)` over expression operands.
    InList {
        /// The probe expression.
        expr: Box<CompiledExpr>,
        /// The list members.
        list: Vec<CompiledExpr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// Membership in a pre-evaluated (subquery) value set.
    InSet {
        /// The probe expression.
        expr: Box<CompiledExpr>,
        /// The materialized subquery values.
        set: HashSet<ValueKey>,
        /// Whether the set contains a NULL (affects three-valued logic).
        has_null: bool,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<CompiledExpr>,
        /// Inclusive lower bound.
        low: Box<CompiledExpr>,
        /// Inclusive upper bound.
        high: Box<CompiledExpr>,
        /// `NOT BETWEEN` when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// The tested string expression.
        expr: Box<CompiledExpr>,
        /// The pattern expression.
        pattern: Box<CompiledExpr>,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<CompiledExpr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// The source expression.
        expr: Box<CompiledExpr>,
        /// The destination type.
        target: CastTarget,
    },
}

/// Target type of a `CAST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastTarget {
    /// Integer types (`INT`, `BIGINT`, …).
    Int,
    /// Floating-point and decimal types.
    Float,
    /// Character types (`VARCHAR`, `TEXT`, …).
    Str,
    /// `BOOLEAN`.
    Bool,
}

impl CastTarget {
    /// Resolve a SQL type name to a cast target.
    pub fn parse(name: &str) -> Result<CastTarget> {
        match name {
            "int" | "integer" | "bigint" | "smallint" => Ok(CastTarget::Int),
            "float" | "double" | "real" | "decimal" | "numeric" => Ok(CastTarget::Float),
            "varchar" | "text" | "string" | "char" => Ok(CastTarget::Str),
            "boolean" | "bool" => Ok(CastTarget::Bool),
            other => Err(DbError::Unsupported(format!("CAST to `{other}`"))),
        }
    }
}

/// Scalar (non-aggregate) functions understood by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `LOWER(s)` — ASCII lowercase.
    Lower,
    /// `UPPER(s)` — ASCII uppercase.
    Upper,
    /// `LENGTH(s)` — string length in characters.
    Length,
    /// `ABS(x)` — absolute value.
    Abs,
    /// `ROUND(x)` — round half away from zero.
    Round,
    /// `FLOOR(x)`.
    Floor,
    /// `CEIL(x)`.
    Ceil,
    /// `COALESCE(a, b, …)` — first non-NULL argument.
    Coalesce,
    /// `SUBSTR(s, start[, len])` — 1-indexed substring.
    Substr,
}

impl ScalarFunc {
    /// Resolve a SQL function name to a scalar function.
    pub fn parse(name: &str) -> Option<ScalarFunc> {
        match name {
            "lower" => Some(ScalarFunc::Lower),
            "upper" => Some(ScalarFunc::Upper),
            "length" | "len" => Some(ScalarFunc::Length),
            "abs" => Some(ScalarFunc::Abs),
            "round" => Some(ScalarFunc::Round),
            "floor" => Some(ScalarFunc::Floor),
            "ceil" | "ceiling" => Some(ScalarFunc::Ceil),
            "coalesce" => Some(ScalarFunc::Coalesce),
            "substr" | "substring" => Some(ScalarFunc::Substr),
            _ => None,
        }
    }
}

impl CompiledExpr {
    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            CompiledExpr::Column(i) => Ok(row[*i].clone()),
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            CompiledExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOperator::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(type_err("NOT", "boolean", &other)),
                    },
                    UnaryOperator::Minus => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(type_err("unary -", "number", &other)),
                    },
                    UnaryOperator::Plus => Ok(v),
                }
            }
            CompiledExpr::ScalarFn { func, args } => eval_scalar_fn(*func, args, row),
            CompiledExpr::Case {
                operand,
                branches,
                else_result,
            } => {
                let op_val = operand.as_ref().map(|e| e.eval(row)).transpose()?;
                for (cond, result) in branches {
                    let fire = match &op_val {
                        Some(v) => {
                            let c = cond.eval(row)?;
                            v.sql_eq(&c) == Some(true)
                        }
                        None => cond.eval(row)?.is_true(),
                    };
                    if fire {
                        return result.eval(row);
                    }
                }
                match else_result {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let w = item.eval(row)?;
                    match v.sql_eq(&w) {
                        Some(true) => return Ok(Value::Bool(!negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            CompiledExpr::InSet {
                expr,
                set,
                has_null,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                if set.contains(&ValueKey::from(&v)) {
                    Ok(Value::Bool(!negated))
                } else if *has_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            CompiledExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Ok(Value::Bool(inside != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
                match (v, p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Str(pat)) => {
                        Ok(Value::Bool(like_match(&s, &pat) != *negated))
                    }
                    (a, b) => Err(type_err(
                        "LIKE",
                        "string",
                        if a.as_str().is_some() { &b } else { &a },
                    )),
                }
            }
            CompiledExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            CompiledExpr::Cast { expr, target } => {
                let v = expr.eval(row)?;
                cast_value(v, *target)
            }
        }
    }

    /// Evaluate as a filter predicate (SQL semantics: NULL is "drop").
    pub fn eval_bool(&self, row: &[Value]) -> Result<bool> {
        Ok(self.eval(row)?.is_true())
    }

    /// Visit the index of every column this expression reads. The
    /// executor uses this to gather only referenced columns into
    /// scratch rows when it falls back to scalar evaluation.
    pub fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        if let CompiledExpr::Column(i) = self {
            f(*i);
        }
        self.for_each_child(|child| child.for_each_column(f));
    }
}

/// The columns `exprs` read, ascending and each once: what a scratch row
/// must hold to evaluate them.
pub(crate) fn columns_read<'a>(exprs: impl IntoIterator<Item = &'a CompiledExpr>) -> Vec<usize> {
    let mut refs = Vec::new();
    for e in exprs {
        e.for_each_column(&mut |i| refs.push(i));
    }
    refs.sort_unstable();
    refs.dedup();
    refs
}

/// The direct-children walk of [`CompiledExpr`], written once and
/// instantiated shared and `&mut` — the only code besides `eval` with an
/// arm per variant.
macro_rules! compiled_child_walk {
    ($(#[$doc:meta])* $name:ident $(, $m:tt)?) => {
        $(#[$doc])*
        pub fn $name<'a>(&'a $($m)? self, mut f: impl FnMut(&'a $($m)? CompiledExpr)) {
            match self {
                CompiledExpr::Column(_) | CompiledExpr::Literal(_) => {}
                CompiledExpr::Binary { left, right, .. } => {
                    f(left);
                    f(right);
                }
                CompiledExpr::Unary { expr, .. }
                | CompiledExpr::InSet { expr, .. }
                | CompiledExpr::IsNull { expr, .. }
                | CompiledExpr::Cast { expr, .. } => f(expr),
                CompiledExpr::ScalarFn { args, .. } => {
                    for arg in args {
                        f(arg);
                    }
                }
                CompiledExpr::Case { operand, branches, else_result } => {
                    if let Some(operand) = operand {
                        f(operand);
                    }
                    for (when, then) in branches {
                        f(when);
                        f(then);
                    }
                    if let Some(else_result) = else_result {
                        f(else_result);
                    }
                }
                CompiledExpr::InList { expr, list, .. } => {
                    f(expr);
                    for item in list {
                        f(item);
                    }
                }
                CompiledExpr::Between { expr, low, high, .. } => {
                    f(expr);
                    f(low);
                    f(high);
                }
                CompiledExpr::Like { expr, pattern, .. } => {
                    f(expr);
                    f(pattern);
                }
            }
        }
    };
}

impl CompiledExpr {
    compiled_child_walk! {
        /// Call `f` on each direct sub-expression, in evaluation order.
        for_each_child
    }
    compiled_child_walk! {
        /// [`CompiledExpr::for_each_child`], mutably.
        for_each_child_mut, mut
    }
}

fn type_err(context: &str, expected: &str, found: &Value) -> DbError {
    DbError::TypeMismatch {
        context: context.to_string(),
        expected: expected.to_string(),
        found: found.type_name().to_string(),
    }
}

/// Whether operands that compare as `ord` satisfy the comparison `op`.
#[inline]
pub(crate) fn comparison_holds(op: BinaryOperator, ord: Ordering) -> bool {
    match op {
        BinaryOperator::Eq => ord == Ordering::Equal,
        BinaryOperator::NotEq => ord != Ordering::Equal,
        BinaryOperator::Lt => ord == Ordering::Less,
        BinaryOperator::LtEq => ord != Ordering::Greater,
        BinaryOperator::Gt => ord == Ordering::Greater,
        BinaryOperator::GtEq => ord != Ordering::Less,
        _ => unreachable!("comparison op"),
    }
}

fn eval_binary(
    op: BinaryOperator,
    left: &CompiledExpr,
    right: &CompiledExpr,
    row: &[Value],
) -> Result<Value> {
    // Short-circuiting three-valued logic for AND/OR.
    match op {
        BinaryOperator::And => {
            let l = left.eval(row)?;
            if matches!(l, Value::Bool(false)) {
                return Ok(Value::Bool(false));
            }
            let r = right.eval(row)?;
            return Ok(match (l, r) {
                (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                (_, Value::Bool(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        BinaryOperator::Or => {
            let l = left.eval(row)?;
            if matches!(l, Value::Bool(true)) {
                return Ok(Value::Bool(true));
            }
            let r = right.eval(row)?;
            return Ok(match (l, r) {
                (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                (_, Value::Bool(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        _ => {}
    }

    let l = left.eval(row)?;
    let r = right.eval(row)?;
    if op.is_comparison() {
        return Ok(l
            .sql_cmp(&r)
            .map_or(Value::Null, |ord| Value::Bool(comparison_holds(op, ord))));
    }

    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // String concatenation via `+` is intentionally not supported.
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinaryOperator::Plus => Value::Int(a.wrapping_add(*b)),
            BinaryOperator::Minus => Value::Int(a.wrapping_sub(*b)),
            BinaryOperator::Multiply => Value::Int(a.wrapping_mul(*b)),
            BinaryOperator::Divide => {
                if *b == 0 {
                    Value::Null
                } else {
                    // Integer division truncates, like most SQL engines.
                    Value::Int(a.wrapping_div(*b))
                }
            }
            BinaryOperator::Modulo => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_rem(*b))
                }
            }
            _ => unreachable!("arithmetic op"),
        }),
        _ => {
            let a = l
                .as_f64()
                .ok_or_else(|| type_err("arithmetic", "number", &l))?;
            let b = r
                .as_f64()
                .ok_or_else(|| type_err("arithmetic", "number", &r))?;
            Ok(match op {
                BinaryOperator::Plus => Value::Float(a + b),
                BinaryOperator::Minus => Value::Float(a - b),
                BinaryOperator::Multiply => Value::Float(a * b),
                BinaryOperator::Divide => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                BinaryOperator::Modulo => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a % b)
                    }
                }
                _ => unreachable!("arithmetic op"),
            })
        }
    }
}

fn eval_scalar_fn(func: ScalarFunc, args: &[CompiledExpr], row: &[Value]) -> Result<Value> {
    let argn = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(DbError::InvalidFunction(format!(
                "{func:?} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match func {
        ScalarFunc::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::Lower | ScalarFunc::Upper | ScalarFunc::Length => {
            argn(1)?;
            let v = args[0].eval(row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(match func {
                    ScalarFunc::Lower => Value::Str(s.to_lowercase()),
                    ScalarFunc::Upper => Value::Str(s.to_uppercase()),
                    ScalarFunc::Length => Value::Int(s.chars().count() as i64),
                    _ => unreachable!(),
                }),
                other => Err(type_err("string function", "string", &other)),
            }
        }
        ScalarFunc::Abs | ScalarFunc::Floor | ScalarFunc::Ceil => {
            argn(1)?;
            let v = args[0].eval(row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(match func {
                    ScalarFunc::Abs => Value::Int(i.wrapping_abs()),
                    _ => Value::Int(i),
                }),
                Value::Float(x) => Ok(match func {
                    ScalarFunc::Abs => Value::Float(x.abs()),
                    ScalarFunc::Floor => Value::Float(x.floor()),
                    ScalarFunc::Ceil => Value::Float(x.ceil()),
                    _ => unreachable!(),
                }),
                other => Err(type_err("numeric function", "number", &other)),
            }
        }
        ScalarFunc::Round => {
            if args.is_empty() || args.len() > 2 {
                return Err(DbError::InvalidFunction(
                    "round expects 1 or 2 arguments".into(),
                ));
            }
            let v = args[0].eval(row)?;
            let digits = if args.len() == 2 {
                args[1].eval(row)?.as_i64().unwrap_or(0)
            } else {
                0
            };
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i)),
                Value::Float(x) => {
                    let m = 10f64.powi(digits as i32);
                    Ok(Value::Float((x * m).round() / m))
                }
                other => Err(type_err("round", "number", &other)),
            }
        }
        ScalarFunc::Substr => {
            if args.len() < 2 || args.len() > 3 {
                return Err(DbError::InvalidFunction(
                    "substr expects 2 or 3 arguments".into(),
                ));
            }
            let v = args[0].eval(row)?;
            let Value::Str(s) = v else {
                return if v.is_null() {
                    Ok(Value::Null)
                } else {
                    Err(type_err("substr", "string", &v))
                };
            };
            let start = args[1].eval(row)?.as_i64().unwrap_or(1).max(1) as usize - 1;
            let chars: Vec<char> = s.chars().collect();
            let len = if args.len() == 3 {
                args[2].eval(row)?.as_i64().unwrap_or(0).max(0) as usize
            } else {
                chars.len().saturating_sub(start)
            };
            Ok(Value::Str(
                chars.iter().skip(start).take(len).collect::<String>(),
            ))
        }
    }
}

fn cast_value(v: Value, target: CastTarget) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    match target {
        CastTarget::Int => match &v {
            Value::Int(_) => Ok(v),
            Value::Float(f) => Ok(Value::Int(*f as i64)),
            Value::Bool(b) => Ok(Value::Int(i64::from(*b))),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| type_err("CAST", "integer-like string", &v)),
            Value::Null => unreachable!(),
        },
        CastTarget::Float => match &v {
            Value::Float(_) => Ok(v),
            Value::Int(i) => Ok(Value::Float(*i as f64)),
            Value::Bool(b) => Ok(Value::Float(if *b { 1.0 } else { 0.0 })),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| type_err("CAST", "float-like string", &v)),
            Value::Null => unreachable!(),
        },
        CastTarget::Str => Ok(Value::Str(v.to_string())),
        CastTarget::Bool => match &v {
            Value::Bool(_) => Ok(v),
            Value::Int(i) => Ok(Value::Bool(*i != 0)),
            other => Err(type_err("CAST", "boolean-like", other)),
        },
    }
}

/// SQL `LIKE` pattern matching: `%` matches any sequence, `_` any single
/// character. Matching is case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Classic two-pointer wildcard matching with backtracking on `%`.
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            star_s += 1;
            si = star_s;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> CompiledExpr {
        CompiledExpr::Literal(v.into())
    }

    fn bin(l: CompiledExpr, op: BinaryOperator, r: CompiledExpr) -> CompiledExpr {
        CompiledExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_eq!(
            bin(lit(2i64), BinaryOperator::Plus, lit(3i64))
                .eval(&[])
                .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            bin(lit(2i64), BinaryOperator::Multiply, lit(1.5))
                .eval(&[])
                .unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            bin(lit(7i64), BinaryOperator::Divide, lit(2i64))
                .eval(&[])
                .unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(
            bin(lit(1i64), BinaryOperator::Divide, lit(0i64))
                .eval(&[])
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            bin(lit(1.0), BinaryOperator::Modulo, lit(0.0))
                .eval(&[])
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn three_valued_and_or() {
        let null = lit(Value::Null);
        let t = lit(true);
        let f = lit(false);
        assert_eq!(
            bin(f.clone(), BinaryOperator::And, null.clone())
                .eval(&[])
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            bin(t.clone(), BinaryOperator::And, null.clone())
                .eval(&[])
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            bin(t.clone(), BinaryOperator::Or, null.clone())
                .eval(&[])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(f, BinaryOperator::Or, null).eval(&[]).unwrap(),
            Value::Null
        );
        let _ = t;
    }

    #[test]
    fn comparisons_with_null_are_null() {
        assert_eq!(
            bin(lit(Value::Null), BinaryOperator::Eq, lit(1i64))
                .eval(&[])
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn in_list_three_valued() {
        // 2 IN (1, NULL) => NULL; 1 IN (1, NULL) => TRUE
        let e = CompiledExpr::InList {
            expr: Box::new(lit(2i64)),
            list: vec![lit(1i64), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        let e = CompiledExpr::InList {
            expr: Box::new(lit(1i64)),
            list: vec![lit(1i64), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_inclusive() {
        let e = CompiledExpr::Between {
            expr: Box::new(lit(5i64)),
            low: Box::new(lit(5i64)),
            high: Box::new(lit(10i64)),
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "H%"));
        assert!(!like_match("hello", "h_lo"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "a%b%c"));
    }

    #[test]
    fn case_searched_and_simple() {
        // CASE WHEN col0 > 1 THEN 'big' ELSE 'small' END
        let e = CompiledExpr::Case {
            operand: None,
            branches: vec![(
                bin(CompiledExpr::Column(0), BinaryOperator::Gt, lit(1i64)),
                lit("big"),
            )],
            else_result: Some(Box::new(lit("small"))),
        };
        assert_eq!(e.eval(&[Value::Int(2)]).unwrap(), Value::str("big"));
        assert_eq!(e.eval(&[Value::Int(0)]).unwrap(), Value::str("small"));

        // CASE col0 WHEN 1 THEN 'one' END
        let e = CompiledExpr::Case {
            operand: Some(Box::new(CompiledExpr::Column(0))),
            branches: vec![(lit(1i64), lit("one"))],
            else_result: None,
        };
        assert_eq!(e.eval(&[Value::Int(1)]).unwrap(), Value::str("one"));
        assert_eq!(e.eval(&[Value::Int(2)]).unwrap(), Value::Null);
    }

    #[test]
    fn scalar_functions() {
        let call = |func, args| CompiledExpr::ScalarFn { func, args };
        assert_eq!(
            call(ScalarFunc::Lower, vec![lit("AbC")]).eval(&[]).unwrap(),
            Value::str("abc")
        );
        assert_eq!(
            call(ScalarFunc::Length, vec![lit("abc")])
                .eval(&[])
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call(ScalarFunc::Abs, vec![lit(-4i64)]).eval(&[]).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            call(ScalarFunc::Coalesce, vec![lit(Value::Null), lit(7i64)])
                .eval(&[])
                .unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            call(ScalarFunc::Substr, vec![lit("hello"), lit(2i64), lit(3i64)])
                .eval(&[])
                .unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            call(ScalarFunc::Round, vec![lit(2.567), lit(1i64)])
                .eval(&[])
                .unwrap(),
            Value::Float(2.6)
        );
    }

    /// `-i64::MIN` and `ABS(i64::MIN)` wrap like every binary operator
    /// does, in the debug profile too (plain `-i` / `i.abs()` panic there
    /// and wrap only in release).
    #[test]
    fn negating_the_smallest_integer_wraps_in_every_profile() {
        let neg = CompiledExpr::Unary {
            op: UnaryOperator::Minus,
            expr: Box::new(lit(i64::MIN)),
        };
        assert_eq!(neg.eval(&[]).unwrap(), Value::Int(i64::MIN));
        let abs = CompiledExpr::ScalarFn {
            func: ScalarFunc::Abs,
            args: vec![lit(i64::MIN)],
        };
        assert_eq!(abs.eval(&[]).unwrap(), Value::Int(i64::MIN));
        assert_eq!(
            CompiledExpr::ScalarFn {
                func: ScalarFunc::Abs,
                args: vec![lit(i64::MIN + 1)],
            }
            .eval(&[])
            .unwrap(),
            Value::Int(i64::MAX)
        );
    }

    /// The column visitor is the child walk plus one arm: every shape's
    /// columns, in evaluation order, duplicates kept.
    #[test]
    fn for_each_column_reaches_every_child() {
        let col = |i| CompiledExpr::Column(i);
        let e = CompiledExpr::Case {
            operand: Some(Box::new(col(0))),
            branches: vec![(
                CompiledExpr::InList {
                    expr: Box::new(col(1)),
                    list: vec![lit(1i64), col(2)],
                    negated: false,
                },
                CompiledExpr::Between {
                    expr: Box::new(col(3)),
                    low: Box::new(col(4)),
                    high: Box::new(bin(col(5), BinaryOperator::Plus, col(0))),
                    negated: true,
                },
            )],
            else_result: Some(Box::new(CompiledExpr::Like {
                expr: Box::new(CompiledExpr::Cast {
                    expr: Box::new(col(6)),
                    target: CastTarget::Str,
                }),
                pattern: Box::new(CompiledExpr::ScalarFn {
                    func: ScalarFunc::Lower,
                    args: vec![CompiledExpr::InSet {
                        expr: Box::new(CompiledExpr::IsNull {
                            expr: Box::new(col(7)),
                            negated: false,
                        }),
                        set: HashSet::new(),
                        has_null: false,
                        negated: false,
                    }],
                }),
                negated: false,
            })),
        };
        let mut seen = Vec::new();
        e.for_each_column(&mut |i| seen.push(i));
        assert_eq!(seen, [0, 1, 2, 3, 4, 5, 0, 6, 7]);
    }

    #[test]
    fn casts() {
        let c = |v: Value, t| CompiledExpr::Cast {
            expr: Box::new(CompiledExpr::Literal(v)),
            target: t,
        };
        assert_eq!(
            c(Value::str("42"), CastTarget::Int).eval(&[]).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            c(Value::Int(3), CastTarget::Float).eval(&[]).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            c(Value::Float(2.5), CastTarget::Str).eval(&[]).unwrap(),
            Value::str("2.5")
        );
        assert!(c(Value::str("xyz"), CastTarget::Int).eval(&[]).is_err());
    }

    #[test]
    fn is_null_checks() {
        let e = CompiledExpr::IsNull {
            expr: Box::new(lit(Value::Null)),
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
        let e = CompiledExpr::IsNull {
            expr: Box::new(lit(1i64)),
            negated: true,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }
}
