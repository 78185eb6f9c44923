//! The oracle's expressions: a prepare step, then a recursive evaluator
//! over [`flex_sql::Expr`] and [`Value`].
//!
//! [`Oracle::prepare`] walks an expression once, left to right, before
//! any row is read: it binds every column name, refuses unknown functions
//! and aggregate calls where none may stand, and — in the check walk —
//! checks each uncorrelated `EXISTS` / `IN (SELECT …)` without running
//! it, or — in the run — runs it once, keeping its answer. So a query
//! with a defect fails the same way over an empty table as over a full
//! one.
//! [`Oracle::eval`] then computes a value from a row, or from a group, and
//! raises only what depends on the data.

use crate::fold::Agg;
use crate::Oracle;
use flex_db::bind::{self, ColMeta};
use flex_db::{DbError, Result, Value, ValueKey};
use flex_sql::{BinaryOperator, ColumnRef, Expr, FunctionArg, Literal, UnaryOperator};
use std::cmp::Ordering;
use std::collections::HashSet;

/// What an `EXISTS` / `IN (SELECT …)` node evaluates against: its
/// subquery's answer, computed when the node was prepared.
pub(crate) enum Answer {
    /// `EXISTS`: whether the subquery returned a row.
    Exists(bool),
    /// `IN (SELECT …)`: the subquery's non-NULL values, and whether it
    /// also returned a NULL.
    In {
        values: HashSet<ValueKey>,
        has_null: bool,
    },
}

/// Where an expression stands, which decides what an aggregate call in it
/// is.
pub(crate) enum Place<'p, 'q> {
    /// WHERE, ON, GROUP BY, and every clause of a block that does not
    /// aggregate: an aggregate call is refused.
    Scalar,
    /// Inside an aggregate's argument: a nested call is refused.
    Argument,
    /// The SELECT list, HAVING and ORDER BY of an aggregating block: each
    /// call is collected, in the order the walk meets it.
    Grouped(&'p mut Vec<&'q Expr>),
}

/// What an expression is evaluated over.
pub(crate) enum Input<'a> {
    /// One row of a scope.
    Row(&'a [ColMeta], &'a [Value]),
    /// One group of an aggregating block.
    Group(Group<'a>),
}

/// One group, as its block's SELECT list, HAVING and ORDER BY see it.
pub(crate) struct Group<'a> {
    /// The block's input scope, which the keys are written over.
    pub cols: &'a [ColMeta],
    /// The GROUP BY expressions, and this group's value of each.
    pub keys: &'a [&'a Expr],
    pub key_values: &'a [Value],
    /// The block's aggregate calls, and each one's value over this group.
    pub calls: &'a [&'a Expr],
    pub call_values: &'a [Value],
}

impl Group<'_> {
    /// The value `e` has in this group when it is a GROUP BY key or an
    /// aggregate call; anything else is computed from its parts.
    fn lookup(&self, e: &Expr) -> Option<&Value> {
        if let Some(k) = self.keys.iter().position(|key| same(self.cols, key, e)) {
            return Some(&self.key_values[k]);
        }
        let call = self.calls.iter().position(|call| std::ptr::eq(*call, e));
        call.map(|i| &self.call_values[i])
    }
}

impl<'db> Oracle<'db> {
    /// Prepare `e` over the scope `cols` (see the module docs). Errors come
    /// in the order the SQL spells their causes.
    pub(crate) fn prepare<'q>(
        &mut self,
        e: &'q Expr,
        cols: &[ColMeta],
        place: &mut Place<'_, 'q>,
    ) -> Result<()> {
        match e {
            Expr::Column(c) => {
                if let Err(unbound) = bind::resolve_column(cols, c) {
                    return Err(match place {
                        Place::Grouped(_) => ungrouped(c),
                        _ => unbound,
                    });
                }
            }
            Expr::Function {
                name,
                distinct,
                args,
            } => {
                let star = matches!(args.first(), Some(FunctionArg::Wildcard));
                if let Some(agg) = Agg::named(name, *distinct, star) {
                    let calls = match place {
                        Place::Grouped(calls) => calls,
                        Place::Argument => {
                            return Err(DbError::InvalidAggregate(
                                "nested aggregate functions".into(),
                            ))
                        }
                        Place::Scalar => {
                            return Err(DbError::InvalidAggregate(format!(
                                "aggregate function `{name}` is not allowed here"
                            )))
                        }
                    };
                    // Only the first argument is read.
                    match (agg, args.first()) {
                        (Agg::CountStar, _) => {}
                        (_, Some(FunctionArg::Expr(arg))) => {
                            self.prepare(arg, cols, &mut Place::Argument)?
                        }
                        _ => {
                            return Err(DbError::InvalidAggregate(format!(
                                "`{name}` requires an argument"
                            )))
                        }
                    }
                    calls.push(e);
                    return Ok(());
                }
                if Scalar::named(name).is_none() {
                    return Err(DbError::Unsupported(format!("function `{name}`")));
                }
                for arg in args {
                    match arg {
                        FunctionArg::Wildcard => {
                            return Err(DbError::InvalidFunction(format!(
                                "`*` argument is only valid for count, not `{name}`"
                            )))
                        }
                        FunctionArg::Expr(arg) => self.prepare(arg, cols, place)?,
                    }
                }
            }
            Expr::Cast { expr, data_type } => {
                self.prepare(expr, cols, place)?;
                cast_target(data_type)?;
            }
            // The check walk checks a subquery; the run runs it.
            Expr::Exists(query) if self.checking => {
                self.check(query)?;
            }
            Expr::Exists(query) => {
                let rel = self.query(query)?;
                let answer = Answer::Exists(!rel.rows.is_empty());
                self.answers.insert(e, answer);
            }
            Expr::InSubquery { expr, query, .. } if self.checking => {
                self.prepare(expr, cols, place)?;
                if self.check(query)?.len() != 1 {
                    return Err(DbError::Unsupported(
                        "IN subquery must return exactly one column".into(),
                    ));
                }
            }
            Expr::InSubquery { expr, query, .. } => {
                self.prepare(expr, cols, place)?;
                let rel = self.query(query)?;
                let has_null = rel.rows.iter().any(|row| row[0].is_null());
                let values = (rel.rows.iter())
                    .filter(|row| !row[0].is_null())
                    .map(|row| ValueKey::from(&row[0]))
                    .collect();
                self.answers.insert(e, Answer::In { values, has_null });
            }
            _ => {
                let mut prepared = Ok(());
                e.for_each_child(|child| {
                    if prepared.is_ok() {
                        prepared = self.prepare(child, cols, place);
                    }
                });
                return prepared;
            }
        }
        Ok(())
    }

    /// The value of a prepared expression.
    pub(crate) fn eval(&self, e: &Expr, input: &Input<'_>) -> Result<Value> {
        if let Input::Group(group) = input {
            if let Some(v) = group.lookup(e) {
                return Ok(v.clone());
            }
        }
        let eval = |e: &Expr| self.eval(e, input);
        Ok(match e {
            Expr::Column(c) => match input {
                Input::Row(cols, row) => row[bind::resolve_column(cols, c)?].clone(),
                Input::Group(_) => unreachable!("prepare refuses a column no key covers"),
            },
            Expr::Literal(l) => literal(l),
            Expr::UnaryOp { op, expr } => match (op, eval(expr)?) {
                (_, Value::Null) => Value::Null,
                (UnaryOperator::Plus, v) => v,
                (UnaryOperator::Not, Value::Bool(b)) => Value::Bool(!b),
                (UnaryOperator::Not, v) => return Err(mismatch("NOT", "boolean", &v)),
                (UnaryOperator::Minus, Value::Int(i)) => Value::Int(i.wrapping_neg()),
                (UnaryOperator::Minus, Value::Float(x)) => Value::Float(-x),
                (UnaryOperator::Minus, v) => return Err(mismatch("unary -", "number", &v)),
            },
            // Three-valued AND / OR, the right side unevaluated when the
            // left one decides.
            Expr::BinaryOp {
                left,
                op: BinaryOperator::And,
                right,
            } => match eval(left)? {
                Value::Bool(false) => Value::Bool(false),
                l => match (l, eval(right)?) {
                    (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                    (_, Value::Bool(false)) => Value::Bool(false),
                    _ => Value::Null,
                },
            },
            Expr::BinaryOp {
                left,
                op: BinaryOperator::Or,
                right,
            } => match eval(left)? {
                Value::Bool(true) => Value::Bool(true),
                l => match (l, eval(right)?) {
                    (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                    (_, Value::Bool(true)) => Value::Bool(true),
                    _ => Value::Null,
                },
            },
            Expr::BinaryOp { left, op, right } => {
                let (l, r) = (eval(left)?, eval(right)?);
                if op.is_comparison() {
                    match l.sql_cmp(&r) {
                        Some(ord) => Value::Bool(compares(*op, ord)),
                        None => Value::Null,
                    }
                } else {
                    arithmetic(*op, l, r)?
                }
            }
            Expr::Function { name, args, .. } => {
                let args: Vec<&Expr> = (args.iter())
                    .map(|arg| match arg {
                        FunctionArg::Expr(arg) => arg,
                        FunctionArg::Wildcard => unreachable!("prepare refuses `*`"),
                    })
                    .collect();
                let scalar = Scalar::named(name).expect("prepare refuses unknown functions");
                self.call(scalar, &args, input)?
            }
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                let operand = operand.as_deref().map(eval).transpose()?;
                for (when, then) in branches {
                    let fires = match &operand {
                        Some(v) => v.sql_eq(&eval(when)?) == Some(true),
                        None => eval(when)?.is_true(),
                    };
                    if fires {
                        return eval(then);
                    }
                }
                match else_result {
                    Some(e) => eval(e)?,
                    None => Value::Null,
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = eval(expr)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut unknown = false;
                for item in list {
                    match v.sql_eq(&eval(item)?) {
                        Some(true) => return Ok(Value::Bool(!negated)),
                        Some(false) => {}
                        None => unknown = true,
                    }
                }
                if unknown {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Expr::InSubquery { expr, negated, .. } => {
                let v = eval(expr)?;
                let Answer::In { values, has_null } = &self.answers[&(e as *const Expr)] else {
                    unreachable!("an IN subquery's answer is a value set");
                };
                if v.is_null() {
                    Value::Null
                } else if values.contains(&ValueKey::from(&v)) {
                    Value::Bool(!negated)
                } else if *has_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Expr::Exists(_) => match &self.answers[&(e as *const Expr)] {
                Answer::Exists(found) => Value::Bool(*found),
                Answer::In { .. } => unreachable!("an EXISTS answer is a flag"),
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let (v, low, high) = (eval(expr)?, eval(low)?, eval(high)?);
                match (v.sql_cmp(&low), v.sql_cmp(&high)) {
                    (Some(lo), Some(hi)) => {
                        let inside = lo != Ordering::Less && hi != Ordering::Greater;
                        Value::Bool(inside != *negated)
                    }
                    _ => Value::Null,
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => match (eval(expr)?, eval(pattern)?) {
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (Value::Str(s), Value::Str(p)) => Value::Bool(like(&s, &p) != *negated),
                (Value::Str(_), v) | (v, _) => return Err(mismatch("LIKE", "string", &v)),
            },
            Expr::IsNull { expr, negated } => Value::Bool(eval(expr)?.is_null() != *negated),
            Expr::Cast { expr, data_type } => {
                let target = cast_target(data_type).expect("prepare refuses unknown types");
                cast(eval(expr)?, target)?
            }
        })
    }

    /// A scalar function call. Arity is checked before any argument is
    /// evaluated.
    fn call(&self, f: Scalar, args: &[&Expr], input: &Input<'_>) -> Result<Value> {
        let arg = |i: usize| self.eval(args[i], input);
        let arity = |ok: bool, expected: &str| match ok {
            true => Ok(()),
            false => Err(DbError::InvalidFunction(format!(
                "{expected}, got {}",
                args.len()
            ))),
        };
        Ok(match f {
            Scalar::Coalesce => {
                for i in 0..args.len() {
                    let v = arg(i)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Value::Null
            }
            Scalar::Lower | Scalar::Upper | Scalar::Length => {
                arity(args.len() == 1, &format!("{f:?} expects 1 argument(s)"))?;
                match arg(0)? {
                    Value::Null => Value::Null,
                    Value::Str(s) if f == Scalar::Lower => Value::Str(s.to_lowercase()),
                    Value::Str(s) if f == Scalar::Upper => Value::Str(s.to_uppercase()),
                    Value::Str(s) => Value::Int(s.chars().count() as i64),
                    v => return Err(mismatch("string function", "string", &v)),
                }
            }
            Scalar::Abs | Scalar::Floor | Scalar::Ceil => {
                arity(args.len() == 1, &format!("{f:?} expects 1 argument(s)"))?;
                match (f, arg(0)?) {
                    (_, Value::Null) => Value::Null,
                    (Scalar::Abs, Value::Int(i)) => Value::Int(i.wrapping_abs()),
                    (_, Value::Int(i)) => Value::Int(i),
                    (Scalar::Abs, Value::Float(x)) => Value::Float(x.abs()),
                    (Scalar::Floor, Value::Float(x)) => Value::Float(x.floor()),
                    (_, Value::Float(x)) => Value::Float(x.ceil()),
                    (_, v) => return Err(mismatch("numeric function", "number", &v)),
                }
            }
            Scalar::Round => {
                if args.is_empty() || args.len() > 2 {
                    return Err(DbError::InvalidFunction(
                        "round expects 1 or 2 arguments".into(),
                    ));
                }
                let v = arg(0)?;
                let digits = match args.len() {
                    2 => arg(1)?.as_i64().unwrap_or(0),
                    _ => 0,
                };
                match v {
                    Value::Null => Value::Null,
                    Value::Int(i) => Value::Int(i),
                    Value::Float(x) => {
                        let scale = 10f64.powi(digits as i32);
                        Value::Float((x * scale).round() / scale)
                    }
                    v => return Err(mismatch("round", "number", &v)),
                }
            }
            Scalar::Substr => {
                if args.len() < 2 || args.len() > 3 {
                    return Err(DbError::InvalidFunction(
                        "substr expects 2 or 3 arguments".into(),
                    ));
                }
                let s = match arg(0)? {
                    Value::Null => return Ok(Value::Null),
                    Value::Str(s) => s,
                    v => return Err(mismatch("substr", "string", &v)),
                };
                // 1-based; a start below 1 reads as 1.
                let start = arg(1)?.as_i64().unwrap_or(1).max(1) as usize - 1;
                let chars = s.chars().skip(start);
                Value::Str(match args.len() {
                    3 => chars
                        .take(arg(2)?.as_i64().unwrap_or(0).max(0) as usize)
                        .collect(),
                    _ => chars.collect(),
                })
            }
        })
    }
}

/// The scalar functions, whichever of their names spells them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scalar {
    Lower,
    Upper,
    Length,
    Abs,
    Round,
    Floor,
    Ceil,
    Coalesce,
    Substr,
}

impl Scalar {
    fn named(name: &str) -> Option<Scalar> {
        Some(match name {
            "lower" => Scalar::Lower,
            "upper" => Scalar::Upper,
            "length" | "len" => Scalar::Length,
            "abs" => Scalar::Abs,
            "round" => Scalar::Round,
            "floor" => Scalar::Floor,
            "ceil" | "ceiling" => Scalar::Ceil,
            "coalesce" => Scalar::Coalesce,
            "substr" | "substring" => Scalar::Substr,
            _ => return None,
        })
    }
}

/// What a `CAST` converts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CastTo {
    Int,
    Float,
    Str,
    Bool,
}

fn cast_target(name: &str) -> Result<CastTo> {
    Ok(match name {
        "int" | "integer" | "bigint" | "smallint" => CastTo::Int,
        "float" | "double" | "real" | "decimal" | "numeric" => CastTo::Float,
        "varchar" | "text" | "string" | "char" => CastTo::Str,
        "boolean" | "bool" => CastTo::Bool,
        other => return Err(DbError::Unsupported(format!("CAST to `{other}`"))),
    })
}

fn cast(v: Value, to: CastTo) -> Result<Value> {
    Ok(match (to, v) {
        (_, Value::Null) => Value::Null,
        (CastTo::Str, v) => Value::Str(v.to_string()),
        (CastTo::Int, Value::Int(i)) => Value::Int(i),
        (CastTo::Int, Value::Float(x)) => Value::Int(x as i64),
        (CastTo::Int, Value::Bool(b)) => Value::Int(i64::from(b)),
        (CastTo::Int, v) => match v.as_str().map(|s| s.trim().parse::<i64>()) {
            Some(Ok(i)) => Value::Int(i),
            _ => return Err(mismatch("CAST", "integer-like string", &v)),
        },
        (CastTo::Float, Value::Float(x)) => Value::Float(x),
        (CastTo::Float, Value::Int(i)) => Value::Float(i as f64),
        (CastTo::Float, Value::Bool(b)) => Value::Float(if b { 1.0 } else { 0.0 }),
        (CastTo::Float, v) => match v.as_str().map(|s| s.trim().parse::<f64>()) {
            Some(Ok(x)) => Value::Float(x),
            _ => return Err(mismatch("CAST", "float-like string", &v)),
        },
        (CastTo::Bool, Value::Bool(b)) => Value::Bool(b),
        (CastTo::Bool, Value::Int(i)) => Value::Bool(i != 0),
        (CastTo::Bool, v) => return Err(mismatch("CAST", "boolean-like", &v)),
    })
}

/// `+ - * / %`: NULL in, NULL out; two integers stay integers (wrapping,
/// truncating division); anything else is read as floats. Division or
/// remainder by zero is NULL.
fn arithmetic(op: BinaryOperator, l: Value, r: Value) -> Result<Value> {
    Ok(match (l, r) {
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Int(a), Value::Int(b)) => match op {
            BinaryOperator::Plus => Value::Int(a.wrapping_add(b)),
            BinaryOperator::Minus => Value::Int(a.wrapping_sub(b)),
            BinaryOperator::Multiply => Value::Int(a.wrapping_mul(b)),
            _ if b == 0 => Value::Null,
            BinaryOperator::Divide => Value::Int(a.wrapping_div(b)),
            _ => Value::Int(a.wrapping_rem(b)),
        },
        (l, r) => {
            let a = l
                .as_f64()
                .ok_or_else(|| mismatch("arithmetic", "number", &l))?;
            let b = r
                .as_f64()
                .ok_or_else(|| mismatch("arithmetic", "number", &r))?;
            match op {
                BinaryOperator::Plus => Value::Float(a + b),
                BinaryOperator::Minus => Value::Float(a - b),
                BinaryOperator::Multiply => Value::Float(a * b),
                _ if b == 0.0 => Value::Null,
                BinaryOperator::Divide => Value::Float(a / b),
                _ => Value::Float(a % b),
            }
        }
    })
}

/// Whether two values `ord` apart satisfy the comparison `op`.
fn compares(op: BinaryOperator, ord: Ordering) -> bool {
    match op {
        BinaryOperator::Eq => ord.is_eq(),
        BinaryOperator::NotEq => ord.is_ne(),
        BinaryOperator::Lt => ord.is_lt(),
        BinaryOperator::LtEq => ord.is_le(),
        BinaryOperator::Gt => ord.is_gt(),
        BinaryOperator::GtEq => ord.is_ge(),
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

/// SQL `LIKE`, case-sensitive: `%` matches any run of characters, `_`
/// any one. `matches[j]` says whether the text read so far matches the
/// first `j` pattern characters.
fn like(text: &str, pattern: &str) -> bool {
    let pattern: Vec<char> = pattern.chars().collect();
    let mut matches = vec![false; pattern.len() + 1];
    matches[0] = true;
    for j in 1..=pattern.len() {
        matches[j] = matches[j - 1] && pattern[j - 1] == '%';
    }
    for c in text.chars() {
        let mut next = vec![false; pattern.len() + 1];
        for j in 1..=pattern.len() {
            next[j] = match pattern[j - 1] {
                '%' => next[j - 1] || matches[j],
                p => matches[j - 1] && (p == '_' || p == c),
            };
        }
        matches = next;
    }
    matches[pattern.len()]
}

fn literal(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Bool(*b),
        Literal::Integer(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::String(s) => Value::Str(s.clone()),
    }
}

fn mismatch(context: &str, expected: &str, found: &Value) -> DbError {
    DbError::TypeMismatch {
        context: context.to_string(),
        expected: expected.to_string(),
        found: found.type_name().to_string(),
    }
}

/// The error of a grouped block's column that no GROUP BY key covers.
pub(crate) fn ungrouped(c: &ColumnRef) -> DbError {
    DbError::InvalidAggregate(format!(
        "column `{c}` must appear in GROUP BY or inside an aggregate"
    ))
}

/// The first column reference of `e` (left to right, subqueries apart)
/// that is neither inside a GROUP BY key nor inside an aggregate call.
pub(crate) fn first_ungrouped<'e>(
    e: &'e Expr,
    cols: &[ColMeta],
    keys: &[&Expr],
) -> Option<&'e ColumnRef> {
    if keys.iter().any(|key| same(cols, key, e)) || is_aggregate_call(e) {
        return None;
    }
    if let Expr::Column(c) = e {
        return Some(c);
    }
    let mut found = None;
    e.for_each_child(|child| found = found.or_else(|| first_ungrouped(child, cols, keys)));
    found
}

/// Whether `e` calls an aggregate.
pub(crate) fn is_aggregate_call(e: &Expr) -> bool {
    matches!(e, Expr::Function { name, .. } if Agg::is_name(name))
}

/// Whether `e` contains an aggregate call (a subquery's are its own).
pub(crate) fn contains_aggregate(e: &Expr) -> bool {
    let mut found = is_aggregate_call(e);
    e.for_each_child(|child| found = found || contains_aggregate(child));
    found
}

/// Whether `a` and `b` compute the same thing over `cols` — how a grouped
/// block finds the GROUP BY key an expression is: the same shape, column
/// references bound to the same column, literals of equal value, scalar
/// functions and `CAST` types equal under any of their names, and
/// subqueries written alike.
fn same(cols: &[ColMeta], a: &Expr, b: &Expr) -> bool {
    let eq = |a: &Expr, b: &Expr| same(cols, a, b);
    let eq_boxed = |a: &Option<Box<Expr>>, b: &Option<Box<Expr>>| match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => eq(a, b),
        _ => false,
    };
    let eq_all =
        |a: &[Expr], b: &[Expr]| a.len() == b.len() && a.iter().zip(b).all(|(a, b)| eq(a, b));
    match (a, b) {
        (Expr::Column(a), Expr::Column(b)) => {
            let (a, b) = (bind::resolve_column(cols, a), bind::resolve_column(cols, b));
            matches!((a, b), (Ok(a), Ok(b)) if a == b)
        }
        (Expr::Literal(a), Expr::Literal(b)) => literal(a) == literal(b),
        (
            Expr::BinaryOp {
                left: l1,
                op: o1,
                right: r1,
            },
            Expr::BinaryOp {
                left: l2,
                op: o2,
                right: r2,
            },
        ) => o1 == o2 && eq(l1, l2) && eq(r1, r2),
        (Expr::UnaryOp { op: o1, expr: a }, Expr::UnaryOp { op: o2, expr: b }) => {
            o1 == o2 && eq(a, b)
        }
        (
            Expr::Function {
                name: n1, args: a1, ..
            },
            Expr::Function {
                name: n2, args: a2, ..
            },
        ) => {
            let (Some(f1), Some(f2)) = (Scalar::named(n1), Scalar::named(n2)) else {
                return false;
            };
            let args_eq = |(a, b): (&FunctionArg, &FunctionArg)| match (a, b) {
                (FunctionArg::Expr(a), FunctionArg::Expr(b)) => eq(a, b),
                _ => false,
            };
            f1 == f2 && a1.len() == a2.len() && a1.iter().zip(a2).all(args_eq)
        }
        (
            Expr::Case {
                operand: o1,
                branches: b1,
                else_result: e1,
            },
            Expr::Case {
                operand: o2,
                branches: b2,
                else_result: e2,
            },
        ) => {
            let branches_eq = b1.len() == b2.len()
                && (b1.iter().zip(b2)).all(|((w1, t1), (w2, t2))| eq(w1, w2) && eq(t1, t2));
            eq_boxed(o1, o2) && branches_eq && eq_boxed(e1, e2)
        }
        (
            Expr::InList {
                expr: a,
                list: l1,
                negated: n1,
            },
            Expr::InList {
                expr: b,
                list: l2,
                negated: n2,
            },
        ) => n1 == n2 && eq(a, b) && eq_all(l1, l2),
        (
            Expr::Between {
                expr: a,
                low: lo1,
                high: hi1,
                negated: n1,
            },
            Expr::Between {
                expr: b,
                low: lo2,
                high: hi2,
                negated: n2,
            },
        ) => n1 == n2 && eq(a, b) && eq(lo1, lo2) && eq(hi1, hi2),
        (
            Expr::Like {
                expr: a,
                pattern: p1,
                negated: n1,
            },
            Expr::Like {
                expr: b,
                pattern: p2,
                negated: n2,
            },
        ) => n1 == n2 && eq(a, b) && eq(p1, p2),
        (
            Expr::IsNull {
                expr: a,
                negated: n1,
            },
            Expr::IsNull {
                expr: b,
                negated: n2,
            },
        ) => n1 == n2 && eq(a, b),
        (
            Expr::Cast {
                expr: a,
                data_type: t1,
            },
            Expr::Cast {
                expr: b,
                data_type: t2,
            },
        ) => eq(a, b) && matches!((cast_target(t1), cast_target(t2)), (Ok(t1), Ok(t2)) if t1 == t2),
        (Expr::Exists(a), Expr::Exists(b)) => a == b,
        (
            Expr::InSubquery {
                expr: a,
                query: q1,
                negated: n1,
            },
            Expr::InSubquery {
                expr: b,
                query: q2,
                negated: n2,
            },
        ) => n1 == n2 && eq(a, b) && q1 == q2,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matches_runs_and_single_characters() {
        for (text, pattern, expected) in [
            ("hello", "h%", true),
            ("hello", "%llo", true),
            ("hello", "h_llo", true),
            ("hello", "%", true),
            ("hello", "H%", false),
            ("hello", "h_lo", false),
            ("", "%", true),
            ("", "_", false),
            ("", "", true),
            ("abc", "a%b%c", true),
            ("abc", "a%%c", true),
            ("ab", "a%b%c", false),
            ("aXbXc", "a_b_c", true),
            ("żółw", "_ó%", true),
        ] {
            assert_eq!(like(text, pattern), expected, "{text:?} LIKE {pattern:?}");
        }
    }

    #[test]
    fn comparisons_hold_on_their_orderings() {
        use BinaryOperator::*;
        use Ordering::*;
        for (op, holds) in [
            (Eq, [false, true, false]),
            (NotEq, [true, false, true]),
            (Lt, [true, false, false]),
            (LtEq, [true, true, false]),
            (Gt, [false, false, true]),
            (GtEq, [false, true, true]),
        ] {
            for (ord, holds) in [Less, Equal, Greater].into_iter().zip(holds) {
                assert_eq!(compares(op, ord), holds, "{op:?} on {ord:?}");
            }
        }
    }

    #[test]
    fn arithmetic_keeps_integers_and_reads_the_rest_as_floats() {
        use BinaryOperator::*;
        let int = Value::Int;
        assert_eq!(arithmetic(Divide, int(7), int(2)), Ok(int(3)));
        assert_eq!(arithmetic(Divide, int(7), int(0)), Ok(Value::Null));
        assert_eq!(arithmetic(Modulo, int(7), int(-3)), Ok(int(1)));
        assert_eq!(arithmetic(Minus, int(i64::MIN), int(1)), Ok(int(i64::MAX)));
        assert_eq!(
            arithmetic(Divide, int(i64::MIN), int(-1)),
            Ok(int(i64::MIN))
        );
        assert_eq!(
            arithmetic(Multiply, int(2), Value::Float(1.5)),
            Ok(Value::Float(3.0))
        );
        assert_eq!(
            arithmetic(Plus, Value::Bool(true), int(1)),
            Ok(Value::Float(2.0))
        );
        assert_eq!(
            arithmetic(Modulo, Value::Float(1.0), Value::Float(0.0)),
            Ok(Value::Null)
        );
        assert_eq!(
            arithmetic(Plus, Value::str("a"), Value::Null),
            Ok(Value::Null)
        );
        assert_eq!(
            arithmetic(Plus, int(1), Value::str("a"))
                .unwrap_err()
                .to_string(),
            "type mismatch in arithmetic: expected number, found string"
        );
    }

    #[test]
    fn casts() {
        assert_eq!(cast(Value::str(" 42 "), CastTo::Int), Ok(Value::Int(42)));
        assert_eq!(cast(Value::Float(-2.7), CastTo::Int), Ok(Value::Int(-2)));
        assert_eq!(cast(Value::Int(3), CastTo::Float), Ok(Value::Float(3.0)));
        assert_eq!(cast(Value::Float(2.5), CastTo::Str), Ok(Value::str("2.5")));
        assert_eq!(cast(Value::Int(0), CastTo::Bool), Ok(Value::Bool(false)));
        assert_eq!(cast(Value::Null, CastTo::Bool), Ok(Value::Null));
        assert!(cast(Value::str("xyz"), CastTo::Int).is_err());
        assert!(cast(Value::Float(1.0), CastTo::Bool).is_err());
        assert_eq!(
            cast_target("money").unwrap_err().to_string(),
            "unsupported query feature: CAST to `money`"
        );
    }
}
