//! Abstract syntax tree for the SQL dialect understood by FLEX.
//!
//! The dialect covers the constructs exercised by the paper's workloads:
//! `WITH` common table expressions, `SELECT` with arbitrary expressions and
//! aggregation functions, `FROM` with nested joins of all types
//! (inner/left/right/full/cross) and `ON`/`USING` constraints, derived tables
//! (subqueries in `FROM`), `WHERE`, `GROUP BY`, `HAVING`, set operations
//! (`UNION`/`INTERSECT`/`EXCEPT`), `ORDER BY` and `LIMIT`/`OFFSET`.

use serde::{Deserialize, Serialize};

/// A complete query: optional CTE prologue, a body, then ordering/limits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// `WITH name AS (...)` bindings, in declaration order.
    pub ctes: Vec<Cte>,
    /// The query body (a plain `SELECT` or a set operation tree).
    pub body: SetExpr,
    /// `ORDER BY` items applied to the body's output.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT n`.
    pub limit: Option<u64>,
    /// `OFFSET n`.
    pub offset: Option<u64>,
}

impl Query {
    /// A query consisting of a bare select with no CTEs/ordering/limits.
    pub fn from_select(select: Select) -> Self {
        Query {
            ctes: Vec::new(),
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// The root select, if the body is not a set operation.
    pub fn as_select(&self) -> Option<&Select> {
        match &self.body {
            SetExpr::Select(s) => Some(s),
            SetExpr::SetOp { .. } => None,
        }
    }
}

/// One `WITH` binding: `name AS (query)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cte {
    pub name: String,
    pub query: Query,
}

/// Query body: plain select or a binary set operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SetExpr {
    Select(Box<Select>),
    SetOp {
        op: SetOperator,
        all: bool,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
}

/// `UNION`, `INTERSECT`, or `EXCEPT`/`MINUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SetOperator {
    Union,
    Intersect,
    Except,
}

/// A single `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    /// `FROM` clause; `None` for table-less selects like `SELECT 1`.
    pub from: Option<TableRef>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS` alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// A relation in the `FROM` clause: base table, derived table, or join tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TableRef {
    /// A named table (or CTE reference) with an optional alias.
    Table { name: String, alias: Option<String> },
    /// A parenthesized subquery with a mandatory alias.
    Derived { query: Box<Query>, alias: String },
    /// A binary join.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        join_type: JoinType,
        constraint: JoinConstraint,
    },
}

impl TableRef {
    /// Iterate over the base table names referenced anywhere in this tree
    /// (not descending into derived subqueries).
    pub fn base_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        fn walk<'a>(t: &'a TableRef, out: &mut Vec<&'a str>) {
            match t {
                TableRef::Table { name, .. } => out.push(name.as_str()),
                TableRef::Derived { .. } => {}
                TableRef::Join { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        walk(self, &mut out);
        out
    }
}

/// SQL join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinType {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

/// The join condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JoinConstraint {
    /// `ON <expr>`
    On(Expr),
    /// `USING (a, b, ...)`
    Using(Vec<String>),
    /// No constraint (cross join).
    None,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderByItem {
    pub expr: Expr,
    pub descending: bool,
}

/// A possibly-qualified column reference (`t.col` or `col`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColumnRef {
    pub fn bare(name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            name: name.into(),
        }
    }

    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// Scalar literal values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    Null,
    Boolean(bool),
    Integer(i64),
    Float(f64),
    String(String),
}

/// Binary operators in order of increasing precedence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOperator {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
}

impl BinaryOperator {
    /// Is this a comparison operator (the `θ` of the paper's Figure 1a)?
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOperator::Eq
                | BinaryOperator::NotEq
                | BinaryOperator::Lt
                | BinaryOperator::LtEq
                | BinaryOperator::Gt
                | BinaryOperator::GtEq
        )
    }

    /// Is this an arithmetic operator?
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            BinaryOperator::Plus
                | BinaryOperator::Minus
                | BinaryOperator::Multiply
                | BinaryOperator::Divide
                | BinaryOperator::Modulo
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOperator {
    Not,
    Minus,
    Plus,
}

/// Argument of a function call; `COUNT(*)` uses [`FunctionArg::Wildcard`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FunctionArg {
    Wildcard,
    Expr(Expr),
}

/// Scalar and aggregate expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Literal),
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOperator,
        right: Box<Expr>,
    },
    UnaryOp {
        op: UnaryOperator,
        expr: Box<Expr>,
    },
    Function {
        name: String,
        distinct: bool,
        args: Vec<FunctionArg>,
    },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_result: Option<Box<Expr>>,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Cast {
        expr: Box<Expr>,
        data_type: String,
    },
    /// `EXISTS (subquery)` — parsed for corpus realism; rejected by analysis.
    Exists(Box<Query>),
    /// `expr IN (subquery)` — parsed for corpus realism; rejected by analysis.
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for a binary operation.
    pub fn binary(left: Expr, op: BinaryOperator, right: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Convenience constructor for an equality between two columns.
    pub fn col_eq(left: ColumnRef, right: ColumnRef) -> Expr {
        Expr::binary(Expr::Column(left), BinaryOperator::Eq, Expr::Column(right))
    }

    /// Split a conjunctive predicate into its conjuncts:
    /// `a AND (b AND c)` yields `[a, b, c]`.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::BinaryOp {
                    left,
                    op: BinaryOperator::And,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// If this expression is `col1 = col2`, return both column refs.
    pub fn as_column_equality(&self) -> Option<(&ColumnRef, &ColumnRef)> {
        if let Expr::BinaryOp {
            left,
            op: BinaryOperator::Eq,
            right,
        } = self
        {
            if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
                return Some((a, b));
            }
        }
        None
    }

    /// The column name a projected `self [AS alias]` gets in its SELECT's
    /// output: the alias, else a plain column's or function's own name,
    /// else `expr`. The engines name result columns with it and the
    /// analysis resolves derived-table columns *by* it, so there is
    /// exactly one definition.
    pub fn output_name(&self, alias: Option<&str>) -> String {
        match (alias, self) {
            (Some(a), _) => a.to_string(),
            (None, Expr::Column(c)) => c.name.clone(),
            (None, Expr::Function { name, .. }) => name.clone(),
            (None, _) => "expr".to_string(),
        }
    }

    /// Does this expression contain any aggregate function call? (A
    /// subquery is a query of its own: what it aggregates is its business.)
    pub fn contains_aggregate(&self) -> bool {
        let mut found =
            matches!(self, Expr::Function { name, .. } if Aggregate::parse(name).is_some());
        self.for_each_child(|child| found = found || child.contains_aggregate());
        found
    }
}

/// An aggregation function, whichever of its names spelled it. `COUNT`'s
/// three forms (`*`, an expression, `DISTINCT`) are one function here; the
/// engine tells them apart by the call's arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Median,
    /// Sample standard deviation.
    Stddev,
}

/// Every name that spells an aggregation function, canonical name first
/// for each — the **one** table the parser's clients read: whether a
/// block aggregates ([`Expr::contains_aggregate`]), which fold the engine
/// runs and which sensitivity rule the analysis applies all go through
/// [`Aggregate::parse`], so a name is an aggregate to all of them or to
/// none.
pub const AGGREGATE_FUNCTIONS: &[(&str, Aggregate)] = &[
    ("count", Aggregate::Count),
    ("sum", Aggregate::Sum),
    ("avg", Aggregate::Avg),
    ("mean", Aggregate::Avg),
    ("min", Aggregate::Min),
    ("max", Aggregate::Max),
    ("median", Aggregate::Median),
    ("stddev", Aggregate::Stddev),
    ("stddev_samp", Aggregate::Stddev),
];

impl Aggregate {
    /// The aggregation function `name` (as the lexer folds it: lower
    /// case) spells, if any.
    pub fn parse(name: &str) -> Option<Aggregate> {
        let entry = AGGREGATE_FUNCTIONS.iter().find(|(n, _)| *n == name);
        entry.map(|&(_, aggregate)| aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let a = Expr::Column(ColumnRef::bare("a"));
        let b = Expr::Column(ColumnRef::bare("b"));
        let c = Expr::Column(ColumnRef::bare("c"));
        let e = Expr::binary(
            a.clone(),
            BinaryOperator::And,
            Expr::binary(b.clone(), BinaryOperator::And, c.clone()),
        );
        let parts = e.conjuncts();
        assert_eq!(parts, vec![&a, &b, &c]);
    }

    #[test]
    fn column_equality_detection() {
        let e = Expr::col_eq(
            ColumnRef::qualified("a", "id"),
            ColumnRef::qualified("b", "id"),
        );
        let (l, r) = e.as_column_equality().unwrap();
        assert_eq!(l.qualifier.as_deref(), Some("a"));
        assert_eq!(r.name, "id");

        let not_eq = Expr::binary(
            Expr::Column(ColumnRef::bare("x")),
            BinaryOperator::Lt,
            Expr::Column(ColumnRef::bare("y")),
        );
        assert!(not_eq.as_column_equality().is_none());
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function {
            name: "count".into(),
            distinct: false,
            args: vec![FunctionArg::Wildcard],
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::binary(
            Expr::Literal(Literal::Integer(1)),
            BinaryOperator::Plus,
            agg,
        );
        assert!(nested.contains_aggregate());
        let plain = Expr::Function {
            name: "lower".into(),
            distinct: false,
            args: vec![FunctionArg::Expr(Expr::Column(ColumnRef::bare("c")))],
        };
        assert!(!plain.contains_aggregate());
        // Every spelling in the table, aliases included, inside any
        // expression shape — but not inside a subquery.
        for (name, _) in AGGREGATE_FUNCTIONS {
            let q = crate::parse_query(&format!(
                "SELECT CASE WHEN a IN (1, -{name}(x)) THEN 1 END, \
                 EXISTS (SELECT {name}(y) FROM u) FROM t"
            ))
            .unwrap();
            let items = &q.as_select().unwrap().projection;
            let contains: Vec<bool> = items
                .iter()
                .map(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
                .collect();
            assert_eq!(contains, [true, false], "{name}");
        }
    }

    #[test]
    fn base_tables_walks_join_tree() {
        let t = TableRef::Join {
            left: Box::new(TableRef::Table {
                name: "a".into(),
                alias: None,
            }),
            right: Box::new(TableRef::Join {
                left: Box::new(TableRef::Table {
                    name: "b".into(),
                    alias: Some("bb".into()),
                }),
                right: Box::new(TableRef::Table {
                    name: "c".into(),
                    alias: None,
                }),
                join_type: JoinType::Inner,
                constraint: JoinConstraint::None,
            }),
            join_type: JoinType::Left,
            constraint: JoinConstraint::None,
        };
        assert_eq!(t.base_tables(), vec!["a", "b", "c"]);
    }
}
