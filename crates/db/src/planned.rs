//! A query planned in full and not yet run ([`crate::Database::plan`]),
//! and the read-only view of its plan the sensitivity analysis reads, so
//! that it bounds the plan that runs: the FROM tree with each join's
//! keys, and each block's filter, group keys, aggregates and outputs as
//! compiled. A column's origin ([`Attr`]) is the lineage the planner
//! recorded beside its name (`plan::Lineage`), which the executor never
//! reads. Nothing here binds a name or touches a row.

use crate::aggregate::AggFunc;
use crate::bind::ColMeta;
use crate::error::Result;
use crate::exec::{Exec, ExecTrace};
use crate::expr::CompiledExpr;
use crate::plan::{
    BlockPlan, Body, FromLeaf, Lineage, Nested, PlanNode, QueryBody, QueryPlan, ResultSet, TailItem,
};
use crate::table::Table;
use flex_sql::JoinType;

/// A `WITH`-free query with every block planned — its plan-time
/// [`ExecTrace`] so far — and nothing run.
pub struct Planned<'a> {
    pub(crate) ex: Exec<'a>,
    pub(crate) plan: QueryPlan,
}

impl Planned<'_> {
    /// Run the plan: how the whole query ran, and its result.
    pub fn run(self) -> (ExecTrace, Result<ResultSet>) {
        crate::vexec::run_planned(self.ex, &self.plan)
    }

    /// The query's SELECT block; `None` for a set operation.
    pub fn block(&self) -> Option<BlockView<'_>> {
        BlockView::of(&self.plan, &self.ex.occurrences)
    }

    /// Whether any block holds an `EXISTS` or an `IN (SELECT …)`.
    pub fn has_subquery(&self) -> bool {
        self.ex.subqueries
    }
}

/// The base-table column a column carries unchanged, at one occurrence
/// of its table: each leaf of the query's FROM trees is one, numbered in
/// planning order, so two references to one table are two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// The table's occurrence.
    pub occurrence: usize,
    /// The base table (for metric lookup).
    pub table: String,
    /// The column.
    pub column: String,
}

impl std::fmt::Display for Attr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}.{}", self.table, self.occurrence, self.column)
    }
}

/// A node of a block's FROM tree.
pub enum Source<'p> {
    /// A base table: its name and occurrence.
    Table(&'p str, usize),
    /// A table-less SELECT's one row of no columns: its occurrence.
    NoTable(usize),
    /// A derived table: its SELECT block, `None` for a set operation.
    Derived(Option<BlockView<'p>>),
    /// A join: its two inputs, its type, and each equi-key's (left,
    /// right) origins — its `USING` / `ON` keys or, when it has none (a
    /// comma or CROSS join), the WHERE's equalities between its sides.
    Join(
        Box<Source<'p>>,
        Box<Source<'p>>,
        JoinType,
        Vec<(Option<Attr>, Option<Attr>)>,
    ),
}

/// What an output column of a block is, as its plan computes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// A grouped block's group key `i`, passed through.
    Key(usize),
    /// A grouped block's aggregate, and its argument's origin.
    Aggregate(AggFunc, Option<Attr>),
    /// A plain block's FROM column `i`, passed through.
    Column(usize),
    /// Computed from no aggregate.
    Computed,
    /// Computed from an aggregate.
    OverAggregates,
}

/// One planned SELECT block.
#[derive(Clone, Copy)]
pub struct BlockView<'p> {
    block: &'p BlockPlan,
    header: &'p [ColMeta],
    tables: &'p [Option<&'p Table>],
}

impl<'p> BlockView<'p> {
    fn of(plan: &'p QueryPlan, tables: &'p [Option<&'p Table>]) -> Option<Self> {
        let QueryBody::Select(block) = &plan.body else {
            return None;
        };
        let header = &plan.header;
        Some(BlockView {
            block,
            header,
            tables,
        })
    }

    /// The root of the block's FROM tree.
    pub fn from(&self) -> Source<'p> {
        self.source(&self.block.root)
    }

    fn source(&self, node: &'p PlanNode) -> Source<'p> {
        let leaf = match node {
            PlanNode::Join(node) => {
                let key = |&(l, r): &(_, _)| (self.resolve(l), self.resolve(r));
                return Source::Join(
                    Box::new(self.source(&node.left)),
                    Box::new(self.source(&node.right)),
                    node.join_type,
                    node.key_lineage.iter().map(key).collect(),
                );
            }
            PlanNode::Scan(leaf) => &self.block.leaves[*leaf],
        };
        match (leaf, &self.block.nested) {
            (FromLeaf::Rows(_, at), _) => match self.tables[*at] {
                Some(table) => Source::Table(&table.name, *at),
                None => Source::NoTable(*at),
            },
            (FromLeaf::Derived(i), nested) => match &nested[*i] {
                Nested::Derived(plan) => Source::Derived(BlockView::of(plan, self.tables)),
                _ => unreachable!("a derived leaf's plan is a derived table's"),
            },
        }
    }

    /// The block's output columns' names.
    pub fn header(&self) -> impl Iterator<Item = &'p str> {
        self.header.iter().map(|c| c.name.as_str())
    }

    /// Whether the block has a WHERE clause.
    pub fn filters(&self) -> bool {
        self.block.filtered
    }

    /// Whether the block aggregates.
    pub fn aggregates(&self) -> bool {
        matches!(self.block.body, Body::Grouped(_))
    }

    /// Whether the block is plain and DISTINCT.
    pub fn distinct(&self) -> bool {
        matches!(&self.block.body, Body::Plain(tail) if tail.distinct)
    }

    /// Each GROUP BY key's origin (a key by position is the SELECT item
    /// it names).
    pub fn group_keys(&self) -> impl Iterator<Item = Option<Attr>> + 'p {
        let this = *self;
        let keys = match &self.block.body {
            Body::Grouped(plan) => &plan.keys[..],
            Body::Plain(_) => &[],
        };
        keys.iter().map(move |key| this.origin(key))
    }

    /// The block's output columns, in order.
    pub fn outputs(&self) -> impl Iterator<Item = Output> + 'p {
        let this = *self;
        let (tail, grouped) = match &self.block.body {
            Body::Plain(tail) => (tail, None),
            Body::Grouped(plan) => (&plan.tail, Some(plan)),
        };
        // A grouped block's tail reads the groups table [keys…, aggregates…].
        let keys = grouped.map_or(usize::MAX, |plan| plan.keys.len());
        tail.out_items
            .iter()
            .map(move |item| match (*item, grouped) {
                (TailItem::Source(c), None) => Output::Column(c),
                (TailItem::Source(c), Some(_)) if c < keys => Output::Key(c),
                (TailItem::Source(c), Some(plan)) => {
                    let agg = &plan.aggs[c - keys];
                    Output::Aggregate(agg.func, agg.arg.as_ref().and_then(|a| this.origin(a)))
                }
                (TailItem::Computed(i), _) => {
                    let mut over_aggregates = false;
                    tail.computed[i].for_each_column(&mut |c| over_aggregates |= c >= keys);
                    if over_aggregates {
                        Output::OverAggregates
                    } else {
                        Output::Computed
                    }
                }
            })
    }

    /// The origin of a compiled expression over the block's FROM scope.
    fn origin(&self, e: &CompiledExpr) -> Option<Attr> {
        match e {
            CompiledExpr::Column(c) => self.resolve(self.block.lineage[*c]),
            _ => None,
        }
    }

    fn resolve(&self, lineage: Lineage) -> Option<Attr> {
        let (occurrence, column) = lineage?;
        let table = self.tables[occurrence].expect("lineage names a base table");
        Some(Attr {
            occurrence,
            table: table.name.clone(),
            column: table.schema.columns[column].name.clone(),
        })
    }
}
