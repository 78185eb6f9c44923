//! The core relational algebra of paper Figure 1(a), extended with the
//! bookkeeping the sensitivity analysis needs: every base-table occurrence
//! gets a unique id so self joins (Figure 1d: overlapping ancestors) can be
//! detected, and join keys are resolved to the base-table occurrence they
//! are drawn from so `mf_k` (Figure 1c) can look up metrics.

use std::collections::BTreeSet;

/// A column of a specific base-table *occurrence* in the query (the same
/// table aliased twice yields two occurrences), as the planner traces it.
pub use flex_db::planned::Attr;

/// A relational transformation (Figure 1a):
/// `R ::= t | R ⋈ R | Π R | σ R | Count(R)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Rel {
    /// A base table occurrence. `public` marks non-protected tables
    /// (paper §3.6).
    Table {
        name: String,
        occurrence: usize,
        public: bool,
    },
    /// Equijoin `left ⋈_{left_key = right_key} right`. Only the equijoin
    /// conjunct participates in the sensitivity bound; other conjuncts of a
    /// compound condition can only shrink the true stability (§3.3,
    /// "Join conditions").
    Join {
        left: Box<Rel>,
        right: Box<Rel>,
        left_key: Attr,
        right_key: Attr,
    },
    /// Projection Π — does not change rows, so it is stability-transparent.
    Project(Box<Rel>),
    /// Selection σ — filters rows, stability-transparent (worst case keeps
    /// every changed row).
    Select(Box<Rel>),
    /// An aggregation nested below the root (e.g. a counting subquery).
    /// Its output is a single row (or one row per group), with stability 1;
    /// its attributes carry no `mf` metric (`mf_k = ⊥`).
    Count(Box<Rel>),
}

impl Rel {
    /// The ancestors `A(r)` of Figure 1(d): names of **protected** base
    /// tables possibly contributing rows. Public tables are excluded —
    /// they never change between neighboring databases, so they cannot
    /// make a join behave like a self join.
    pub fn ancestors(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_ancestors(&mut out);
        out
    }

    fn collect_ancestors<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Rel::Table { name, public, .. } => {
                if !public {
                    out.insert(name.as_str());
                }
            }
            Rel::Join { left, right, .. } => {
                left.collect_ancestors(out);
                right.collect_ancestors(out);
            }
            Rel::Project(r) | Rel::Select(r) | Rel::Count(r) => r.collect_ancestors(out),
        }
    }

    /// Occurrence ids of base tables in this relation (used to decide which
    /// side of a join an attribute belongs to).
    pub fn occurrences(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_occurrences(&mut out);
        out
    }

    fn collect_occurrences(&self, out: &mut BTreeSet<usize>) {
        match self {
            Rel::Table { occurrence, .. } => {
                out.insert(*occurrence);
            }
            Rel::Join { left, right, .. } => {
                left.collect_occurrences(out);
                right.collect_occurrences(out);
            }
            Rel::Project(r) | Rel::Select(r) | Rel::Count(r) => r.collect_occurrences(out),
        }
    }

    /// Number of joins `j(r)` in the relation (paper §4.2).
    pub fn join_count(&self) -> usize {
        match self {
            Rel::Table { .. } => 0,
            Rel::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            Rel::Project(r) | Rel::Select(r) | Rel::Count(r) => r.join_count(),
        }
    }

    /// Is every contributing base table public?
    pub fn is_all_public(&self) -> bool {
        match self {
            Rel::Table { public, .. } => *public,
            Rel::Join { left, right, .. } => left.is_all_public() && right.is_all_public(),
            Rel::Project(r) | Rel::Select(r) | Rel::Count(r) => r.is_all_public(),
        }
    }
}

/// The kind of counting query at the root (Figure 1a, `Q`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `Count(R)` — a plain counting query.
    Count,
    /// `Count_{G1..Gn}(R)` — a histogram; one changed input row can move
    /// two histogram bins, hence the factor 2 in Figure 1(b).
    Histogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, occ: usize, public: bool) -> Rel {
        Rel::Table {
            name: name.to_string(),
            occurrence: occ,
            public,
        }
    }

    fn attr(occ: usize, t: &str, c: &str) -> Attr {
        Attr {
            occurrence: occ,
            table: t.to_string(),
            column: c.to_string(),
        }
    }

    #[test]
    fn ancestors_exclude_public() {
        let join = Rel::Join {
            left: Box::new(table("trips", 0, false)),
            right: Box::new(table("cities", 1, true)),
            left_key: attr(0, "trips", "city_id"),
            right_key: attr(1, "cities", "id"),
        };
        let a = join.ancestors();
        assert!(a.contains("trips"));
        assert!(!a.contains("cities"));
    }

    #[test]
    fn self_join_detection_via_ancestors() {
        let l = table("edges", 0, false);
        let r = table("edges", 1, false);
        assert_eq!(l.ancestors().intersection(&r.ancestors()).count(), 1);

        let other = table("nodes", 2, false);
        assert_eq!(l.ancestors().intersection(&other.ancestors()).count(), 0);
    }

    #[test]
    fn join_count_recurses() {
        let join1 = Rel::Join {
            left: Box::new(table("a", 0, false)),
            right: Box::new(table("b", 1, false)),
            left_key: attr(0, "a", "x"),
            right_key: attr(1, "b", "x"),
        };
        let join2 = Rel::Join {
            left: Box::new(join1),
            right: Box::new(table("c", 2, false)),
            left_key: attr(1, "b", "y"),
            right_key: attr(2, "c", "y"),
        };
        assert_eq!(join2.join_count(), 2);
        assert_eq!(Rel::Select(Box::new(join2)).join_count(), 2);
    }

    #[test]
    fn occurrences_track_each_appearance() {
        let join = Rel::Join {
            left: Box::new(table("edges", 0, false)),
            right: Box::new(table("edges", 1, false)),
            left_key: attr(0, "edges", "dest"),
            right_key: attr(1, "edges", "source"),
        };
        assert_eq!(
            join.occurrences().into_iter().collect::<Vec<_>>(),
            vec![0, 1]
        );
    }
}
