//! TPC-H data generator (counting-query subset) for the §5.2.1 experiment.
//!
//! Generates the 8 TPC-H tables at a configurable scale factor with the
//! columns the evaluated queries touch, and provides counting versions of
//! the five queries the paper selects (Table 3): Q1, Q4, Q13, Q16, Q21.
//! Following the paper, `customer`, `orders`, `lineitem`, `supplier` and
//! `partsupp` are private; `region`, `nation` and `part` are public.

use crate::uber::date_2016;
use flex_db::{DataType, Database, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale configuration. `scale = 1.0` matches the official row counts
/// (6M lineitem); the default 0.01 keeps experiments laptop-fast while
/// preserving all key relationships.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    pub scale: f64,
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.01,
            seed: 0x79C4,
        }
    }
}

impl TpchConfig {
    fn n(&self, base: usize) -> usize {
        ((base as f64) * self.scale).round().max(1.0) as usize
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const BRANDS: [&str; 5] = ["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];
const TYPES: [&str; 6] = [
    "STANDARD ANODIZED",
    "SMALL PLATED",
    "MEDIUM POLISHED",
    "LARGE BRUSHED",
    "ECONOMY BURNISHED",
    "PROMO TIN",
];
const SIZES: [i64; 8] = [1, 4, 9, 14, 19, 23, 36, 45];

/// Generate the TPC-H database with metrics and public-table marks.
pub fn generate(cfg: &TpchConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();

    // region (public).
    db.create_table(
        "region",
        Schema::of(&[("r_regionkey", DataType::Int), ("r_name", DataType::Str)]),
    )
    .unwrap();
    db.insert(
        "region",
        REGIONS
            .iter()
            .enumerate()
            .map(|(i, n)| vec![Value::Int(i as i64), Value::str(*n)])
            .collect(),
    )
    .unwrap();

    // nation (public).
    db.create_table(
        "nation",
        Schema::of(&[
            ("n_nationkey", DataType::Int),
            ("n_name", DataType::Str),
            ("n_regionkey", DataType::Int),
        ]),
    )
    .unwrap();
    db.insert(
        "nation",
        NATIONS
            .iter()
            .enumerate()
            .map(|(i, (n, r))| vec![Value::Int(i as i64), Value::str(*n), Value::Int(*r)])
            .collect(),
    )
    .unwrap();

    // part (public).
    let n_part = cfg.n(200_000);
    db.create_table(
        "part",
        Schema::of(&[
            ("p_partkey", DataType::Int),
            ("p_brand", DataType::Str),
            ("p_type", DataType::Str),
            ("p_size", DataType::Int),
        ]),
    )
    .unwrap();
    db.insert(
        "part",
        (0..n_part)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::str(BRANDS[rng.gen_range(0..BRANDS.len())]),
                    Value::str(TYPES[rng.gen_range(0..TYPES.len())]),
                    Value::Int(SIZES[rng.gen_range(0..SIZES.len())]),
                ]
            })
            .collect(),
    )
    .unwrap();

    // supplier (private).
    let n_supp = cfg.n(10_000);
    db.create_table(
        "supplier",
        Schema::of(&[
            ("s_suppkey", DataType::Int),
            ("s_name", DataType::Str),
            ("s_nationkey", DataType::Int),
        ]),
    )
    .unwrap();
    db.insert(
        "supplier",
        (0..n_supp)
            .map(|i| {
                // Supplier 0 is pinned to SAUDI ARABIA (nationkey 20) so
                // Q21's nation filter is never vacuous at tiny scales.
                let nation = if i == 0 {
                    20
                } else {
                    rng.gen_range(0..NATIONS.len() as i64)
                };
                vec![
                    Value::Int(i as i64),
                    Value::str(format!("Supplier#{i:09}")),
                    Value::Int(nation),
                ]
            })
            .collect(),
    )
    .unwrap();

    // partsupp (private): 4 suppliers per part.
    db.create_table(
        "partsupp",
        Schema::of(&[
            ("ps_partkey", DataType::Int),
            ("ps_suppkey", DataType::Int),
            ("ps_availqty", DataType::Int),
        ]),
    )
    .unwrap();
    let mut ps_rows = Vec::with_capacity(n_part * 4);
    for p in 0..n_part {
        for s in 0..4 {
            ps_rows.push(vec![
                Value::Int(p as i64),
                Value::Int(((p * 7 + s * (n_supp / 4).max(1)) % n_supp) as i64),
                Value::Int(rng.gen_range(1..10_000)),
            ]);
        }
    }
    db.insert("partsupp", ps_rows).unwrap();

    // customer (private).
    let n_cust = cfg.n(150_000);
    db.create_table(
        "customer",
        Schema::of(&[
            ("c_custkey", DataType::Int),
            ("c_nationkey", DataType::Int),
            ("c_mktsegment", DataType::Str),
        ]),
    )
    .unwrap();
    db.insert(
        "customer",
        (0..n_cust)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(rng.gen_range(0..NATIONS.len() as i64)),
                    Value::str(
                        [
                            "AUTOMOBILE",
                            "BUILDING",
                            "FURNITURE",
                            "HOUSEHOLD",
                            "MACHINERY",
                        ][rng.gen_range(0..5)],
                    ),
                ]
            })
            .collect(),
    )
    .unwrap();

    // orders (private): ~10 per customer; a third of customers have none.
    let n_orders = cfg.n(1_500_000);
    db.create_table(
        "orders",
        Schema::of(&[
            ("o_orderkey", DataType::Int),
            ("o_custkey", DataType::Int),
            ("o_orderstatus", DataType::Str),
            ("o_orderdate", DataType::Str),
            ("o_orderpriority", DataType::Str),
        ]),
    )
    .unwrap();
    let active_custs = (n_cust * 2 / 3).max(1);
    let order_rows: Vec<Vec<Value>> = (0..n_orders)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..active_custs as i64)),
                Value::str(["O", "F", "P"][rng.gen_range(0..3)]),
                Value::str(tpch_date(rng.gen_range(0..2556))),
                Value::str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
            ]
        })
        .collect();
    db.insert("orders", order_rows).unwrap();

    // lineitem (private): ~4 per order.
    let n_lineitem = cfg.n(6_000_000);
    db.create_table(
        "lineitem",
        Schema::of(&[
            ("l_orderkey", DataType::Int),
            ("l_partkey", DataType::Int),
            ("l_suppkey", DataType::Int),
            ("l_returnflag", DataType::Str),
            ("l_linestatus", DataType::Str),
            ("l_shipdate", DataType::Str),
            ("l_receiptdate", DataType::Str),
            ("l_commitdate", DataType::Str),
            ("l_quantity", DataType::Int),
        ]),
    )
    .unwrap();
    let li_rows: Vec<Vec<Value>> = (0..n_lineitem)
        .map(|_| {
            let ship = rng.gen_range(0..2556);
            let commit = ship + rng.gen_range(0..60);
            // A fifth of lineitems are received after their commit date
            // (drives Q21's "late shipping" predicate).
            let receipt = if rng.gen_bool(0.2) {
                commit + rng.gen_range(1..30)
            } else {
                commit - rng.gen_range(0..30).min(commit)
            };
            vec![
                Value::Int(rng.gen_range(0..n_orders as i64)),
                Value::Int(rng.gen_range(0..n_part as i64)),
                Value::Int(rng.gen_range(0..n_supp as i64)),
                Value::str(["A", "N", "R"][rng.gen_range(0..3)]),
                Value::str(["O", "F"][rng.gen_range(0..2)]),
                Value::str(tpch_date(ship)),
                Value::str(tpch_date(receipt)),
                Value::str(tpch_date(commit)),
                Value::Int(rng.gen_range(1..51)),
            ]
        })
        .collect();
    db.insert("lineitem", li_rows).unwrap();

    for t in ["region", "nation", "part"] {
        db.mark_public(t);
    }
    db
}

/// Map a day offset to a date in the TPC-H range 1992-01-01..1998-12-31.
/// Leap handling reuses the 2016 calendar shape — adequate for string
/// comparisons.
fn tpch_date(day: u32) -> String {
    let year = 1992 + (day / 366) % 7;
    let within = day % 366;
    let d2016 = date_2016(within);
    format!("{year}{}", &d2016[4..])
}

/// The five evaluated counting queries (paper Table 3), with their join
/// counts as the paper reports them.
pub fn queries() -> Vec<(&'static str, &'static str, usize)> {
    vec![
        (
            "Q1",
            "SELECT l_returnflag, l_linestatus, COUNT(*) FROM lineitem \
             WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus",
            0,
        ),
        (
            "Q4",
            "SELECT o_orderpriority, COUNT(*) FROM orders \
             WHERE o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01' \
             GROUP BY o_orderpriority",
            0,
        ),
        (
            "Q13",
            "SELECT c_count, COUNT(*) AS custdist FROM \
             (SELECT c.c_custkey AS ck, COUNT(o.o_orderkey) AS c_count \
              FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey \
              GROUP BY c.c_custkey) t \
             GROUP BY c_count ORDER BY custdist DESC",
            1,
        ),
        (
            "Q16",
            "SELECT p.p_brand, p.p_size, COUNT(DISTINCT ps.ps_suppkey) AS supplier_cnt \
             FROM partsupp ps JOIN part p ON p.p_partkey = ps.ps_partkey \
             WHERE p.p_brand <> 'Brand#45' AND p.p_size IN (1, 9, 19, 23, 36, 45) \
             GROUP BY p.p_brand, p.p_size",
            1,
        ),
        (
            "Q21",
            "SELECT s.s_name, COUNT(*) AS numwait \
             FROM supplier s \
             JOIN lineitem l1 ON s.s_suppkey = l1.l_suppkey \
             JOIN orders o ON o.o_orderkey = l1.l_orderkey \
             JOIN nation n ON s.s_nationkey = n.n_nationkey \
             WHERE o.o_orderstatus = 'F' AND l1.l_receiptdate > l1.l_commitdate \
             AND n.n_name = 'SAUDI ARABIA' \
             GROUP BY s.s_name",
            3,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchConfig {
        TpchConfig {
            scale: 0.001,
            seed: 5,
        }
    }

    #[test]
    fn generates_all_eight_tables() {
        let db = generate(&tiny());
        for t in [
            "region", "nation", "part", "supplier", "partsupp", "customer", "orders", "lineitem",
        ] {
            assert!(db.table(t).is_some(), "missing {t}");
        }
        assert_eq!(db.table("region").unwrap().len(), 5);
        assert_eq!(db.table("nation").unwrap().len(), 25);
        assert_eq!(db.table("lineitem").unwrap().len(), 6000);
        assert!(db.is_public("nation"));
        assert!(!db.is_public("orders"));
    }

    #[test]
    fn queries_execute() {
        let db = generate(&tiny());
        for (name, sql, _) in queries() {
            let rs = db.execute_sql(sql);
            assert!(rs.is_ok(), "{name} failed: {:?}", rs.err());
            assert!(!rs.unwrap().rows.is_empty(), "{name} returned no rows");
        }
    }

    #[test]
    fn join_counts_match_paper_table3() {
        let expected = [("Q1", 0), ("Q4", 0), ("Q13", 1), ("Q16", 1), ("Q21", 3)];
        for ((name, _, joins), (ename, ejoins)) in queries().iter().zip(expected) {
            assert_eq!(*name, ename);
            assert_eq!(*joins, ejoins, "{name} join count");
        }
    }

    #[test]
    fn dates_format_correctly() {
        assert_eq!(tpch_date(0), "1992-01-01");
        assert!(tpch_date(2555).starts_with("1998"));
    }

    #[test]
    fn deterministic() {
        let a = generate(&tiny());
        let b = generate(&tiny());
        assert_eq!(
            a.table("orders").unwrap().rows(),
            b.table("orders").unwrap().rows()
        );
    }
}
