//! Directed-graph generator standing in for the ca-HepTh collaboration
//! network of the paper's §3.4 / §5.5 triangle-counting experiments.
//!
//! The paper's analysis uses the dataset only through its max-frequency
//! metric (65 for ca-HepTh); this generator produces a power-law digraph
//! whose maximum in- and out-degree are capped at — and attained by — a
//! configurable bound, so the elastic-sensitivity numbers match exactly.

use crate::zipf::Zipf;
use flex_db::{DataType, Database, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Configuration for the synthetic graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphConfig {
    pub nodes: usize,
    pub edges: usize,
    /// Cap on in-degree and out-degree; the generator guarantees at least
    /// one node attains it (so `mf` equals this value exactly).
    pub max_degree: u64,
    /// Zipf exponent for endpoint selection.
    pub skew: f64,
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        // Sized loosely after ca-HepTh (9.9k nodes, 26k undirected edges).
        GraphConfig {
            nodes: 2_000,
            edges: 10_000,
            max_degree: 65,
            skew: 1.0,
            seed: 0xCA_4E97,
        }
    }
}

/// Generate the `edges(source, dest)` table.
pub fn generate_edges(cfg: &GraphConfig) -> Table {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let zipf = Zipf::new(cfg.nodes, cfg.skew);
    let mut out_deg: HashMap<i64, u64> = HashMap::new();
    let mut in_deg: HashMap<i64, u64> = HashMap::new();
    let mut seen: HashSet<(i64, i64)> = HashSet::new();
    let mut rows = Vec::with_capacity(cfg.edges);

    // Seed a hub that attains the degree cap on both endpoints so the
    // max-frequency metric equals `max_degree` exactly.
    let hub = 0i64;
    let mut next_peer = 1i64;
    for _ in 0..cfg.max_degree {
        let peer = next_peer;
        next_peer += 1;
        rows.push(vec![Value::Int(hub), Value::Int(peer)]);
        seen.insert((hub, peer));
        *out_deg.entry(hub).or_default() += 1;
        *in_deg.entry(peer).or_default() += 1;
        let peer2 = next_peer;
        next_peer += 1;
        rows.push(vec![Value::Int(peer2), Value::Int(hub)]);
        seen.insert((peer2, hub));
        *out_deg.entry(peer2).or_default() += 1;
        *in_deg.entry(hub).or_default() += 1;
    }

    let mut attempts = 0usize;
    while rows.len() < cfg.edges && attempts < cfg.edges * 50 {
        attempts += 1;
        let s = zipf.sample(&mut rng) as i64;
        let d = zipf.sample(&mut rng) as i64;
        if s == d || seen.contains(&(s, d)) {
            continue;
        }
        if out_deg.get(&s).copied().unwrap_or(0) >= cfg.max_degree
            || in_deg.get(&d).copied().unwrap_or(0) >= cfg.max_degree
        {
            continue;
        }
        seen.insert((s, d));
        *out_deg.entry(s).or_default() += 1;
        *in_deg.entry(d).or_default() += 1;
        rows.push(vec![Value::Int(s), Value::Int(d)]);
    }

    let mut table = Table::new(
        "edges",
        Schema::of(&[("source", DataType::Int), ("dest", DataType::Int)]),
    );
    table.insert_all(rows).expect("generated rows match schema");
    table
}

/// Build a database holding only the edges table (metrics included).
pub fn graph_database(cfg: &GraphConfig) -> Database {
    let table = generate_edges(cfg);
    let mut db = Database::new();
    db.create_table("edges", table.schema.clone()).unwrap();
    db.insert("edges", table.rows()).unwrap();
    db
}

/// The SQL triangle-counting query of paper §3.4.
pub const TRIANGLE_SQL: &str = "SELECT COUNT(*) FROM edges e1 \
    JOIN edges e2 ON e1.dest = e2.source AND e1.source < e2.source \
    JOIN edges e3 ON e2.dest = e3.source AND e3.dest = e1.source \
    AND e2.source < e3.source";

/// Count triangles directly (ground truth for the experiments), using the
/// same predicate as [`TRIANGLE_SQL`].
pub fn count_triangles(table: &Table) -> u64 {
    let si = table.schema.index_of("source").expect("source column");
    let di = table.schema.index_of("dest").expect("dest column");
    let edges: Vec<(i64, i64)> = table
        .rows()
        .iter()
        .filter_map(|r| Some((r[si].as_i64()?, r[di].as_i64()?)))
        .collect();
    let mut by_source: HashMap<i64, Vec<i64>> = HashMap::new();
    let edge_set: HashSet<(i64, i64)> = edges.iter().copied().collect();
    for &(s, d) in &edges {
        by_source.entry(s).or_default().push(d);
    }
    let mut n = 0u64;
    for &(a, b) in &edges {
        if a >= b {
            continue; // e1.source < e2.source
        }
        if let Some(cs) = by_source.get(&b) {
            for &c in cs {
                // e2.source < e3.source and closing edge e3 = (c, a).
                if b < c && edge_set.contains(&(c, a)) {
                    n += 1;
                }
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_cap_attained_exactly() {
        let cfg = GraphConfig::default();
        let db = graph_database(&cfg);
        assert_eq!(db.metrics().max_freq("edges", "source"), Some(65));
        assert_eq!(db.metrics().max_freq("edges", "dest"), Some(65));
    }

    #[test]
    fn no_duplicate_edges_or_self_loops() {
        let cfg = GraphConfig {
            nodes: 100,
            edges: 500,
            ..GraphConfig::default()
        };
        let t = generate_edges(&cfg);
        let mut seen = HashSet::new();
        for r in &t.rows() {
            let s = r[0].as_i64().unwrap();
            let d = r[1].as_i64().unwrap();
            assert_ne!(s, d);
            assert!(seen.insert((s, d)));
        }
    }

    #[test]
    fn sql_and_direct_triangle_counts_agree() {
        let cfg = GraphConfig {
            nodes: 60,
            edges: 400,
            max_degree: 20,
            skew: 0.8,
            seed: 7,
        };
        let db = graph_database(&cfg);
        let sql_count = db
            .execute_sql(TRIANGLE_SQL)
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap();
        let direct = count_triangles(db.table("edges").unwrap());
        assert_eq!(sql_count as u64, direct);
        assert!(direct > 0, "test graph should contain triangles");
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = GraphConfig::default();
        let a = generate_edges(&cfg);
        let b = generate_edges(&cfg);
        assert_eq!(a.rows(), b.rows());
    }
}
