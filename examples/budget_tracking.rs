//! Privacy-budget management across a query session (paper §4.3):
//! sequential composition with a hard cap, enforced by the query
//! service's ledger — the one place ε is spent — and the
//! strong-composition calculator.
//!
//! The example checks its own accounting and panics if it is off: the
//! ledger's spend is the sum of what the answers say they charged, and
//! the query the cap rejects spends nothing.
//!
//! Run with: `cargo run --example budget_tracking`

use flex::core::strong_composition;
use flex::prelude::*;
use flex::workloads::uber;
use std::sync::Arc;

const EPSILON_CAP: f64 = 1.0;

fn main() {
    let db = uber::generate(&UberConfig {
        trips: 20_000,
        ..UberConfig::default()
    });
    let delta = PrivacyParams::delta_for_db_size(db.total_rows());
    let service = QueryService::new(
        Arc::new(db),
        ServiceConfig {
            policy: LedgerPolicy::sequential(EPSILON_CAP, 1e-4),
            ..ServiceConfig::default()
        },
    );

    // --- Sequential composition: ε adds up until the cap. ----------------
    println!("=== sequential composition (cap ε = {EPSILON_CAP:.1}) ===");
    let per_query = PrivacyParams::new(0.3, delta).unwrap();
    let mut charged = (0.0, 0.0);
    let mut rejected = 0;
    for sql in [
        "SELECT COUNT(*) FROM trips",
        "SELECT COUNT(*) FROM trips WHERE status = 'completed'",
        "SELECT COUNT(*) FROM trips WHERE fare > 20",
        "SELECT COUNT(*) FROM trips WHERE fare > 40", // 4th × 0.3 > 1.0
    ] {
        let before = service.ledger().spent("alice");
        match service.query("alice", sql, per_query) {
            Ok(r) => {
                charged.0 += r.charged.0;
                charged.1 += r.charged.1;
                println!(
                    "  ε spent {:.1}/{EPSILON_CAP:.1} → {sql}\n      answer {:.0}",
                    service.ledger().spent("alice").0,
                    r.scalar().unwrap()
                );
            }
            Err(e @ ServiceError::BudgetRejected { .. }) => {
                assert_eq!(
                    service.ledger().spent("alice"),
                    before,
                    "a rejected query spends nothing"
                );
                rejected += 1;
                println!("  {sql}\n      {e}");
            }
            Err(e) => panic!("{sql}: {e}"),
        }
    }
    assert_eq!(rejected, 1, "only the fourth query crosses the cap");
    assert_eq!(
        service.ledger().spent("alice"),
        charged,
        "the ledger's spend is the sum of the answers' charges"
    );

    // --- Strong composition: tighter accounting for many queries. --------
    println!("\n=== strong composition (Dwork–Rothblum–Vadhan) ===");
    for k in [10u32, 100, 1000] {
        let (eps_strong, delta_total) = strong_composition(0.01, 0.0, k, 1e-6);
        println!(
            "  {k} queries at ε = 0.01 → sequential ε = {:.2}, strong ε' = {:.3} \
             (δ″ = 1e-6, total δ = {delta_total:.1e})",
            0.01 * k as f64,
            eps_strong
        );
    }
}
