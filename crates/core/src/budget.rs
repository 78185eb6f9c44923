//! Privacy-budget accounting (paper §4.3).
//!
//! FLEX itself does not prescribe a budget strategy; this module holds
//! the accounting the paper points to, as the primitives the service's
//! per-analyst ledger (`flex_service::BudgetLedger`) is built from:
//!
//! - [`PrivacyBudget`]: one account under sequential composition, with
//!   the check-then-commit pair ([`PrivacyBudget::can_spend`],
//!   [`PrivacyBudget::spend_unchecked`]) the ledger writes its log
//!   between, and [`PrivacyBudget::try_spend`], the one-step reference
//!   that pair is tested against;
//! - [`Composition`] and [`strong_composition`]: how `k` charges add up,
//!   sequentially or by the strong composition theorem of Dwork,
//!   Rothblum & Vadhan.
//!
//! Nothing here runs a query: ε is spent through
//! `flex_service::QueryService`, which charges the ledger before a query
//! runs, makes the charge durable before the answer is released, and
//! refunds it when nothing is.

use crate::error::{FlexError, Result};

/// A simple (ε, δ) budget account using sequential composition: spent
/// epsilons and deltas add up until the cap is reached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    pub epsilon_cap: f64,
    pub delta_cap: f64,
    spent_epsilon: f64,
    spent_delta: f64,
}

impl PrivacyBudget {
    pub fn new(epsilon_cap: f64, delta_cap: f64) -> Self {
        PrivacyBudget {
            epsilon_cap,
            delta_cap,
            spent_epsilon: 0.0,
            spent_delta: 0.0,
        }
    }

    pub fn remaining_epsilon(&self) -> f64 {
        (self.epsilon_cap - self.spent_epsilon).max(0.0)
    }

    pub fn spent(&self) -> (f64, f64) {
        (self.spent_epsilon, self.spent_delta)
    }

    /// Charge `(ε, δ)`; fails without spending if the cap would be exceeded.
    pub fn try_spend(&mut self, epsilon: f64, delta: f64) -> Result<()> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(FlexError::InvalidParams(format!(
                "cannot spend non-positive epsilon {epsilon}"
            )));
        }
        if !delta.is_finite() || delta < 0.0 {
            return Err(FlexError::InvalidParams(format!(
                "cannot spend negative delta {delta}"
            )));
        }
        // Tolerate float dust at the cap boundary.
        let tol = 1e-12;
        if self.spent_epsilon + epsilon > self.epsilon_cap + tol
            || self.spent_delta + delta > self.delta_cap + tol
        {
            return Err(FlexError::BudgetExhausted {
                requested: epsilon,
                remaining: self.remaining_epsilon(),
            });
        }
        self.spent_epsilon += epsilon;
        self.spent_delta += delta;
        Ok(())
    }

    /// Would [`try_spend`](Self::try_spend) admit this charge? Checks the
    /// exact same cap condition (same tolerance) without mutating, so a
    /// caller can interpose a fallible commit step (e.g. a write-ahead
    /// log append) between the decision and the spend — rolling back a
    /// float addition is not bitwise reversible, checking first is.
    pub fn can_spend(&self, epsilon: f64, delta: f64) -> bool {
        if !epsilon.is_finite() || epsilon <= 0.0 || !delta.is_finite() || delta < 0.0 {
            return false;
        }
        let tol = 1e-12;
        self.spent_epsilon + epsilon <= self.epsilon_cap + tol
            && self.spent_delta + delta <= self.delta_cap + tol
    }

    /// Add `(ε, δ)` to the spent accumulators without any cap check —
    /// the commit half of a [`can_spend`](Self::can_spend)-then-commit
    /// sequence, and the primitive write-ahead-log *replay* needs: the
    /// log is authoritative, so a replayed charge must land even if the
    /// account's policy shrank since it was admitted (leaving the
    /// account over cap simply makes future admissions reject — the
    /// fail-closed direction).
    pub fn spend_unchecked(&mut self, epsilon: f64, delta: f64) {
        self.spent_epsilon += epsilon;
        self.spent_delta += delta;
    }

    /// Return a previously-charged `(ε, δ)` to the budget (e.g. when the
    /// mechanism failed after admission and released nothing). Clamped at
    /// zero so a stray refund can never mint spare budget.
    pub fn refund(&mut self, epsilon: f64, delta: f64) {
        self.spent_epsilon = (self.spent_epsilon - epsilon).max(0.0);
        self.spent_delta = (self.spent_delta - delta).max(0.0);
    }
}

/// How a sequence of per-query charges composes into total privacy cost.
///
/// This is the hook `flex-service`'s per-analyst ledger plugs into; both
/// strategies are the ones the paper's §4.3 points to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Composition {
    /// Sequential composition: `k` queries at `(ε₀, δ₀)` cost `(kε₀, kδ₀)`.
    Sequential,
    /// Strong composition (Dwork, Rothblum & Vadhan): `k` homogeneous
    /// `(ε₀, δ₀)` queries cost `(ε₀√(2k ln(1/δ″)) + kε₀(e^ε₀−1), kδ₀+δ″)`,
    /// sublinear in `k` at the price of the fixed slack `δ″`.
    Strong {
        /// The `δ″` slack term of the theorem; must lie in `(0, 1)`.
        delta_slack: f64,
    },
}

impl Composition {
    /// Is this strategy well-formed? (`Strong` needs `δ″ ∈ (0, 1)`.)
    pub fn is_valid(&self) -> bool {
        match self {
            Composition::Sequential => true,
            Composition::Strong { delta_slack } => *delta_slack > 0.0 && *delta_slack < 1.0,
        }
    }

    /// Total `(ε, δ)` cost of `k` queries each charged `(epsilon, delta)`.
    ///
    /// **Fails closed**: a malformed strategy (e.g. `delta_slack` outside
    /// `(0, 1)`, whose logarithm would poison the bound with NaN) reports
    /// infinite cost so admission control built on this can never admit
    /// under it.
    ///
    /// `Strong` reports the tighter of two *simultaneously valid* claims:
    /// the DRV strong bound and basic composition `(kε, kδ)` — `k`-fold
    /// composition of `(ε, δ)`-DP mechanisms satisfies both. For small
    /// `k` the `√(2k·ln(1/δ″))` term makes the strong bound looser than
    /// basic composition (a single ε = 0.5 query "costs" ≈ 2.9 under it);
    /// without the fallback, admission control would reject queries that
    /// are provably within budget.
    pub fn total_cost(&self, epsilon: f64, delta: f64, k: u32) -> (f64, f64) {
        if !self.is_valid() {
            return (f64::INFINITY, f64::INFINITY);
        }
        let basic = (epsilon * k as f64, delta * k as f64);
        match self {
            Composition::Sequential => basic,
            Composition::Strong { delta_slack } => {
                if k == 0 {
                    (0.0, 0.0)
                } else {
                    let strong = strong_composition(epsilon, delta, k, *delta_slack);
                    // basic.1 = kδ < kδ + δ″ = strong.1 always, so when
                    // basic's ε is also smaller it dominates outright.
                    if basic.0 <= strong.0 {
                        basic
                    } else {
                        strong
                    }
                }
            }
        }
    }
}

/// Strong composition (Dwork, Rothblum & Vadhan 2010): running `k`
/// mechanisms that are each (ε, δ)-DP is (ε', kδ + δ″)-DP with
/// `ε' = ε·√(2k ln(1/δ″)) + k·ε·(e^ε − 1)`.
///
/// Returns `(ε', δ_total)`.
pub fn strong_composition(epsilon: f64, delta: f64, k: u32, delta_slack: f64) -> (f64, f64) {
    let k_f = k as f64;
    let eps_prime = epsilon * (2.0 * k_f * (1.0 / delta_slack).ln()).sqrt()
        + k_f * epsilon * (epsilon.exp() - 1.0);
    (eps_prime, k_f * delta + delta_slack)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accumulates_and_caps() {
        let mut b = PrivacyBudget::new(1.0, 1e-6);
        b.try_spend(0.4, 1e-8).unwrap();
        b.try_spend(0.6, 1e-8).unwrap();
        assert!(b.remaining_epsilon() < 1e-9);
        assert!(matches!(
            b.try_spend(0.1, 0.0),
            Err(FlexError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn budget_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PrivacyBudget>();
        assert_send_sync::<Composition>();
    }

    #[test]
    fn refund_restores_and_clamps() {
        let mut b = PrivacyBudget::new(1.0, 1e-6);
        b.try_spend(0.8, 1e-8).unwrap();
        b.refund(0.3, 0.0);
        assert!((b.spent().0 - 0.5).abs() < 1e-12);
        // Over-refund clamps at zero instead of minting budget.
        b.refund(100.0, 1.0);
        assert_eq!(b.spent(), (0.0, 0.0));
        b.try_spend(1.0, 1e-8).unwrap();
    }

    #[test]
    fn composition_costs() {
        let (e, d) = Composition::Sequential.total_cost(0.1, 1e-9, 10);
        assert!((e - 1.0).abs() < 1e-12 && (d - 1e-8).abs() < 1e-20);
        let strong = Composition::Strong { delta_slack: 1e-6 };
        assert_eq!(strong.total_cost(0.1, 1e-9, 0), (0.0, 0.0));
        let (e1, _) = strong.total_cost(0.01, 1e-9, 10_000);
        assert!(e1 < 0.01 * 10_000.0, "strong should beat sequential");
        let (ek, _) = strong.total_cost(0.1, 1e-9, 5);
        let (ek1, _) = strong.total_cost(0.1, 1e-9, 6);
        assert!(ek1 > ek, "strong composition must be monotone in k");
        // Small k: the DRV bound is looser than basic composition, and
        // total_cost must report the tighter valid claim.
        assert_eq!(
            strong.total_cost(0.5, 1e-9, 1),
            (0.5, 1e-9),
            "a single query must cost its own (ε, δ), not the DRV bound"
        );
    }

    #[test]
    fn malformed_strong_composition_fails_closed() {
        for bad_slack in [-1e-6, 0.0, 1.0, 2.0, f64::NAN] {
            let c = Composition::Strong {
                delta_slack: bad_slack,
            };
            assert!(!c.is_valid());
            let (e, d) = c.total_cost(0.01, 1e-9, 1);
            assert!(
                e.is_infinite() && d.is_infinite(),
                "slack {bad_slack} must cost infinity, got ({e}, {d})"
            );
        }
        assert!(Composition::Sequential.is_valid());
        assert!(Composition::Strong { delta_slack: 1e-6 }.is_valid());
    }

    #[test]
    fn can_spend_then_spend_unchecked_is_bitwise_try_spend() {
        // The check-then-commit pair must agree with try_spend on both
        // the decision and the resulting bits, for every step of an
        // awkward charge sequence (float dust at the cap included).
        let mut a = PrivacyBudget::new(1.0, 1e-3);
        let mut b = PrivacyBudget::new(1.0, 1e-3);
        for (e, d) in [
            (0.1, 1e-9),
            (0.3, 1e-4),
            (0.7, 1e-4), // rejected: ε over cap
            (0.6, 1e-4),
            (1e-13, 1e-9), // admitted via the cap tolerance
            (-1.0, 0.0),   // invalid
            (0.1, f64::NAN),
        ] {
            let admit_a = a.try_spend(e, d).is_ok();
            let admit_b = b.can_spend(e, d);
            if admit_b {
                b.spend_unchecked(e, d);
            }
            assert_eq!(admit_a, admit_b, "decision diverged at (ε={e}, δ={d})");
            assert_eq!(a.spent().0.to_bits(), b.spent().0.to_bits());
            assert_eq!(a.spent().1.to_bits(), b.spent().1.to_bits());
        }
    }

    #[test]
    fn budget_rejects_nonpositive_spend() {
        let mut b = PrivacyBudget::new(1.0, 1e-6);
        assert!(b.try_spend(0.0, 0.0).is_err());
        assert!(b.try_spend(-0.5, 0.0).is_err());
    }

    #[test]
    fn strong_composition_beats_sequential_for_many_queries() {
        let (eps_strong, _) = strong_composition(0.01, 0.0, 10_000, 1e-6);
        let eps_sequential = 0.01 * 10_000.0;
        assert!(eps_strong < eps_sequential);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A budget never reports spending more than its cap, no matter the
        /// sequence of attempted charges.
        #[test]
        fn budget_never_exceeds_cap(
            charges in proptest::collection::vec(0.0f64..0.6, 1..30)
        ) {
            let mut b = PrivacyBudget::new(1.0, 1e-3);
            for eps in charges {
                let _ = b.try_spend(eps, 1e-9);
                let (spent_eps, spent_delta) = b.spent();
                prop_assert!(spent_eps <= 1.0 + 1e-9);
                prop_assert!(spent_delta <= 1e-3 + 1e-12);
            }
        }

        /// Strong composition is monotone in k and never negative.
        #[test]
        fn strong_composition_monotone(
            eps in 0.001f64..0.5,
            k in 1u32..500,
        ) {
            let (e1, d1) = strong_composition(eps, 1e-9, k, 1e-6);
            let (e2, d2) = strong_composition(eps, 1e-9, k + 1, 1e-6);
            prop_assert!(e1 >= 0.0 && d1 >= 0.0);
            prop_assert!(e2 >= e1);
            prop_assert!(d2 >= d1);
        }
    }
}
