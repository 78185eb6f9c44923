//! Smooth sensitivity (Nissim et al.) applied to elastic sensitivity
//! (paper §4.1–4.2).
//!
//! The FLEX mechanism sets `β = ε / (2 ln(2/δ))` and computes
//! `S = max_{k=0..n} e^{−βk} · Ŝ⁽ᵏ⁾(q, x)`, then releases
//! `q(x) + Lap(2S/ε)`. Theorem 3 shows the maximum is attained at some
//! `k ≤ j(q)²/β`, so the scan is bounded by the query's join count rather
//! than the database size.

use crate::error::{FlexError, Result};
use crate::senspoly::SensExpr;

/// Privacy parameters `(ε, δ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyParams {
    pub epsilon: f64,
    pub delta: f64,
}

impl PrivacyParams {
    pub fn new(epsilon: f64, delta: f64) -> Result<Self> {
        if epsilon <= 0.0 || epsilon.is_nan() || !epsilon.is_finite() {
            return Err(FlexError::InvalidParams(format!(
                "epsilon must be positive and finite, got {epsilon}"
            )));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(FlexError::InvalidParams(format!(
                "delta must lie in (0, 1), got {delta}"
            )));
        }
        Ok(PrivacyParams { epsilon, delta })
    }

    /// The paper's default δ for the utility experiments: `n^(−ln n)`
    /// (following Dwork and Lei), where `n` is the database size.
    pub fn delta_for_db_size(n: usize) -> f64 {
        let n = (n.max(3)) as f64;
        // n^(−ln n) = e^(−(ln n)²)
        (-(n.ln() * n.ln())).exp().max(f64::MIN_POSITIVE)
    }

    /// The smoothing parameter `β = ε / (2 ln(2/δ))` (Definition 7 step 1).
    pub fn beta(&self) -> f64 {
        self.epsilon / (2.0 * (2.0 / self.delta).ln())
    }
}

/// Distances per block of the smoothing scan (see [`smooth`]).
const SMOOTH_BLOCK: u64 = 16;

/// Result of smoothing one sensitivity expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothSensitivity {
    /// `S = max_k e^(−βk) Ŝ⁽ᵏ⁾`.
    pub smooth_bound: f64,
    /// The distance `k` attaining the maximum.
    pub argmax_k: u64,
    /// The Laplace noise scale `2S/ε` (Definition 7 step 3).
    pub noise_scale: f64,
}

/// Compute the β-smooth upper bound for an elastic sensitivity expression.
///
/// `db_size` is the total number of tuples `n`; the scan range is
/// `min(n, ⌈degree/β⌉)` per Theorem 3 (with degree the Lemma 3 bound on
/// the polynomial degree of `Ŝ⁽ᵏ⁾`). The scan skips blocks of distances
/// that cannot hold the maximum, and returns the same bits as evaluating
/// every distance in range.
pub fn smooth(sens: &SensExpr, params: PrivacyParams, db_size: usize) -> Result<SmoothSensitivity> {
    let beta = params.beta();
    if beta <= 0.0 || beta.is_nan() {
        return Err(FlexError::InvalidParams(format!(
            "smoothing parameter beta must be positive, got {beta}"
        )));
    }
    let degree = sens.degree_bound();
    // Theorem 3: S(k) is non-increasing past degree/β. One extra step
    // absorbs the ceiling.
    let k_cutoff = if degree == 0 {
        0
    } else {
        (degree as f64 / beta).ceil() as u64 + 1
    };
    let k_max = k_cutoff.min(db_size as u64);

    // `e^(−βk)` falls and `Ŝ(k)` rises with k, so no k in a block [a, b]
    // beats `e^(−βa)·Ŝ(b)`. Blocks are scanned from the top, where the
    // maximum usually sits, and a block whose bound is below the best so
    // far is skipped (a NaN bound is not). The bound is widened by far
    // more than `exp`'s rounding error, so a skip never depends on a
    // last-bit monotonicity `exp` does not promise; a tie keeps the
    // smallest k, as a scan from 0 upwards would.
    let mut best = f64::NEG_INFINITY;
    let mut best_k = 0u64;
    let mut hi = k_max;
    loop {
        let lo = hi.saturating_sub(SMOOTH_BLOCK - 1);
        let bound = (-beta * lo as f64).exp() * sens.eval(hi);
        let skip = bound * (1.0 + 1e-9) < best;
        if !skip {
            for k in lo..=hi {
                let v = (-beta * k as f64).exp() * sens.eval(k);
                if v > best || (v == best && k < best_k) {
                    best = v;
                    best_k = k;
                }
            }
        }
        if lo == 0 {
            break;
        }
        hi = lo - 1;
    }
    let smooth_bound = best.max(0.0);
    Ok(SmoothSensitivity {
        smooth_bound,
        argmax_k: best_k,
        noise_scale: 2.0 * smooth_bound / params.epsilon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::senspoly::Poly;

    #[test]
    fn beta_formula() {
        let p = PrivacyParams::new(0.7, 1e-8).unwrap();
        let expected = 0.7 / (2.0 * (2.0e8f64).ln());
        assert!((p.beta() - expected).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(PrivacyParams::new(0.0, 1e-8).is_err());
        assert!(PrivacyParams::new(-1.0, 1e-8).is_err());
        assert!(PrivacyParams::new(1.0, 0.0).is_err());
        assert!(PrivacyParams::new(1.0, 1.5).is_err());
    }

    #[test]
    fn constant_sensitivity_smooths_to_itself() {
        let params = PrivacyParams::new(0.1, 1e-8).unwrap();
        let s = smooth(&SensExpr::constant(1.0), params, 1_000_000).unwrap();
        assert_eq!(s.smooth_bound, 1.0);
        assert_eq!(s.argmax_k, 0);
        assert!((s.noise_scale - 20.0).abs() < 1e-9);
    }

    /// The §3.4 worked example. With the paper's printed polynomial
    /// `2k² + 199k + 8711`, ε = 0.7 and δ = 1e−7 the maximum is
    /// S ≈ 8897 at k = 19 (the paper reports S = 8896.95 at k = 19; its
    /// stated δ = 1e−8 is inconsistent with its own numbers).
    #[test]
    fn triangle_example_paper_constants() {
        let poly = SensExpr::Poly(Poly::from_coeffs(vec![8711.0, 199.0, 2.0]));
        let params = PrivacyParams::new(0.7, 1e-7).unwrap();
        let s = smooth(&poly, params, 10_000_000).unwrap();
        assert_eq!(s.argmax_k, 19);
        assert!(
            (s.smooth_bound - 8896.95).abs() < 2.0,
            "got {}",
            s.smooth_bound
        );
    }

    /// Same example with the polynomial the definition actually yields.
    #[test]
    fn triangle_example_corrected_polynomial() {
        let poly = SensExpr::Poly(Poly::from_coeffs(vec![8711.0, 264.0, 2.0]));
        let params = PrivacyParams::new(0.7, 1e-7).unwrap();
        let s = smooth(&poly, params, 10_000_000).unwrap();
        // Slightly larger linear term ⇒ slightly larger S at a later k.
        assert!(s.smooth_bound > 8896.0);
        assert!(s.argmax_k >= 20 && s.argmax_k <= 40, "k = {}", s.argmax_k);
    }

    #[test]
    fn cutoff_matches_exhaustive_scan() {
        // Verify Theorem 3: scanning to the cutoff finds the same max as an
        // exhaustive scan over a large range.
        let poly = SensExpr::Poly(Poly::from_coeffs(vec![10.0, 5.0, 1.0]));
        let params = PrivacyParams::new(0.5, 1e-6).unwrap();
        let fast = smooth(&poly, params, usize::MAX).unwrap();
        let beta = params.beta();
        let mut best = f64::NEG_INFINITY;
        for k in 0..100_000u64 {
            best = best.max((-beta * k as f64).exp() * poly.eval(k));
        }
        assert!((fast.smooth_bound - best).abs() < 1e-9 * best);
    }

    #[test]
    fn db_size_caps_the_scan() {
        // With a tiny database, k cannot exceed n.
        let poly = SensExpr::Poly(Poly::from_coeffs(vec![1.0, 100.0]));
        let params = PrivacyParams::new(0.001, 1e-9).unwrap();
        let s = smooth(&poly, params, 5).unwrap();
        assert!(s.argmax_k <= 5);
    }

    #[test]
    fn delta_for_db_size_is_tiny() {
        let d = PrivacyParams::delta_for_db_size(1_000_000);
        assert!(d > 0.0 && d < 1e-50);
        // Small n still yields a valid delta.
        let d = PrivacyParams::delta_for_db_size(1);
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn smooth_bound_dominates_local_sensitivity_at_zero() {
        let poly = SensExpr::Poly(Poly::from_coeffs(vec![42.0, 7.0]));
        let params = PrivacyParams::new(1.0, 1e-5).unwrap();
        let s = smooth(&poly, params, 1000).unwrap();
        assert!(s.smooth_bound >= poly.eval(0));
    }

    /// The reference: every distance from 0 to the cutoff, in order.
    fn full_scan(sens: &SensExpr, params: PrivacyParams, db_size: usize) -> SmoothSensitivity {
        let beta = params.beta();
        let degree = sens.degree_bound();
        let k_cutoff = if degree == 0 {
            0
        } else {
            (degree as f64 / beta).ceil() as u64 + 1
        };
        let mut best = f64::NEG_INFINITY;
        let mut best_k = 0u64;
        for k in 0..=k_cutoff.min(db_size as u64) {
            let v = (-beta * k as f64).exp() * sens.eval(k);
            if v > best {
                best = v;
                best_k = k;
            }
        }
        let smooth_bound = best.max(0.0);
        SmoothSensitivity {
            smooth_bound,
            argmax_k: best_k,
            noise_scale: 2.0 * smooth_bound / params.epsilon,
        }
    }

    /// Bit-for-bit agreement with the reference.
    fn assert_same_bits(sens: &SensExpr, params: PrivacyParams, n: usize) {
        let (got, want) = (smooth(sens, params, n).unwrap(), full_scan(sens, params, n));
        assert_eq!(
            got.smooth_bound.to_bits(),
            want.smooth_bound.to_bits(),
            "{sens}, n = {n}"
        );
        assert_eq!(got.argmax_k, want.argmax_k, "{sens}, n = {n}");
        assert_eq!(
            got.noise_scale.to_bits(),
            want.noise_scale.to_bits(),
            "{sens}, n = {n}"
        );
    }

    #[test]
    fn bounded_scan_edge_cases() {
        // A tie across blocks: β is so small that `e^(−βk)` rounds to 1
        // for the first distances, where the tree is the constant 5, so
        // the maximum is reached at k = 0, 1, … and k = 0 must win.
        let tiny = PrivacyParams::new(1e-17, 0.5).unwrap();
        let flat = SensExpr::Max(
            Box::new(SensExpr::constant(5.0)),
            Box::new(SensExpr::Poly(Poly::from_coeffs(vec![0.0, 1e-9]))),
        );
        let term = |k: u64| (-tiny.beta() * k as f64).exp() * flat.eval(k);
        assert_eq!(term(0), term(12), "the case needs a tie");
        assert_eq!(smooth(&flat, tiny, 1000).unwrap().argmax_k, 0);
        assert_same_bits(&flat, tiny, 1000);
        let params = PrivacyParams::new(0.1, 1e-8).unwrap();
        // A constant has degree 0: only k = 0 is scanned.
        assert_eq!(
            smooth(&SensExpr::constant(5.0), params, 1000)
                .unwrap()
                .argmax_k,
            0
        );
        let poly = SensExpr::Poly(Poly::from_coeffs(vec![3.0, 2.0, 1.0]));
        // n far below the cutoff: the maximum is the last distance.
        assert_same_bits(&poly, params, 37);
        assert_eq!(smooth(&poly, params, 37).unwrap().argmax_k, 37);
        // n = 0: only k = 0.
        assert_same_bits(&poly, params, 0);
        assert_eq!(smooth(&poly, params, 0).unwrap().argmax_k, 0);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        /// Non-negative polynomials, zero and constants included.
        fn arb_poly() -> impl Strategy<Value = Poly> {
            prop_oneof![
                Just(Poly::default()),
                (0.0f64..1e3).prop_map(Poly::constant),
                proptest::collection::vec(
                    prop_oneof![Just(0.0f64), 0.0f64..10.0, 0.0f64..1e4],
                    0..4
                )
                .prop_map(Poly::from_coeffs),
            ]
        }

        /// Raw trees: the constructors, not the simplifying `add`/`mul`/
        /// `max`, so zero factors and dominated `Max` arms survive.
        fn arb_expr() -> impl Strategy<Value = SensExpr> {
            arb_poly()
                .prop_map(SensExpr::Poly)
                .prop_recursive(4, 16, 2, |inner| {
                    let pair = (inner.clone(), inner).prop_map(|(a, b)| (Box::new(a), Box::new(b)));
                    prop_oneof![
                        pair.clone().prop_map(|(a, b)| SensExpr::Add(a, b)),
                        pair.clone().prop_map(|(a, b)| SensExpr::Mul(a, b)),
                        pair.prop_map(|(a, b)| SensExpr::Max(a, b)),
                    ]
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn bounded_scan_matches_the_full_scan(
                sens in arb_expr(),
                epsilon in prop_oneof![0.01f64..0.2, 0.2f64..10.0],
                delta_exp in 1i32..16,
                n in prop_oneof![0usize..40, 0usize..5_000],
            ) {
                let params = PrivacyParams::new(epsilon, 10f64.powi(-delta_exp)).unwrap();
                assert_same_bits(&sens, params, n);
            }
        }
    }
}
