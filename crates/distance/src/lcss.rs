//! Longest Common Subsequences score (Formula 4 in Figure 2).

use trajsim_core::{MatchThreshold, Trajectory};

/// The LCSS score of two trajectories (Formula 4): the length of the
/// longest common subsequence under the ε-matching of Definition 1.
///
/// LCSS handles noise by the same {0, 1} quantization EDR uses, but it is a
/// *similarity* (larger is better) and it ignores the size of the gaps
/// between matched subsequences — the inaccuracy EDR fixes (§2): in the
/// paper's example, S and P have the same LCSS score relative to Q even
/// though P's noise gap is longer.
pub fn lcss<const D: usize>(r: &Trajectory<D>, s: &Trajectory<D>, eps: MatchThreshold) -> usize {
    let (outer, inner) = if r.len() >= s.len() {
        (r.points(), s.points())
    } else {
        (s.points(), r.points())
    };
    let n = inner.len();
    if n == 0 {
        return 0;
    }
    let mut prev = vec![0usize; n + 1];
    let mut curr = vec![0usize; n + 1];
    for oi in outer {
        for (j, ij) in inner.iter().enumerate() {
            curr[j + 1] = if oi.matches(ij, eps) {
                prev[j] + 1
            } else {
                prev[j + 1].max(curr[j])
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// The LCSS *distance* used when a dissimilarity is needed (e.g. the
/// clustering and classification experiments of §3.2):
/// `1 - LCSS(R, S) / min(m, n)`, following Vlachos et al. \[36\].
///
/// Returns 0 for two empty trajectories and 1 when exactly one is empty.
pub fn lcss_distance<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
) -> f64 {
    let min_len = r.len().min(s.len());
    if min_len == 0 {
        return if r.len() == s.len() { 0.0 } else { 1.0 };
    }
    1.0 - lcss(r, s, eps) as f64 / min_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajsim_core::{Trajectory1, Trajectory2};

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    fn t1(vals: &[f64]) -> Trajectory1 {
        Trajectory1::from_values(vals)
    }

    #[test]
    fn identical_trajectories_score_their_length() {
        let s = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(lcss(&s, &s, eps(0.0)), 3);
        assert_eq!(lcss_distance(&s, &s, eps(0.0)), 0.0);
    }

    /// LCSS and EDR share Definition 1's matching, so a NaN coordinate
    /// never matches in either: one-point pairs score `lcss = 1 − edr`.
    #[test]
    fn nan_never_matches_as_in_edr() {
        let nan = f64::NAN;
        let points = [(0.0, 0.0), (nan, 0.0), (0.0, nan), (nan, nan)];
        for &r in &points {
            for &s in &points {
                let (r, s) = (Trajectory2::from_xy(&[r]), Trajectory2::from_xy(&[s]));
                let want = 1 - crate::edr_naive(&r, &s, eps(1.0));
                assert_eq!(lcss(&r, &s, eps(1.0)), want, "{r:?} vs {s:?}");
                assert_eq!(
                    crate::edr(&r, &s, eps(1.0)),
                    crate::edr_naive(&r, &s, eps(1.0))
                );
            }
        }
        // A NaN point does not even match itself.
        let t = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, nan), (2.0, 2.0)]);
        assert_eq!(lcss(&t, &t, eps(1.0)), 2);
        assert_eq!(crate::edr_naive(&t, &t, eps(1.0)), 1);
    }

    #[test]
    fn empty_cases() {
        let empty = Trajectory1::default();
        let s = t1(&[1.0]);
        assert_eq!(lcss(&empty, &s, eps(1.0)), 0);
        assert_eq!(lcss_distance(&empty, &empty, eps(1.0)), 0.0);
        assert_eq!(lcss_distance(&empty, &s, eps(1.0)), 1.0);
    }

    #[test]
    fn lcss_is_insensitive_to_gap_length_but_edr_is_not() {
        // §2's critique of LCSS, made precise: two trajectories embed the
        // same common subsequence [1, 2, 3, 4] but with noise gaps of
        // length 1 and 3 respectively. LCSS scores them identically; EDR
        // penalizes the longer gap. (The paper's literal example trajectory
        // P = [1, 100, 101, 2, 4] scores LCSS 3, not 4, under Formula 4
        // with ε = 1 — its "S = P" claim only holds for gap-only variants
        // like these.)
        let q = t1(&[1.0, 2.0, 3.0, 4.0]);
        let short_gap = t1(&[1.0, 100.0, 2.0, 3.0, 4.0]);
        let long_gap = t1(&[1.0, 100.0, 101.0, 102.0, 2.0, 3.0, 4.0]);
        let e = eps(0.25);
        assert_eq!(lcss(&q, &short_gap, e), 4);
        assert_eq!(lcss(&q, &long_gap, e), 4);
        assert_eq!(
            lcss_distance(&q, &short_gap, e),
            lcss_distance(&q, &long_gap, e)
        );
        // EDR distinguishes them by the gap length.
        assert_eq!(crate::edr(&q, &short_gap, e), 1);
        assert_eq!(crate::edr(&q, &long_gap, e), 3);
    }

    #[test]
    fn paper_example_lcss_separates_noise_from_dissimilarity() {
        // With the paper's exact Q, R, S, P and ε = 1 LCSS still puts the
        // noisy-but-similar S and P ahead of the dissimilar R.
        let q = t1(&[1.0, 2.0, 3.0, 4.0]);
        let r = t1(&[10.0, 9.0, 8.0, 7.0]);
        let s = t1(&[1.0, 100.0, 2.0, 3.0, 4.0]);
        let p = t1(&[1.0, 100.0, 101.0, 2.0, 4.0]);
        let e = eps(1.0);
        assert!(lcss(&q, &s, e) > lcss(&q, &r, e));
        assert!(lcss(&q, &p, e) > lcss(&q, &r, e));
    }

    #[test]
    fn subsequence_need_not_be_contiguous() {
        let a = t1(&[1.0, 9.0, 2.0, 9.0, 3.0]);
        let b = t1(&[1.0, 2.0, 3.0]);
        assert_eq!(lcss(&a, &b, eps(0.0)), 3);
    }

    #[test]
    fn threshold_widens_matches() {
        let a = t1(&[0.0, 10.0]);
        let b = t1(&[1.0, 12.0]);
        assert_eq!(lcss(&a, &b, eps(0.5)), 0);
        assert_eq!(lcss(&a, &b, eps(1.0)), 1);
        assert_eq!(lcss(&a, &b, eps(2.0)), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// LCSS is symmetric.
        #[test]
        fn symmetry(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            e in 0.0..3.0f64,
        ) {
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            prop_assert_eq!(lcss(&r, &s, eps(e)), lcss(&s, &r, eps(e)));
        }

        /// 0 <= LCSS <= min(m, n), and the distance is in [0, 1].
        #[test]
        fn score_bounds(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 1..15),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 1..15),
            e in 0.0..3.0f64,
        ) {
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            let score = lcss(&r, &s, eps(e));
            prop_assert!(score <= r.len().min(s.len()));
            let d = lcss_distance(&r, &s, eps(e));
            prop_assert!((0.0..=1.0).contains(&d));
        }

        /// EDR and LCSS sandwich: for unit-cost edit distance with
        /// substitutions, max(m,n) - LCSS <= EDR <= m + n - 2·LCSS.
        #[test]
        fn edr_lcss_sandwich(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            e in 0.0..3.0f64,
        ) {
            let (m, n) = (r.len(), s.len());
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            let l = lcss(&r, &s, eps(e));
            let d = crate::edr(&r, &s, eps(e));
            prop_assert!(d + l >= m.max(n), "EDR {d} + LCSS {l} < max({m},{n})");
            prop_assert!(d + 2 * l <= m + n, "EDR {d} + 2·LCSS {l} > {m}+{n}");
        }
    }
}
