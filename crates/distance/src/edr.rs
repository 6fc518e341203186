//! EDR — Edit Distance on Real sequence (Definition 2), the paper's
//! contribution.

use crate::kernel::{self, RankMasks};
use crate::workspace::{with_workspace, EdrWorkspace};
use std::collections::HashMap;
use trajsim_core::{CoordSeq, MatchThreshold, Trajectory};

/// Edit Distance on Real sequence (Definition 2).
///
/// `EDR(R, S)` is the minimum number of insert, delete, or replace
/// operations needed to change `R` into `S`, where a replace is free when
/// the two elements *match* under ε (Definition 1: every coordinate within
/// ε) and costs 1 otherwise, and each insert/delete costs 1.
///
/// Properties (each is exercised by the tests in this module):
///
/// - quantizing element distances to {0, 1} makes the measure robust to
///   noise — one outlier perturbs the distance by at most one operation;
/// - seeking the minimum number of edits handles local time shifting, like
///   ERP;
/// - unlike LCSS, gaps between matched sub-trajectories are penalized by
///   their length, so EDR distinguishes trajectories with the same common
///   subsequence but different gaps.
///
/// The computation runs on the bit-parallel Myers/Hyyrö kernel (see
/// [`crate::kernel`]); the `naive-kernel` feature reroutes it to the
/// textbook O(m·n) rolling-row DP for differential testing.
///
/// ```
/// use trajsim_core::{Trajectory2, MatchThreshold};
/// use trajsim_distance::edr;
/// let r = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
/// let s = Trajectory2::from_xy(&[(0.0, 0.0), (9.0, 9.0), (1.0, 1.0), (2.0, 2.0)]);
/// let eps = MatchThreshold::new(0.25).unwrap();
/// // One noisy element inserted into s: exactly one edit operation.
/// assert_eq!(edr(&r, &s, eps), 1);
/// ```
pub fn edr<const D: usize>(r: &Trajectory<D>, s: &Trajectory<D>, eps: MatchThreshold) -> usize {
    edr_counted(r, s, eps).0
}

/// [`edr`] plus the number of DP cells (bit lanes for the bit-parallel
/// kernel) the computation materialized — the cost accounting surfaced as
/// `QueryStats::dp_cells` by the k-NN engines.
pub fn edr_counted<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
) -> (usize, u64) {
    with_workspace(|ws| edr_counted_with(r.points(), s.points(), eps, ws))
}

/// [`edr_counted`] on caller-provided scratch, generic over the coordinate
/// layout of both sides ([`CoordSeq`]): point slices, arena views, or a
/// precomputed [`QueryContext`](crate::QueryContext). This is the engines'
/// allocation-free entry point — the workspace is borrowed, never
/// reallocated once warm.
pub fn edr_counted_with<const D: usize, A: CoordSeq<D>, B: CoordSeq<D>>(
    r: A,
    s: B,
    eps: MatchThreshold,
    ws: &mut EdrWorkspace,
) -> (usize, u64) {
    // Keep the rolling state as short as the shorter sequence.
    if r.len() >= s.len() {
        full_counted(r, s, eps, ws)
    } else {
        full_counted(s, r, eps, ws)
    }
}

/// Full-distance dispatch; `outer.len() >= inner.len()`.
fn full_counted<const D: usize, O: CoordSeq<D>, I: CoordSeq<D>>(
    outer: O,
    inner: I,
    eps: MatchThreshold,
    ws: &mut EdrWorkspace,
) -> (usize, u64) {
    if inner.is_empty() {
        return (outer.len(), 0);
    }
    #[cfg(feature = "naive-kernel")]
    {
        kernel::naive_counted(outer, inner, eps, ws)
    }
    #[cfg(not(feature = "naive-kernel"))]
    {
        kernel::bitparallel_counted(outer, inner, eps, ws)
    }
}

/// Early-abandoning EDR: returns `Some(EDR(R, S))` if it is at most
/// `bound`, `None` otherwise — typically 10–100× cheaper than [`edr`] when
/// the bound is tight. Only the cells within `bound` of the diagonal can
/// stay within the bound (`D[i][j] >= |i - j|`), so the sliding-band
/// bit-parallel kernel (see [`crate::kernel`]) keeps ⌈(2·bound+1)/64⌉
/// words per DP row, and it stops as soon as the cell on the target
/// diagonal passes the bound: values never fall along a diagonal, so
/// that cell lower-bounds the final distance.
///
/// Every k-NN engine in `trajsim-prune` calls this with the current
/// best-so-far k-th distance after its lower-bound filter passes.
///
/// ```
/// use trajsim_core::{Trajectory1, MatchThreshold};
/// use trajsim_distance::{edr, edr_within};
/// let r = Trajectory1::from_values(&[0.0, 1.0, 2.0, 3.0]);
/// let s = Trajectory1::from_values(&[40.0, 50.0, 60.0, 70.0]);
/// let eps = MatchThreshold::new(0.5).unwrap();
/// assert_eq!(edr_within(&r, &s, eps, 1), None);       // true distance 4
/// assert_eq!(edr_within(&r, &s, eps, 4), Some(4));
/// assert_eq!(edr_within(&r, &r, eps, 0), Some(0));
/// ```
pub fn edr_within<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
    bound: usize,
) -> Option<usize> {
    edr_within_counted(r, s, eps, bound).0
}

/// [`edr_within`] plus the number of DP cells the computation
/// materialized: 64 bit lanes per band word per row processed, or 0 when
/// a pre-check or the `bound == 0` pointwise scan decided without running
/// a DP.
pub fn edr_within_counted<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
    bound: usize,
) -> (Option<usize>, u64) {
    with_workspace(|ws| edr_within_counted_with(r.points(), s.points(), eps, bound, ws))
}

/// [`edr_within_counted`] on caller-provided scratch, generic over the
/// coordinate layout of both sides ([`CoordSeq`]). See
/// [`edr_counted_with`].
pub fn edr_within_counted_with<const D: usize, A: CoordSeq<D>, B: CoordSeq<D>>(
    r: A,
    s: B,
    eps: MatchThreshold,
    bound: usize,
    ws: &mut EdrWorkspace,
) -> (Option<usize>, u64) {
    within_counted(r, s, eps, bound, ws, || None)
}

/// Bounded-distance dispatch. `ranks` yields the rank masks of `query`
/// (a [`QueryContext`](crate::QueryContext)'s, built on first use) that
/// build the band's match words; it is called only when a DP runs, and
/// its `None` means compare-built words with the shorter sequence as the
/// pattern.
pub(crate) fn within_counted<'m, const D: usize, A: CoordSeq<D>, B: CoordSeq<D>>(
    query: A,
    candidate: B,
    eps: MatchThreshold,
    bound: usize,
    ws: &mut EdrWorkspace,
    ranks: impl FnOnce() -> Option<&'m RankMasks<D>>,
) -> (Option<usize>, u64) {
    let (m, n) = (query.len(), candidate.len());
    // Lengths alone already decide some cases: EDR >= |m - n|.
    if m.abs_diff(n) > bound {
        return (None, 0);
    }
    if m == 0 || n == 0 {
        // <= bound by the length pre-check.
        return (Some(m.max(n)), 0);
    }
    if bound == 0 {
        // Equal lengths (pre-check) and no edits allowed: EDR is 0 iff
        // every aligned pair ε-matches — a pointwise scan, no DP rows or
        // allocation at all.
        let e = eps.value();
        let all = (0..m).all(|i| kernel::coord_match(query, i, candidate, i, e) == 1);
        return (all.then_some(0), 0);
    }
    if cfg!(feature = "naive-kernel") {
        return if m >= n {
            kernel::within_naive_counted(query, candidate, eps, bound, ws)
        } else {
            kernel::within_naive_counted(candidate, query, eps, bound, ws)
        };
    }
    if let Some(ranks) = ranks() {
        return ranks.within_counted(candidate, eps, bound, ws);
    }
    if m >= n {
        kernel::within_compare_counted(query, candidate, eps, bound, ws)
    } else {
        kernel::within_compare_counted(candidate, query, eps, bound, ws)
    }
}

/// `EDR_{δ·ε}`: EDR computed with the matching threshold scaled by δ
/// (Theorem 7: `EDR_{δ·ε}(R, S) <= EDR_ε(R, S)` for δ >= 2 — in fact for
/// any δ >= 1). Used by the coarse-histogram pruning variant.
pub fn edr_scaled<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
    delta: u32,
) -> usize {
    edr(r, s, eps.scaled(delta))
}

/// `EDR^{x,y}_ε`: EDR on the one-dimensional data sequences obtained by
/// projecting the trajectories on dimension `dim` (Theorem 8:
/// `EDR^{x,y}_ε(R, S) <= EDR_ε(R, S)`).
///
/// # Panics
///
/// Panics if `dim >= D`.
pub fn edr_projected<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
    dim: usize,
) -> usize {
    edr(&r.project(dim), &s.project(dim), eps)
}

/// Memoized transcription of Definition 2's recurrence, exactly as printed
/// in the paper. Exponential without memoization and allocation-heavy with
/// it — exists solely as a test oracle for [`edr`].
pub fn edr_recursive_reference<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
) -> usize {
    fn go<const D: usize>(
        r: &[trajsim_core::Point<D>],
        s: &[trajsim_core::Point<D>],
        eps: MatchThreshold,
        memo: &mut HashMap<(usize, usize), usize>,
    ) -> usize {
        if r.is_empty() {
            return s.len();
        }
        if s.is_empty() {
            return r.len();
        }
        let key = (r.len(), s.len());
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let subcost = usize::from(!r[0].matches(&s[0], eps));
        let v = (go(&r[1..], &s[1..], eps, memo) + subcost)
            .min(go(&r[1..], s, eps, memo) + 1)
            .min(go(r, &s[1..], eps, memo) + 1);
        memo.insert(key, v);
        v
    }
    go(r.points(), s.points(), eps, &mut HashMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_distance;
    use proptest::prelude::*;
    use trajsim_core::{Trajectory1, Trajectory2};

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    fn t1(vals: &[f64]) -> Trajectory1 {
        Trajectory1::from_values(vals)
    }

    /// The running example of §2/§3.1: EDR with ε = 1 ranks S, P, R.
    #[test]
    fn paper_example_ranking() {
        let q = t1(&[1.0, 2.0, 3.0, 4.0]);
        let r = t1(&[10.0, 9.0, 8.0, 7.0]);
        let s = t1(&[1.0, 100.0, 2.0, 3.0, 4.0]);
        let p = t1(&[1.0, 100.0, 101.0, 2.0, 4.0]);
        let e = eps(1.0);
        let (ds, dp, dr) = (edr(&q, &s, e), edr(&q, &p, e), edr(&q, &r, e));
        assert!(ds < dp, "S must rank before P (gap penalty): {ds} vs {dp}");
        assert!(
            dp < dr,
            "P must rank before R (noise robustness): {dp} vs {dr}"
        );
        // Concrete values: S needs one delete of the noise element. For P,
        // deleting 100 and 101 leaves [1, 2, 4], and under ε = 1 the
        // elements 2~3 and 4~4 (or 3~4) still match, so two edits suffice.
        // R matches nothing: four substitutions.
        assert_eq!(ds, 1);
        assert_eq!(dp, 2);
        assert_eq!(dr, 4);
    }

    #[test]
    fn identical_trajectories_have_distance_zero() {
        let s = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 5.0), (-2.0, 3.0)]);
        assert_eq!(edr(&s, &s, eps(0.0)), 0);
    }

    #[test]
    fn empty_cases_follow_definition_2() {
        let empty = Trajectory2::default();
        let s = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(edr(&empty, &s, eps(1.0)), 2); // m = 0 -> n
        assert_eq!(edr(&s, &empty, eps(1.0)), 2); // n = 0 -> m
        assert_eq!(edr(&empty, &empty, eps(1.0)), 0);
    }

    #[test]
    fn one_outlier_costs_at_most_one_edit() {
        let clean = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        let mut noisy_xy: Vec<(f64, f64)> = clean.points().iter().map(|p| (p.x(), p.y())).collect();
        noisy_xy[2] = (1_000.0, -1_000.0); // replace one element with an outlier
        let noisy = Trajectory2::from_xy(&noisy_xy);
        assert_eq!(edr(&clean, &noisy, eps(0.5)), 1);
    }

    #[test]
    fn matching_threshold_zero_reduces_to_string_edit_distance() {
        let r = t1(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = t1(&[1.0, 3.0, 4.0, 4.0, 5.0, 6.0]);
        let rs: Vec<i64> = r.values().iter().map(|v| *v as i64).collect();
        let ss: Vec<i64> = s.values().iter().map(|v| *v as i64).collect();
        assert_eq!(edr(&r, &s, eps(0.0)), edit_distance(&rs, &ss));
    }

    #[test]
    fn edr_violates_triangle_inequality() {
        // The reason the paper needs the *near* triangle inequality: a chain
        // of ε-matches is not transitive. With ε = 1: a matches b, b matches
        // c, but a does not match c.
        let a = t1(&[0.0]);
        let b = t1(&[1.0]);
        let c = t1(&[2.0]);
        let e = eps(1.0);
        assert_eq!(edr(&a, &b, e) + edr(&b, &c, e), 0);
        assert_eq!(edr(&a, &c, e), 1);
    }

    #[test]
    fn two_dimensional_matching_requires_both_coordinates() {
        let r = Trajectory2::from_xy(&[(0.0, 0.0)]);
        let s = Trajectory2::from_xy(&[(0.5, 10.0)]);
        // x matches within 1.0, y does not -> replace costs 1.
        assert_eq!(edr(&r, &s, eps(1.0)), 1);
        assert_eq!(edr_projected(&r, &s, eps(1.0), 0), 0);
        assert_eq!(edr_projected(&r, &s, eps(1.0), 1), 1);
    }

    #[test]
    fn within_bound_zero_only_accepts_matching_equal_length() {
        let r = t1(&[1.0, 2.0]);
        let s = t1(&[1.2, 2.2]);
        assert_eq!(edr_within(&r, &s, eps(0.5), 0), Some(0));
        assert_eq!(edr_within(&r, &s, eps(0.1), 0), None);
        let longer = t1(&[1.0, 2.0, 3.0]);
        assert_eq!(edr_within(&r, &longer, eps(0.5), 0), None);
    }

    #[test]
    fn within_handles_empty_inputs() {
        let empty = Trajectory1::default();
        let s = t1(&[1.0, 2.0, 3.0]);
        assert_eq!(edr_within(&empty, &empty, eps(1.0), 0), Some(0));
        assert_eq!(edr_within(&empty, &s, eps(1.0), 3), Some(3));
        assert_eq!(edr_within(&empty, &s, eps(1.0), 2), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The rolling-buffer DP agrees with the memoized recurrence
        /// transcribed verbatim from Definition 2.
        #[test]
        fn dp_matches_recursive_reference(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..12),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..12),
            e in 0.0..3.0f64,
        ) {
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            prop_assert_eq!(edr(&r, &s, eps(e)), edr_recursive_reference(&r, &s, eps(e)));
        }

        /// EDR is symmetric (ε-matching is symmetric, all ops cost 1).
        #[test]
        fn symmetry(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            e in 0.0..3.0f64,
        ) {
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            prop_assert_eq!(edr(&r, &s, eps(e)), edr(&s, &r, eps(e)));
        }

        /// |m - n| <= EDR(R, S) <= max(m, n).
        #[test]
        fn length_bounds(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..25),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..25),
            e in 0.0..3.0f64,
        ) {
            let (m, n) = (r.len(), s.len());
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            let d = edr(&r, &s, eps(e));
            prop_assert!(d >= m.abs_diff(n));
            prop_assert!(d <= m.max(n));
        }

        /// Theorem 5 (near triangle inequality):
        /// EDR(Q,S) + EDR(S,R) + |S| >= EDR(Q,R).
        #[test]
        fn near_triangle_inequality(
            q in proptest::collection::vec((-3.0..3.0f64, -3.0..3.0f64), 0..15),
            s in proptest::collection::vec((-3.0..3.0f64, -3.0..3.0f64), 0..15),
            r in proptest::collection::vec((-3.0..3.0f64, -3.0..3.0f64), 0..15),
            e in 0.0..2.0f64,
        ) {
            let q = Trajectory2::from_xy(&q);
            let s = Trajectory2::from_xy(&s);
            let r = Trajectory2::from_xy(&r);
            let e = eps(e);
            prop_assert!(edr(&q, &s, e) + edr(&s, &r, e) + s.len() >= edr(&q, &r, e));
        }

        /// `edr_within` is consistent with the unbounded computation.
        #[test]
        fn within_is_consistent(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            e in 0.0..3.0f64,
            bound in 0usize..25,
        ) {
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            let d = edr(&r, &s, eps(e));
            let w = edr_within(&r, &s, eps(e), bound);
            if d <= bound {
                prop_assert_eq!(w, Some(d));
            } else {
                prop_assert_eq!(w, None);
            }
        }

        /// Theorem 7: enlarging the matching threshold never increases EDR.
        #[test]
        fn scaled_threshold_lower_bounds(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            e in 0.01..2.0f64,
            delta in 2u32..5,
        ) {
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            prop_assert!(edr_scaled(&r, &s, eps(e), delta) <= edr(&r, &s, eps(e)));
        }

        /// Theorem 8: EDR on a single projected dimension never exceeds EDR
        /// on the full trajectories.
        #[test]
        fn projected_lower_bounds(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            e in 0.0..3.0f64,
            dim in 0usize..2,
        ) {
            let r = Trajectory2::from_xy(&r);
            let s = Trajectory2::from_xy(&s);
            prop_assert!(edr_projected(&r, &s, eps(e), dim) <= edr(&r, &s, eps(e)));
        }
    }
}
