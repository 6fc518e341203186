//! The Theorem 1 count filter.

/// Theorem 1 (Jokinen & Ukkonen \[17\]): two sequences of lengths `m` and `n`
/// within edit distance `k` have at least
/// `max(m, n) − q + 1 − k·q` common q-grams.
///
/// Returned as `i64`: when the bound is non-positive the filter cannot
/// prune anything at this `k`. The arithmetic saturates, so a `k` or
/// `k·q` beyond `i64::MAX` gives a bound that every count meets.
pub fn min_common_qgrams(m: usize, n: usize, q: usize, k: usize) -> i64 {
    assert!(q > 0, "q-gram size must be positive");
    let k = i64::try_from(k).unwrap_or(i64::MAX);
    (m.max(n) as i64 - q as i64 + 1).saturating_sub(k.saturating_mul(q as i64))
}

/// The k-NN pruning test of procedure `Qgramk-NN-index` (Figure 3, line
/// 10): a trajectory whose matching-q-gram counter is `v` can still beat
/// the current k-th best distance `best_so_far` only if
/// `v >= max(lQ, lS) + 1 − (best_so_far + 1)·q` — equivalently, if
/// `EDR <= best_so_far` were true, Theorem 1 would force at least that many
/// common q-grams. Returns `true` when the candidate must still be checked
/// (i.e. it is **not** pruned).
pub fn passes_count_filter(
    v: usize,
    query_len: usize,
    data_len: usize,
    q: usize,
    best_so_far: usize,
) -> bool {
    v as i64 >= min_common_qgrams(query_len, data_len, q, best_so_far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajsim_core::{MatchThreshold, Trajectory2};
    use trajsim_distance::edr;

    #[test]
    fn bound_matches_theorem_formula() {
        // max(7, 5) - 3 + 1 - 2*3 = 7 - 3 + 1 - 6 = -1.
        assert_eq!(min_common_qgrams(7, 5, 3, 2), -1);
        assert_eq!(min_common_qgrams(10, 10, 1, 0), 10);
        assert_eq!(min_common_qgrams(10, 4, 2, 1), 10 - 2 + 1 - 2);
    }

    #[test]
    fn non_positive_bound_never_prunes() {
        // v = 0 but the bound is negative -> cannot prune.
        assert!(passes_count_filter(0, 7, 5, 3, 2));
        // Tight bound: v just reaches it.
        assert!(passes_count_filter(7, 10, 10, 1, 3)); // bound = 10+1-0...
        assert!(!passes_count_filter(6, 10, 10, 1, 3)); // bound = 7
    }

    #[test]
    fn huge_k_saturates_and_prunes_nothing() {
        for k in [usize::MAX, i64::MAX as usize + 1] {
            for q in [1, 3] {
                assert!(min_common_qgrams(5000, 80, q, k) < 0, "k {k}, q {q}");
                assert!(passes_count_filter(0, 5000, 80, q, k), "k {k}, q {q}");
                assert!(passes_count_filter(0, 1, 1, q, k), "k {k}, q {q}");
            }
        }
        // k·q overflows i64 while k alone does not.
        assert!(passes_count_filter(0, 10, 10, 3, i64::MAX as usize / 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_q_panics() {
        let _ = min_common_qgrams(1, 1, 0, 0);
    }

    /// Exact count of common q-grams in the Theorem 1 multiset sense under
    /// ε-matching: for the lower-bound check we count, for each q-gram of
    /// the longer side, whether it has a match on the other side (an upper
    /// bound on any reasonable "common" definition is not what we need here
    /// — the theorem promises *at least* p common q-grams, and a maximum
    /// bipartite matching is the faithful reading; greedy per-side counting
    /// upper-bounds that matching, so testing `matching >= p` is the
    /// strictest check).
    fn max_matching_common(r: &Trajectory2, s: &Trajectory2, q: usize, e: MatchThreshold) -> usize {
        use crate::extract::{qgram_windows, qgrams_match};
        let (rg, sg) = (qgram_windows(r, q), qgram_windows(s, q));
        // Hungarian-lite: small sizes, do simple augmenting paths.
        let adj: Vec<Vec<usize>> = rg
            .iter()
            .map(|a| {
                sg.iter()
                    .enumerate()
                    .filter(|(_, b)| qgrams_match(a, b, e))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        let mut match_of_s = vec![usize::MAX; sg.len()];
        fn augment(
            u: usize,
            adj: &[Vec<usize>],
            match_of_s: &mut [usize],
            seen: &mut [bool],
        ) -> bool {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    if match_of_s[v] == usize::MAX || augment(match_of_s[v], adj, match_of_s, seen)
                    {
                        match_of_s[v] = u;
                        return true;
                    }
                }
            }
            false
        }
        let mut matched = 0;
        for u in 0..rg.len() {
            let mut seen = vec![false; sg.len()];
            if augment(u, &adj, &mut match_of_s, &mut seen) {
                matched += 1;
            }
        }
        matched
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Theorem 1 transplanted to EDR (Theorem 3's premise): with
        /// k = EDR(R, S), the maximum q-gram matching between R and S has
        /// at least max(m,n) − q + 1 − k·q pairs.
        #[test]
        fn theorem_1_holds_for_edr(
            r in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..14),
            s in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..14),
            q in 1usize..4,
            e in 0.0..2.0f64,
        ) {
            let rt = Trajectory2::from_xy(&r);
            let st = Trajectory2::from_xy(&s);
            let e = MatchThreshold::new(e).unwrap();
            let k = edr(&rt, &st, e);
            let bound = min_common_qgrams(rt.len(), st.len(), q, k);
            if bound > 0 {
                let common = max_matching_common(&rt, &st, q, e);
                prop_assert!(
                    common as i64 >= bound,
                    "common {common} < bound {bound} (k = {k}, q = {q})"
                );
            }
        }
    }
}
