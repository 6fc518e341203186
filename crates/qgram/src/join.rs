//! Sort-merge ε-join over mean-value q-grams — the index-free PS2/PS1
//! pruning variants ("the second algorithm applies merge join on sorted
//! Q-grams of trajectories to find the common Q-grams between them without
//! any indexes", §4.1).

use trajsim_core::{MatchThreshold, Point, Trajectory};

/// The mean-value q-grams of one trajectory, pre-sorted by the first
/// coordinate for merge joining (the PS2 representation).
///
/// Build once per trajectory at database-load time; each k-NN query then
/// merge-joins the query's sorted means against each candidate's in
/// near-linear time.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedMeans<const D: usize> {
    means: Vec<Point<D>>,
    /// Length of the originating trajectory (needed by Theorem 1's bound).
    source_len: usize,
    /// The q-gram size the means were built with.
    q: usize,
}

impl<const D: usize> SortedMeans<D> {
    /// Extracts and sorts the mean-value q-grams of `t`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn build(t: &Trajectory<D>, q: usize) -> Self {
        let mut means = crate::mean_value_qgrams(t, q);
        means.sort_by(|a, b| a[0].partial_cmp(&b[0]).expect("finite coordinates"));
        SortedMeans {
            means,
            source_len: t.len(),
            q,
        }
    }

    /// Number of q-grams.
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// True iff the trajectory had fewer than `q` elements.
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// Length of the trajectory the means came from.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// The q-gram size.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The sorted means (ascending in the first coordinate).
    pub fn means(&self) -> &[Point<D>] {
        &self.means
    }

    /// Counts how many of `self`'s q-gram means have at least one
    /// ε-matching mean in `other`.
    ///
    /// This count upper-bounds the number of common q-grams (every truly
    /// common q-gram's mean certainly matches, Theorem 2), so using it in
    /// Theorem 1's filter is sound.
    ///
    /// The join is witness-first. It picks one mean `w` of `other` near
    /// the centroid of `self`'s means, and counts each mean of `self`
    /// that ε-matches `w` with one check. Only the misses run the
    /// sort-merge search: a sliding window over `other` on the first
    /// coordinate. A counted mean has a verified match that its window
    /// holds, and an uncounted one was searched in full, so the count is
    /// exactly the merge join's. Where ε is narrow against the spread of
    /// `self`'s first coordinates, the witness could cover only a few
    /// means and the join skips it.
    ///
    /// # Panics
    ///
    /// Panics if the two sides were built with different `q`.
    pub fn match_count(&self, other: &SortedMeans<D>, eps: MatchThreshold) -> usize {
        assert_eq!(self.q, other.q, "q-gram sizes differ");
        let (a, b) = (&self.means[..], &other.means[..]);
        if a.is_empty() || b.is_empty() {
            return 0;
        }
        let mut lo = 0usize;
        // Every mean the witness covers lies within ε of it in the first
        // coordinate. When 2ε spans under half the interquartile range
        // of those coordinates, that is a small share of `a`, and the
        // pick and the checks cost more than their hits save.
        let n = a.len();
        if 4.0 * eps.value() < a[3 * n / 4][0] - a[n / 4][0] {
            return a
                .iter()
                .filter(|qa| window_matches(qa, b, &mut lo, eps))
                .count();
        }
        let w = witness(a, b);
        a.iter()
            .filter(|qa| qa.matches(&w, eps) || window_matches(qa, b, &mut lo, eps))
            .count()
    }
}

/// The witness: of the few means of `b` whose first coordinates rank
/// next to the centroid of an even sample of `a`, the one nearest to it
/// in L∞. Both slices are non-empty and sorted by the first coordinate.
fn witness<const D: usize>(a: &[Point<D>], b: &[Point<D>]) -> Point<D> {
    /// How many means of `a` the centroid averages, at most.
    const SAMPLES: usize = 8;
    /// How many means of `b` the pick looks at, at most.
    const PROBES: usize = 4;
    let (mut sum, mut taken) = (Point::origin(), 0usize);
    for p in a.iter().step_by(a.len().div_ceil(SAMPLES)) {
        sum = sum + *p;
        taken += 1;
    }
    let c = sum / taken as f64;
    let mid = b.partition_point(|p| p[0] < c[0]);
    let (mut left, mut right) = (mid, mid);
    let (mut best, mut best_dist) = (mid.min(b.len() - 1), f64::INFINITY);
    for _ in 0..PROBES {
        // Stop once both sides are farther than the best in the first
        // coordinate alone; otherwise step to the nearer side.
        let gap_left = if left > 0 {
            c[0] - b[left - 1][0]
        } else {
            f64::INFINITY
        };
        let gap_right = if right < b.len() {
            b[right][0] - c[0]
        } else {
            f64::INFINITY
        };
        if gap_left.min(gap_right) >= best_dist {
            break;
        }
        let j = if gap_left < gap_right {
            left -= 1;
            left
        } else {
            right += 1;
            right - 1
        };
        let d = b[j].dist_linf(&c);
        if d < best_dist {
            (best, best_dist) = (j, d);
        }
    }
    b[best]
}

/// The sort-merge search for `qa`: advances `lo` past the means of `b`
/// more than ε below `qa` in the first coordinate, then scans the window
/// up to ε above it for an ε-match. The means asked about must come in
/// sorted order, since `lo` only moves forward.
fn window_matches<const D: usize>(
    qa: &Point<D>,
    b: &[Point<D>],
    lo: &mut usize,
    eps: MatchThreshold,
) -> bool {
    let e = eps.value();
    while *lo < b.len() && b[*lo][0] < qa[0] - e {
        *lo += 1;
    }
    let top = qa[0] + e;
    for p in &b[*lo..] {
        if p[0] > top {
            return false;
        }
        if qa.matches(p, eps) {
            return true;
        }
    }
    false
}

/// One-dimensional sorted q-gram means (the PS1 representation,
/// Theorem 4): scalar keys, so the join window is a plain range scan.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedMeans1d {
    means: Vec<f64>,
    source_len: usize,
    q: usize,
}

impl SortedMeans1d {
    /// Extracts and sorts the 1-d projected q-gram means of `t` on `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `dim` is out of range.
    pub fn build<const D: usize>(t: &Trajectory<D>, q: usize, dim: usize) -> Self {
        let mut means = crate::mean_value_qgrams_1d(t, q, dim);
        means.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
        SortedMeans1d {
            means,
            source_len: t.len(),
            q,
        }
    }

    /// Number of q-grams.
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// True iff there are no q-grams.
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// Length of the originating trajectory.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// The q-gram size.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The sorted scalar means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Counts how many of `self`'s means have an ε-close mean in `other`
    /// (binary-search window per mean — the 1-d merge join).
    ///
    /// # Panics
    ///
    /// Panics if the two sides were built with different `q`.
    pub fn match_count(&self, other: &SortedMeans1d, eps: MatchThreshold) -> usize {
        assert_eq!(self.q, other.q, "q-gram sizes differ");
        let e = eps.value();
        let mut lo = 0usize;
        let mut count = 0usize;
        for &m in &self.means {
            while lo < other.means.len() && other.means[lo] < m - e {
                lo += 1;
            }
            if lo < other.means.len() && other.means[lo] <= m + e {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajsim_core::Trajectory2;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    fn brute_match_count<const D: usize>(
        a: &[Point<D>],
        b: &[Point<D>],
        e: MatchThreshold,
    ) -> usize {
        a.iter()
            .filter(|qa| b.iter().any(|qb| qa.matches(qb, e)))
            .count()
    }

    /// Sorted means of `points` at `q` = 1: the points themselves.
    fn means_of<const D: usize>(points: Vec<Point<D>>) -> SortedMeans<D> {
        SortedMeans::build(&Trajectory::new(points), 1)
    }

    #[test]
    fn wide_eps_witness_covers_everything() {
        let a: Vec<Point<2>> = (0..40)
            .map(|i| Point([f64::from(i % 7) - 3.0, f64::from(i % 5) - 2.0]))
            .collect();
        let b: Vec<Point<2>> = (0..30)
            .map(|i| Point([f64::from(i % 6) - 2.5, f64::from(i % 4) - 1.5]))
            .collect();
        let (sa, sb) = (means_of(a.clone()), means_of(b.clone()));
        let e = eps(100.0);
        let w = witness(sa.means(), sb.means());
        assert!(
            a.iter().all(|p| p.matches(&w, e)),
            "the witness alone covers a"
        );
        assert_eq!(sa.match_count(&sb, e), a.len());
        assert_eq!(sa.match_count(&sb, e), brute_match_count(&a, &b, e));
    }

    #[test]
    fn zero_eps_and_disjoint_sets_witness_covers_nothing() {
        let a: Vec<Point<2>> = (0..20).map(|i| Point([f64::from(i), 0.5])).collect();
        let b: Vec<Point<2>> = (0..20).map(|i| Point([f64::from(i), 1.5])).collect();
        let (sa, sb) = (means_of(a.clone()), means_of(b.clone()));
        let w = witness(sa.means(), sb.means());
        for e in [eps(0.0), eps(0.5)] {
            assert!(a.iter().all(|p| !p.matches(&w, e)));
            assert_eq!(sa.match_count(&sb, e), 0);
            assert_eq!(brute_match_count(&a, &b, e), 0);
        }
        // At ε = 0 only exact copies match, witness or not.
        let mut c = b.clone();
        c.extend_from_slice(&a[3..6]);
        assert_eq!(sa.match_count(&means_of(c.clone()), eps(0.0)), 3);
        assert_eq!(brute_match_count(&a, &c, eps(0.0)), 3);
    }

    #[test]
    fn first_coordinates_exactly_eps_apart_still_match() {
        let a = means_of(vec![Point([0.0, 0.0]), Point([0.5, 0.0])]);
        let b = means_of(vec![Point([-1.0, 0.0]), Point([-2.0, 0.0])]);
        assert_eq!(a.match_count(&b, eps(1.0)), 1);
        assert_eq!(b.match_count(&a, eps(1.0)), 1);
        assert_eq!(a.match_count(&b, eps(0.999)), 0);
        assert_eq!(b.match_count(&a, eps(0.999)), 0);
    }

    #[test]
    fn nan_mean_never_matches() {
        let nan = f64::NAN;
        // Sorting keys on the first coordinate only, so a NaN second
        // coordinate builds; its mean matches nothing, not even itself.
        // The NaN point comes last, where it enters one mean only.
        let t = Trajectory2::from_xy(&[(1.0, 1.0), (2.0, 2.0), (0.0, nan)]);
        let s = SortedMeans::build(&t, 1);
        for e in [eps(0.0), eps(1.0), eps(1e9)] {
            assert_eq!(s.match_count(&s, e), 2);
            assert_eq!(brute_match_count(s.means(), s.means(), e), 2);
        }
        let u = SortedMeans::build(&Trajectory2::from_xy(&[(0.5, 0.5), (1.5, nan)]), 1);
        for (x, y) in [(&s, &u), (&u, &s)] {
            assert_eq!(x.match_count(y, eps(1.0)), 1);
            assert_eq!(brute_match_count(x.means(), y.means(), eps(1.0)), 1);
        }
    }

    #[test]
    fn a_nan_point_mid_trajectory_leaves_the_other_means_joinable() {
        let nan = f64::NAN;
        let t = Trajectory2::from_xy(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 2.0),
            (3.0, nan),
            (4.0, 4.0),
            (5.0, 5.0),
            (6.0, 6.0),
        ]);
        let u = Trajectory2::from_xy(&[(0.2, 0.2), (2.9, 2.9), (4.1, 4.1), (6.0, 6.0)]);
        for q in 1..=3 {
            let (st, su) = (SortedMeans::build(&t, q), SortedMeans::build(&u, q));
            for e in [eps(0.0), eps(0.3), eps(1.0), eps(10.0)] {
                for (x, y) in [(&st, &su), (&su, &st), (&st, &st)] {
                    assert_eq!(
                        x.match_count(y, e),
                        brute_match_count(x.means(), y.means(), e),
                        "q = {q}, eps = {}",
                        e.value()
                    );
                }
            }
            // Only the q windows holding the NaN point match nothing.
            assert_eq!(st.match_count(&st, eps(10.0)), t.len() - q + 1 - q);
        }
    }

    #[test]
    fn identical_trajectories_match_fully() {
        let t = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        let s = SortedMeans::build(&t, 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.match_count(&s.clone(), eps(0.0)), 3);
    }

    #[test]
    fn disjoint_trajectories_match_nothing() {
        let a = SortedMeans::build(&Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]), 1);
        let b = SortedMeans::build(&Trajectory2::from_xy(&[(50.0, 50.0), (60.0, 60.0)]), 1);
        assert_eq!(a.match_count(&b, eps(1.0)), 0);
    }

    #[test]
    fn short_trajectory_yields_no_qgrams() {
        let a = SortedMeans::build(&Trajectory2::from_xy(&[(0.0, 0.0)]), 3);
        assert!(a.is_empty());
        assert_eq!(a.source_len(), 1);
        let b = SortedMeans::build(&Trajectory2::from_xy(&[(0.0, 0.0); 5]), 3);
        assert_eq!(a.match_count(&b, eps(1.0)), 0);
    }

    #[test]
    fn one_dimensional_join() {
        let t = Trajectory2::from_xy(&[(0.0, 100.0), (1.0, 200.0), (2.0, 300.0)]);
        let s = Trajectory2::from_xy(&[(0.4, -5.0), (1.4, -5.0), (50.0, -5.0)]);
        let (ta, sa) = (
            SortedMeans1d::build(&t, 1, 0),
            SortedMeans1d::build(&s, 1, 0),
        );
        // x means of t: 0,1,2; of s: 0.4, 1.4, 50. With eps 0.5: 0~0.4,
        // 1~1.4, 2~1.4? |2-1.4|=0.6 > 0.5 -> 2 matches.
        assert_eq!(ta.match_count(&sa, eps(0.5)), 2);
        // y dimension is far apart everywhere.
        let (ty, sy) = (
            SortedMeans1d::build(&t, 1, 1),
            SortedMeans1d::build(&s, 1, 1),
        );
        assert_eq!(ty.match_count(&sy, eps(0.5)), 0);
    }

    #[test]
    #[should_panic(expected = "q-gram sizes differ")]
    fn mismatched_q_panics() {
        let t = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
        let a = SortedMeans::build(&t, 1);
        let b = SortedMeans::build(&t, 2);
        let _ = a.match_count(&b, eps(1.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sliding-window merge join agrees with brute force.
        #[test]
        fn join_agrees_with_brute_force(
            a in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..25),
            b in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..25),
            q in 1usize..4,
            e in 0.0..3.0f64,
        ) {
            let (ta, tb) = (Trajectory2::from_xy(&a), Trajectory2::from_xy(&b));
            let (sa, sb) = (SortedMeans::build(&ta, q), SortedMeans::build(&tb, q));
            let want = brute_match_count(
                &crate::mean_value_qgrams(&ta, q),
                &crate::mean_value_qgrams(&tb, q),
                eps(e),
            );
            prop_assert_eq!(sa.match_count(&sb, eps(e)), want);
        }

        /// 1-d joins agree with brute force too.
        #[test]
        fn join_1d_agrees_with_brute_force(
            a in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..25),
            b in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..25),
            q in 1usize..4,
            e in 0.0..3.0f64,
            dim in 0usize..2,
        ) {
            let (ta, tb) = (Trajectory2::from_xy(&a), Trajectory2::from_xy(&b));
            let (sa, sb) = (
                SortedMeans1d::build(&ta, q, dim),
                SortedMeans1d::build(&tb, q, dim),
            );
            let (ma, mb) = (
                crate::mean_value_qgrams_1d(&ta, q, dim),
                crate::mean_value_qgrams_1d(&tb, q, dim),
            );
            let want = ma
                .iter()
                .filter(|x| mb.iter().any(|y| (*x - y).abs() <= e))
                .count();
            prop_assert_eq!(sa.match_count(&sb, eps(e)), want);
        }

        /// `match_count` equals the naive O(n·m) pairwise count on
        /// adversarial inputs: coordinates snapped to a coarse integer
        /// grid with an ε that is an exact multiple of the grid step, so
        /// boundary ties (`|a − b| == ε`) and duplicate mean values —
        /// the cases where a sliding-window bug would hide in float
        /// fuzz — occur constantly. Guards the sorted-merge invariant
        /// the trie build reuses.
        #[test]
        fn join_matches_naive_pairwise_on_integer_grid(
            a in proptest::collection::vec((-3i8..=3, -3i8..=3), 0..30),
            b in proptest::collection::vec((-3i8..=3, -3i8..=3), 0..30),
            q in 1usize..4,
            e_steps in 0u8..4,
        ) {
            let to_xy = |v: &[(i8, i8)]| {
                v.iter()
                    .map(|&(x, y)| (f64::from(x), f64::from(y)))
                    .collect::<Vec<_>>()
            };
            let (ta, tb) = (
                Trajectory2::from_xy(&to_xy(&a)),
                Trajectory2::from_xy(&to_xy(&b)),
            );
            let e = eps(f64::from(e_steps));
            let (sa, sb) = (SortedMeans::build(&ta, q), SortedMeans::build(&tb, q));
            // Naive O(n·m): for each of a's means, scan all of b's.
            let (ma, mb) = (
                crate::mean_value_qgrams(&ta, q),
                crate::mean_value_qgrams(&tb, q),
            );
            let want = brute_match_count(&ma, &mb, e);
            prop_assert_eq!(sa.match_count(&sb, e), want);
            let back = brute_match_count(&mb, &ma, e);
            prop_assert_eq!(sb.match_count(&sa, e), back);
        }

        /// Boundary ties against the witness: `b` holds one mean `w` on
        /// the integer grid (and others far off in the first coordinate),
        /// so the pick must take `w`, and the means of `a` lie on the
        /// grid within ε + 1 of it, many exactly ε away.
        #[test]
        fn witness_boundary_ties_on_integer_grid(
            w in (-3i8..=3, -3i8..=3),
            offsets in proptest::collection::vec((-4i8..=4, -4i8..=4), 1..30),
            far in proptest::collection::vec((-3i8..=3, -3i8..=3), 0..4),
            e_steps in 1u8..4,
        ) {
            let e = f64::from(e_steps);
            let w = Point([f64::from(w.0), f64::from(w.1)]);
            let a: Vec<Point<2>> = offsets
                .iter()
                .map(|&(dx, dy)| {
                    let clamp = |d: i8| f64::from(d).clamp(-e - 1.0, e + 1.0);
                    Point([w[0] + clamp(dx), w[1] + clamp(dy)])
                })
                .collect();
            let mut b = vec![w];
            b.extend(far.iter().map(|&(x, y)| Point([1000.0 * f64::from(x.signum() | 1), f64::from(y)])));
            let (sa, sb) = (means_of(a.clone()), means_of(b.clone()));
            prop_assert_eq!(witness(sa.means(), sb.means()), w);
            prop_assert_eq!(sa.match_count(&sb, eps(e)), brute_match_count(&a, &b, eps(e)));
        }

        /// The join is generic in `D`: one and three dimensions agree
        /// with brute force too.
        #[test]
        fn join_agrees_with_brute_force_in_1d_and_3d(
            a in proptest::collection::vec((-3i8..=3, -3i8..=3, -3i8..=3), 0..25),
            b in proptest::collection::vec((-3i8..=3, -3i8..=3, -3i8..=3), 0..25),
            e_steps in 0u8..4,
        ) {
            let e = eps(f64::from(e_steps) / 2.0);
            let p3 = |v: &[(i8, i8, i8)]| -> Vec<Point<3>> {
                v.iter()
                    .map(|&(x, y, z)| Point([f64::from(x), f64::from(y) / 2.0, f64::from(z)]))
                    .collect()
            };
            let (a3, b3) = (p3(&a), p3(&b));
            let (sa, sb) = (means_of(a3.clone()), means_of(b3.clone()));
            prop_assert_eq!(sa.match_count(&sb, e), brute_match_count(&a3, &b3, e));
            let (a1, b1): (Vec<Point<1>>, Vec<Point<1>>) = (
                a3.iter().map(|p| p.project(1)).collect(),
                b3.iter().map(|p| p.project(1)).collect(),
            );
            let (sa, sb) = (means_of(a1.clone()), means_of(b1.clone()));
            prop_assert_eq!(sa.match_count(&sb, e), brute_match_count(&a1, &b1, e));
        }

        /// The 2-d match count never exceeds the 1-d one (each 2-d match
        /// implies a 1-d match on either projection) — the reason PS2
        /// prunes at least as well as PS1.
        #[test]
        fn projection_weakens_matching(
            a in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            b in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..20),
            q in 1usize..4,
            e in 0.0..3.0f64,
        ) {
            let (ta, tb) = (Trajectory2::from_xy(&a), Trajectory2::from_xy(&b));
            let c2 = SortedMeans::build(&ta, q).match_count(&SortedMeans::build(&tb, q), eps(e));
            for dim in 0..2 {
                let c1 = SortedMeans1d::build(&ta, q, dim)
                    .match_count(&SortedMeans1d::build(&tb, q, dim), eps(e));
                prop_assert!(c2 <= c1, "2-d count {c2} > 1-d count {c1}");
            }
        }
    }
}
