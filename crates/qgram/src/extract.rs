//! Q-gram windows, Definition 3 matching, and mean-value reduction
//! (Theorem 2).

use trajsim_core::{MatchThreshold, Point, Trajectory};

/// The q-gram windows of a trajectory as a lazy iterator: every run of
/// `q` consecutive elements, as slices into the trajectory's point
/// buffer, with no per-call allocation. A trajectory of length `n`
/// yields `n − q + 1` q-grams (none if `n < q` — `slice::windows`
/// already yields nothing when the slice is shorter than the window).
///
/// # Panics
///
/// Panics if `q == 0`.
pub fn qgram_window_iter<const D: usize>(
    t: &Trajectory<D>,
    q: usize,
) -> std::slice::Windows<'_, Point<D>> {
    assert!(q > 0, "q-gram size must be positive");
    t.points().windows(q)
}

/// The q-gram windows of a trajectory, collected into a `Vec` — a thin
/// wrapper over [`qgram_window_iter`] for callers that need random
/// access; prefer the iterator in per-query paths to avoid the
/// allocation.
///
/// # Panics
///
/// Panics if `q == 0`.
pub fn qgram_windows<const D: usize>(t: &Trajectory<D>, q: usize) -> Vec<&[Point<D>]> {
    qgram_window_iter(t, q).collect()
}

/// Definition 3: two q-grams match iff each element of one matches the
/// corresponding element of the other under ε.
///
/// # Panics
///
/// Panics if the q-grams have different sizes (they come from the same
/// `q`).
pub fn qgrams_match<const D: usize>(r: &[Point<D>], s: &[Point<D>], eps: MatchThreshold) -> bool {
    assert_eq!(r.len(), s.len(), "q-grams must have equal size");
    r.iter().zip(s).all(|(a, b)| a.matches(b, eps))
}

/// Theorem 2's reduction: the mean value pair of every q-gram of `t`.
/// If two q-grams match, their means match, so storing the means loses no
/// pruning soundness while needing "no more space ... than is required to
/// store a trajectory, regardless of the size of the Q-gram".
///
/// # Panics
///
/// Panics if `q == 0`.
pub fn mean_value_qgrams<const D: usize>(t: &Trajectory<D>, q: usize) -> Vec<Point<D>> {
    assert!(q > 0, "q-gram size must be positive");
    let pts = t.points();
    if pts.len() < q {
        return Vec::new();
    }
    let inv_q = 1.0 / q as f64;
    let window_sum = |w: &[Point<D>]| w.iter().fold(Point::<D>::origin(), |acc, p| acc + *p);
    // Sliding-window sum: O(n·D) instead of O(n·q·D). A NaN or ±∞ stays
    // in a running sum after its point leaves the window, so a
    // non-finite sum is recomputed from the window's own points: only
    // the windows holding the bad point get a non-finite mean.
    let mut sum = window_sum(&pts[..q]);
    let mut out = Vec::with_capacity(pts.len() - q + 1);
    out.push(sum * inv_q);
    for i in q..pts.len() {
        sum = sum + pts[i] - pts[i - q];
        if !sum.is_finite() {
            sum = window_sum(&pts[i + 1 - q..=i]);
        }
        out.push(sum * inv_q);
    }
    out
}

/// Theorem 4 + Theorem 2 combined: the scalar means of the q-grams of one
/// projected dimension of `t` — the keys the PB/PS1 variants store.
///
/// # Panics
///
/// Panics if `q == 0` or `dim >= D`.
pub fn mean_value_qgrams_1d<const D: usize>(t: &Trajectory<D>, q: usize, dim: usize) -> Vec<f64> {
    assert!(dim < D, "projection dimension out of range");
    mean_value_qgrams(t, q)
        .into_iter()
        .map(|p| p[dim])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajsim_core::{Point2, Trajectory2};

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    #[test]
    fn window_counts() {
        let t =
            Trajectory2::from_xy(&[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0), (9.0, 10.0)]);
        assert_eq!(qgram_windows(&t, 1).len(), 5);
        assert_eq!(qgram_windows(&t, 3).len(), 3);
        assert_eq!(qgram_windows(&t, 5).len(), 1);
        assert_eq!(qgram_windows(&t, 6).len(), 0);
    }

    #[test]
    fn window_iter_agrees_with_collected_windows() {
        let t =
            Trajectory2::from_xy(&[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0), (9.0, 10.0)]);
        for q in 1..=6 {
            let lazy: Vec<&[Point2]> = qgram_window_iter(&t, q).collect();
            assert_eq!(lazy, qgram_windows(&t, q), "q = {q}");
            let expect = if t.len() < q { 0 } else { t.len() - q + 1 };
            assert_eq!(qgram_window_iter(&t, q).count(), expect);
        }
        // Shorter than q: the iterator is simply empty.
        let short = Trajectory2::from_xy(&[(0.0, 0.0)]);
        assert_eq!(qgram_window_iter(&short, 3).next(), None);
    }

    #[test]
    fn paper_example_means() {
        // §4.1's example: S = [(1,2), (3,4), (5,6), (7,8), (9,10)], q = 3
        // -> mean value pairs (3,4), (5,6), (7,8).
        let t =
            Trajectory2::from_xy(&[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0), (9.0, 10.0)]);
        let means = mean_value_qgrams(&t, 3);
        assert_eq!(
            means,
            vec![
                Point2::xy(3.0, 4.0),
                Point2::xy(5.0, 6.0),
                Point2::xy(7.0, 8.0)
            ]
        );
    }

    #[test]
    fn q_equal_one_means_are_the_points() {
        let t = Trajectory2::from_xy(&[(1.5, -2.0), (0.0, 3.0)]);
        assert_eq!(mean_value_qgrams(&t, 1), t.points().to_vec());
    }

    #[test]
    fn one_dimensional_means_are_projections_of_means() {
        let t = Trajectory2::from_xy(&[(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]);
        assert_eq!(mean_value_qgrams_1d(&t, 2, 0), vec![1.5, 2.5]);
        assert_eq!(mean_value_qgrams_1d(&t, 2, 1), vec![15.0, 25.0]);
    }

    #[test]
    fn definition_3_matching() {
        let t = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let s = Trajectory2::from_xy(&[(0.2, 0.2), (1.2, 1.2), (9.0, 9.0)]);
        let (tg, sg) = (qgram_windows(&t, 2), qgram_windows(&s, 2));
        assert!(qgrams_match(tg[0], sg[0], eps(0.5)));
        assert!(!qgrams_match(tg[1], sg[1], eps(0.5))); // (2,2) vs (9,9)
    }

    #[test]
    fn a_non_finite_point_spoils_only_its_own_windows() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let t = Trajectory2::from_xy(&[(0.0, bad), (1.0, 1.0), (2.0, 2.0)]);
            let m = mean_value_qgrams(&t, 1);
            assert_eq!(m.len(), 3);
            assert!(!m[0].is_finite(), "{bad}: {m:?}");
            assert_eq!(&m[1..], &[Point2::xy(1.0, 1.0), Point2::xy(2.0, 2.0)]);
            let m = mean_value_qgrams(&t, 2);
            assert_eq!(m.len(), 2);
            assert!(!m[0].is_finite(), "{bad}: {m:?}");
            assert_eq!(m[1], Point2::xy(1.5, 1.5));
            // In the middle, the bad point is in q windows and no others.
            let t = Trajectory2::from_xy(&[
                (0.0, 0.0),
                (1.0, 1.0),
                (2.0, bad),
                (3.0, 3.0),
                (4.0, 4.0),
                (5.0, 5.0),
            ]);
            let finite: Vec<bool> = mean_value_qgrams(&t, 2)
                .iter()
                .map(Point2::is_finite)
                .collect();
            assert_eq!(finite, [true, false, false, true, true], "{bad}");
            assert_eq!(mean_value_qgrams(&t, 2)[4], Point2::xy(4.5, 4.5));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_q_panics() {
        let t = Trajectory2::from_xy(&[(0.0, 0.0)]);
        let _ = mean_value_qgrams(&t, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Theorem 2: matching q-grams have matching means.
        #[test]
        fn matching_qgrams_have_matching_means(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 1..15),
            jitter in proptest::collection::vec((-0.5..0.5f64, -0.5..0.5f64), 1..15),
            q in 1usize..5,
            e in 0.5..2.0f64,
        ) {
            // Build s as r plus a per-element jitter smaller than eps, so
            // every aligned q-gram pair matches; their means must match.
            let n = r.len().min(jitter.len());
            let rt = Trajectory2::from_xy(&r[..n]);
            let st = Trajectory2::from_xy(
                &r[..n]
                    .iter()
                    .zip(&jitter[..n])
                    .map(|(a, j)| (a.0 + j.0, a.1 + j.1))
                    .collect::<Vec<_>>(),
            );
            let e = eps(e);
            let (rg, sg) = (qgram_windows(&rt, q), qgram_windows(&st, q));
            let (rm, sm) = (mean_value_qgrams(&rt, q), mean_value_qgrams(&st, q));
            for i in 0..rg.len() {
                if qgrams_match(rg[i], sg[i], e) {
                    prop_assert!(rm[i].matches(&sm[i], e),
                        "means {:?} {:?} must match when q-grams do", rm[i], sm[i]);
                }
            }
        }

        /// The sliding-window mean equals the naive per-window mean.
        #[test]
        fn sliding_mean_matches_naive(
            pts in proptest::collection::vec((-100.0..100.0f64, -100.0..100.0f64), 0..30),
            q in 1usize..6,
        ) {
            let t = Trajectory2::from_xy(&pts);
            let fast = mean_value_qgrams(&t, q);
            let naive: Vec<Point2> = qgram_windows(&t, q)
                .iter()
                .map(|w| {
                    let mut acc = Point2::origin();
                    for p in *w {
                        acc = acc + *p;
                    }
                    acc / q as f64
                })
                .collect();
            prop_assert_eq!(fast.len(), naive.len());
            for (a, b) in fast.iter().zip(&naive) {
                prop_assert!((a.x() - b.x()).abs() < 1e-9);
                prop_assert!((a.y() - b.y()).abs() < 1e-9);
            }
        }
    }
}
