//! The histogram distance HD (Definition 4) and the lower-bound guarantee
//! of Theorem 6.

use crate::flow::MaxFlow;
use crate::TrajectoryHistogram;

/// The histogram distance `HD(H_R, H_S)` (Definition 4): the minimum
/// number of edit-operation steps transforming one histogram into the
/// other, treating elements in approximately matching (same or adjacent)
/// cells as interchangeable (Definition 5).
///
/// Computed exactly as `max(|R|, |S|) − M`, where `M` is the **maximum
/// matching between the full histograms** — element mass of `R` paired
/// with element mass of `S` whose cells approximately match. Every
/// pairing in an optimal EDR alignment is feasible here (ε-matching
/// elements land at most one cell apart when the bin side is ≥ ε), so
/// `M` is at least the alignment's match count and `HD <= EDR` follows;
/// residual unpaired mass needs one edit operation per element (a
/// replace retires one residual from each side at once — hence the
/// `max`).
///
/// `M` is found in linear time by a left-to-right sweep when `D = 1`
/// (the per-dimension 1HE embedding; see `sweep_matching` for why the
/// sweep is exact) and by Dinic max-flow over the bipartite cell
/// network when `D >= 2` (the 2HE grids, where the neighbourhoods are
/// boxes with no such order).
///
/// Two cheaper-looking formulations are *not* sound, which is why this
/// function does neither (see the crate docs):
/// - the paper's greedy scan over the signed per-cell difference
///   (order-dependent, kept as [`histogram_distance_greedy`]);
/// - cancelling per-cell differences with adjacent-only flow after
///   same-cell pre-cancellation: matching mass within its own cell first
///   can block a longer chain (R's cell c pairing into S's cell c+1 while
///   R's c−1 takes S's c), and the residual model then over-counts.
///
/// **Theorem 6**: `HD(H_R, H_S) <= EDR_ε(R, S)` whenever both histograms
/// use a bin size of at least the matching threshold ε (bin size = ε is
/// the standard construction; δ·ε gives the coarse variant of
/// Corollary 1). A *smaller* bin size breaks the bound — two ε-matching
/// elements could land two cells apart — so pair histograms with the ε
/// they were built for.
///
/// # Panics
///
/// Panics if the histograms were built with different bin sizes.
pub fn histogram_distance<const D: usize>(
    a: &TrajectoryHistogram<D>,
    b: &TrajectoryHistogram<D>,
) -> usize {
    check_bin_sizes(a, b);
    let upper = a.total().max(b.total()) as usize;
    let matched = if D == 1 {
        sweep_matching(a.bins(), b.bins())
    } else {
        flow_matching(a.bins(), b.bins())
    };
    upper - matched as usize
}

/// The maximum matching between two 1-D histograms (`D = 1`; only
/// dimension 0 is read), by one left-to-right sweep: each R cell `c`, in
/// ascending order, takes the leftmost S mass still unmatched in cells
/// `c−1..=c+1`.
///
/// **Why the sweep is exact.** Split every cell's mass into unit
/// elements. Each R element at cell `c` may pair with an S element in
/// the window `[c−1, c+1]`; all windows have the same width, so ordering
/// R elements by cell orders their windows by both endpoints at once.
/// Take a maximum matching `O` that agrees with the sweep's matching `G`
/// on the longest prefix of R elements, and let `u` (at cell `c`) be the
/// first element where they differ.
/// - `G` pairs `u` with `p`, the leftmost free S element in `u`'s
///   window (free after the shared prefix). If `O` leaves `u` unpaired,
///   either `p` is free in `O` — pair `(u, p)`, a larger matching — or a
///   later element `u'` holds `p` in `O`: hand `p` to `u` and drop `u'`.
/// - If `O` pairs `u` with `q ≠ p`, then `p <= q` (p is leftmost). If `p`
///   is free in `O`, move `u` to `p`. Otherwise a later `u'` at cell
///   `c' >= c` holds `p`; swap, giving `u'` the element `q`. That is
///   feasible: `q <= c + 1 <= c' + 1`, and `q >= p >= c' − 1` because `p`
///   lies in `u'`'s window.
/// - `G` cannot leave `u` unpaired while `O` pairs it with some `q`: `q`
///   would have been free for the sweep too.
///
/// Each case yields a maximum matching agreeing with `G` one element
/// longer, so `|G| = |O|`. S cells left of `c − 1` are out of every later
/// window, which is why the sweep never looks back; at most one S cell
/// is partially used at a time, the leftmost one the sweep holds.
fn sweep_matching<const D: usize>(r: &[([i64; D], u32)], s: &[([i64; D], u32)]) -> u64 {
    let mass_at = |j: usize| s.get(j).map_or(0, |&(_, m)| m);
    let (mut j, mut left, mut matched) = (0usize, mass_at(0), 0u64);
    for &(cell, mass) in r {
        let (lo, hi) = (cell[0].saturating_sub(1), cell[0].saturating_add(1));
        while j < s.len() && s[j].0[0] < lo {
            j += 1;
            left = mass_at(j);
        }
        let mut want = mass;
        while want > 0 && j < s.len() && s[j].0[0] <= hi {
            let take = want.min(left);
            (want, left, matched) = (want - take, left - take, matched + u64::from(take));
            if left == 0 {
                j += 1;
                left = mass_at(j);
            }
        }
    }
    matched
}

/// The maximum matching between two histograms of any dimension, as a
/// max flow: source -> R cells -> approximately matching S cells -> sink.
/// Adjacency comes from enumerating each R cell's neighbourhood and
/// looking it up among the (sorted) S cells.
fn flow_matching<const D: usize>(ab: &[([i64; D], u32)], bb: &[([i64; D], u32)]) -> u64 {
    if ab.is_empty() || bb.is_empty() {
        return 0;
    }
    let (source, sink) = (0usize, 1usize);
    let mut net = MaxFlow::new(2 + ab.len() + bb.len());
    let a_node = |i: usize| 2 + i;
    let b_node = |j: usize| 2 + ab.len() + j;
    for (i, &(_, m)) in ab.iter().enumerate() {
        net.add_edge(source, a_node(i), u64::from(m));
    }
    for (j, &(_, m)) in bb.iter().enumerate() {
        net.add_edge(b_node(j), sink, u64::from(m));
    }
    for (i, &(cell, _)) in ab.iter().enumerate() {
        TrajectoryHistogram::<D>::for_each_neighbour(&cell, |neighbour| {
            if let Ok(j) = bb.binary_search_by(|(c, _)| c.cmp(neighbour)) {
                net.add_edge(a_node(i), b_node(j), u64::MAX);
            }
        });
    }
    net.max_flow(source, sink)
}

/// A linear-time *lower bound on HD* (and therefore on EDR):
/// `max(|R|, |S|) − cap`, where `cap` caps the maximum matching by each
/// side's neighbourhood capacity — an R cell cannot pair more mass than
/// its approximately-matching S cells hold in total, and vice versa.
///
/// `histogram_distance_quick(a, b) <= histogram_distance(a, b)`, so it is
/// sound wherever HD is; it is what the k-NN engines test first, falling
/// back to the exact HD only when this cheap bound fails to prune.
///
/// # Panics
///
/// Panics if the histograms were built with different bin sizes.
pub fn histogram_distance_quick<const D: usize>(
    a: &TrajectoryHistogram<D>,
    b: &TrajectoryHistogram<D>,
) -> usize {
    check_bin_sizes(a, b);
    let upper = a.total().max(b.total()) as usize;
    let cap_a = neighbourhood_capacity(a.bins(), b.bins());
    let cap_b = neighbourhood_capacity(b.bins(), a.bins());
    upper - cap_a.min(cap_b).min(a.total() as u64).min(b.total() as u64) as usize
}

/// `Σ_c min(from(c), Σ_{c' ≈ c} to(c'))`: how much of `from`'s mass could
/// possibly be matched, ignoring that `to` cells cannot be shared. For
/// `D = 1` the neighbourhood `c−1..=c+1` slides right with `c`, so a
/// two-pointer window over `to` keeps its sum; otherwise each
/// neighbour is looked up.
fn neighbourhood_capacity<const D: usize>(from: &[([i64; D], u32)], to: &[([i64; D], u32)]) -> u64 {
    if D != 1 {
        return lookup_capacity(from, to);
    }
    let (mut lo, mut hi, mut around, mut cap) = (0usize, 0usize, 0u64, 0u64);
    for &(cell, m) in from {
        let (first, last) = (cell[0].saturating_sub(1), cell[0].saturating_add(1));
        while hi < to.len() && to[hi].0[0] <= last {
            around += u64::from(to[hi].1);
            hi += 1;
        }
        while lo < hi && to[lo].0[0] < first {
            around -= u64::from(to[lo].1);
            lo += 1;
        }
        cap += u64::from(m).min(around);
    }
    cap
}

/// [`neighbourhood_capacity`] by looking up every neighbour of every
/// `from` cell among the sorted `to` cells (binary search), in any
/// dimension.
fn lookup_capacity<const D: usize>(from: &[([i64; D], u32)], to: &[([i64; D], u32)]) -> u64 {
    from.iter()
        .map(|&(cell, m)| {
            let mut around = 0u64;
            TrajectoryHistogram::<D>::for_each_neighbour(&cell, |neighbour| {
                if let Ok(j) = to.binary_search_by(|(c, _)| c.cmp(neighbour)) {
                    around += u64::from(to[j].1);
                }
            });
            u64::from(m).min(around)
        })
        .sum()
}

fn check_bin_sizes<const D: usize>(a: &TrajectoryHistogram<D>, b: &TrajectoryHistogram<D>) {
    assert!(
        (a.bin_size() - b.bin_size()).abs() < f64::EPSILON * a.bin_size().abs().max(1.0),
        "histograms use different bin sizes ({} vs {})",
        a.bin_size(),
        b.bin_size()
    );
}

/// The paper's `CompHisDist` (Figure 5): greedy cancellation in cell-scan
/// order. Kept for ablation — it is cheaper per pair but, being
/// order-dependent, may cancel less than the maximum and so *overshoot*
/// the true HD (making it unsound as a pruning lower bound; see the crate
/// docs). Always `>= histogram_distance`.
///
/// # Panics
///
/// Panics if the histograms were built with different bin sizes.
pub fn histogram_distance_greedy<const D: usize>(
    a: &TrajectoryHistogram<D>,
    b: &TrajectoryHistogram<D>,
) -> usize {
    let (pos, neg) = signed_difference(a, b);
    let mut pos: Vec<([i64; D], i64)> = pos.into_iter().map(|(c, m)| (c, m as i64)).collect();
    let mut neg: Vec<([i64; D], i64)> = neg.into_iter().map(|(c, m)| (c, m as i64)).collect();
    // Figure 5's second loop: for each bin, reduce against approximately
    // matching opposite-signed bins, in scan order.
    for (pc, pm) in pos.iter_mut() {
        if *pm == 0 {
            continue;
        }
        for (nc, nm) in neg.iter_mut() {
            if *nm == 0 || !TrajectoryHistogram::<D>::cells_approx_match(pc, nc) {
                continue;
            }
            let cancel = (*pm).min(*nm);
            *pm -= cancel;
            *nm -= cancel;
            if *pm == 0 {
                break;
            }
        }
    }
    let p_rest: i64 = pos.iter().map(|&(_, m)| m).sum();
    let n_rest: i64 = neg.iter().map(|&(_, m)| m).sum();
    p_rest.max(n_rest) as usize
}

/// A list of (cell, mass) pairs, sorted by cell.
type MassList<const D: usize> = Vec<([i64; D], u64)>;

/// Merges the two sorted bin lists into positive (a > b) and negative
/// (a < b) mass lists, both sorted by cell.
fn signed_difference<const D: usize>(
    a: &TrajectoryHistogram<D>,
    b: &TrajectoryHistogram<D>,
) -> (MassList<D>, MassList<D>) {
    assert!(
        (a.bin_size() - b.bin_size()).abs() < f64::EPSILON * a.bin_size().abs().max(1.0),
        "histograms use different bin sizes ({} vs {})",
        a.bin_size(),
        b.bin_size()
    );
    let (mut pos, mut neg) = (Vec::new(), Vec::new());
    let (ab, bb) = (a.bins(), b.bins());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ab.len() || j < bb.len() {
        let take_a = j >= bb.len() || (i < ab.len() && ab[i].0 <= bb[j].0);
        let take_b = i >= ab.len() || (j < bb.len() && bb[j].0 <= ab[i].0);
        match (take_a, take_b) {
            (true, true) => {
                let d = i64::from(ab[i].1) - i64::from(bb[j].1);
                match d.cmp(&0) {
                    std::cmp::Ordering::Greater => pos.push((ab[i].0, d as u64)),
                    std::cmp::Ordering::Less => neg.push((ab[i].0, (-d) as u64)),
                    std::cmp::Ordering::Equal => {}
                }
                i += 1;
                j += 1;
            }
            (true, false) => {
                pos.push((ab[i].0, u64::from(ab[i].1)));
                i += 1;
            }
            (false, true) => {
                neg.push((bb[j].0, u64::from(bb[j].1)));
                j += 1;
            }
            (false, false) => unreachable!("one side must be takeable"),
        }
    }
    (pos, neg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajsim_core::{MatchThreshold, Trajectory1, Trajectory2};
    use trajsim_distance::edr;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    fn h1(vals: &[f64], e: f64) -> TrajectoryHistogram<1> {
        TrajectoryHistogram::build(&Trajectory1::from_values(vals), eps(e))
    }

    #[test]
    fn identical_histograms_have_distance_zero() {
        let h = h1(&[0.0, 1.0, 5.0, 5.1], 1.0);
        assert_eq!(histogram_distance(&h, &h), 0);
        assert_eq!(histogram_distance_greedy(&h, &h), 0);
    }

    #[test]
    fn pure_insertions_cost_their_count() {
        let a = h1(&[0.0, 10.0], 1.0);
        let b = h1(&[0.0, 10.0, 20.0, 30.0, 40.0], 1.0);
        assert_eq!(histogram_distance(&a, &b), 3);
    }

    #[test]
    fn adjacent_cells_cancel() {
        // 0.9 and 1.2 are within eps = 1 but land in cells 0 and 1 — the
        // paper's own example (§4.3): their histogram distance must be 0.
        let a = h1(&[0.9], 1.0);
        let b = h1(&[1.2], 1.0);
        assert_eq!(histogram_distance(&a, &b), 0);
        assert_eq!(histogram_distance_greedy(&a, &b), 0);
    }

    #[test]
    fn non_adjacent_cells_do_not_cancel() {
        let a = h1(&[0.5], 1.0);
        let b = h1(&[5.5], 1.0);
        assert_eq!(histogram_distance(&a, &b), 1); // one replace
    }

    #[test]
    fn replace_counts_once_not_twice() {
        // R has 3 elements in far-apart cells; S has 3 elements in other
        // far-apart cells: 3 replaces, not 6 steps.
        let a = h1(&[0.5, 10.5, 20.5], 1.0);
        let b = h1(&[40.5, 50.5, 60.5], 1.0);
        assert_eq!(histogram_distance(&a, &b), 3);
    }

    #[test]
    fn greedy_can_overshoot_exact() {
        // Positive masses in cells 0 and 2; negative mass 1 in cell 1 and
        // another far away. Greedy (scan order) lets cell 0 cancel with
        // cell 1; exact does the same here — construct the classic
        // order-trap instead: pos cells {1}, neg cells {0, 2}, pos mass 2?
        // Masses: a has two elements in cell 1; b has one in cell 0 and
        // one in cell 2. Exact: both cancel (cell 1 adjacent to both),
        // HD = 0. Any greedy that caps per-pair cancellation wrongly would
        // overshoot; our faithful greedy also reaches 0 here, so just
        // assert the invariant greedy >= exact.
        let a = h1(&[1.5, 1.6], 1.0);
        let b = h1(&[0.5, 2.5], 1.0);
        assert_eq!(histogram_distance(&a, &b), 0);
        assert!(histogram_distance_greedy(&a, &b) >= histogram_distance(&a, &b));
    }

    #[test]
    fn exact_beats_greedy_on_an_order_trap() {
        // pos cells: 0 (mass 1), 2 (mass 1); neg cells: 1 (mass 1),
        // 3 (mass 1). Scan order: pos 0 grabs neg 1 (adjacent), pos 2 then
        // pairs with neg 3 — fine, 0. Trap variant: neg cells 1 (mass 1)
        // only adjacent option for BOTH pos 0 and pos 2, plus neg 9.
        // Greedy: pos 0 takes neg 1; pos 2 has nothing (9 not adjacent)
        // -> leftover pos 1, neg 1 -> greedy 1. Exact: also 1 (mass
        // conservation). True traps need unequal masses; tested via the
        // property below, here just pin the simple numbers.
        let a = h1(&[0.5, 2.5], 1.0);
        let b = h1(&[1.5, 9.5], 1.0);
        assert_eq!(histogram_distance(&a, &b), 1);
        assert!(histogram_distance_greedy(&a, &b) >= 1);
    }

    #[test]
    fn chain_reassignment_is_found() {
        // R occupies cells {0, 1}, S occupies {1, 2}: the only full
        // matching pairs R's 0 with S's 1 and R's 1 with S's 2 — a chain a
        // per-cell-difference model misses (it would cancel R's 1 with S's
        // 1 and leave cells 0 and 2, which are not adjacent). EDR here is
        // 0 (0.5~1.5 and 1.5~2.5 both match under ε = 1), so HD must be 0.
        let a = h1(&[0.5, 1.5], 1.0);
        let b = h1(&[1.5, 2.5], 1.0);
        assert_eq!(histogram_distance(&a, &b), 0);
    }

    #[test]
    fn slip_regression_chain_with_bulk() {
        // Minimized from the Slip data set false dismissal: four occupied
        // cells with imbalances that require routing R's cell −1 surplus
        // into S's cell 0 *while* R's −2 surplus takes S's −1 mass. A
        // full-histogram matching pairs everything except the overall
        // imbalance.
        let mut qv = Vec::new();
        let mut sv = Vec::new();
        for (cell, count) in [(-3i64, 43usize), (-2, 29), (-1, 23), (0, 305)] {
            qv.extend(std::iter::repeat_n(cell as f64 + 0.5, count));
        }
        for (cell, count) in [(-3i64, 42usize), (-2, 23), (-1, 17), (0, 318)] {
            sv.extend(std::iter::repeat_n(cell as f64 + 0.5, count));
        }
        let a = h1(&qv, 1.0);
        let b = h1(&sv, 1.0);
        // Full matching covers all 400 elements of each side -> HD 0.
        assert_eq!(histogram_distance(&a, &b), 0);
    }

    #[test]
    fn extreme_cells_do_not_wrap_into_adjacency() {
        // At ε = 1e-300 the values 1 and −1 land in cells i64::MAX and
        // i64::MIN. They are 2 apart, so EDR is 1; neighbour offsets past
        // the i64 range must neither overflow nor wrap to the other end.
        let e = 1e-300;
        let (r, s) = (
            Trajectory1::from_values(&[1.0]),
            Trajectory1::from_values(&[-1.0]),
        );
        assert_eq!(edr(&r, &s, eps(e)), 1);
        let (a, b) = (h1(&[1.0], e), h1(&[-1.0], e));
        assert_eq!(a.bins()[0].0, [i64::MAX]);
        assert_eq!(b.bins()[0].0, [i64::MIN]);
        assert_eq!(histogram_distance_quick(&a, &b), 1);
        assert_eq!(histogram_distance(&a, &b), 1);
        assert_eq!(histogram_distance_greedy(&a, &b), 1);
        let grid = |x: f64| TrajectoryHistogram::build(&Trajectory2::from_xy(&[(x, x)]), eps(e));
        let (ga, gb) = (grid(1.0), grid(-1.0));
        assert_eq!(histogram_distance_quick(&ga, &gb), 1);
        assert_eq!(histogram_distance(&ga, &gb), 1);
    }

    #[test]
    #[should_panic(expected = "different bin sizes")]
    fn mismatched_bin_sizes_panic() {
        let a = h1(&[0.0], 1.0);
        let b = h1(&[0.0], 2.0);
        let _ = histogram_distance(&a, &b);
    }

    #[test]
    fn two_dimensional_diagonal_adjacency_cancels() {
        let a = TrajectoryHistogram::build(&Trajectory2::from_xy(&[(0.9, 0.9)]), eps(1.0));
        let b = TrajectoryHistogram::build(&Trajectory2::from_xy(&[(1.1, 1.1)]), eps(1.0));
        assert_eq!(histogram_distance(&a, &b), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Theorem 6: HD lower-bounds EDR when bin size = ε.
        #[test]
        fn hd_lower_bounds_edr(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..18),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..18),
            e in 0.1..3.0f64,
        ) {
            let (rt, st) = (Trajectory2::from_xy(&r), Trajectory2::from_xy(&s));
            let e = eps(e);
            let (ha, hb) = (
                TrajectoryHistogram::build(&rt, e),
                TrajectoryHistogram::build(&st, e),
            );
            prop_assert!(histogram_distance(&ha, &hb) <= edr(&rt, &st, e));
        }

        /// Corollary 1 (coarse bins): HD at bin size δ·ε still lower-bounds
        /// EDR at ε.
        #[test]
        fn coarse_hd_lower_bounds_edr(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            e in 0.1..2.0f64,
            delta in 2u32..5,
        ) {
            let (rt, st) = (Trajectory2::from_xy(&r), Trajectory2::from_xy(&s));
            let e = eps(e);
            let (ha, hb) = (
                TrajectoryHistogram::build_coarse(&rt, e, delta),
                TrajectoryHistogram::build_coarse(&st, e, delta),
            );
            prop_assert!(histogram_distance(&ha, &hb) <= edr(&rt, &st, e));
        }

        /// Corollary 1 (projections): 1-d HD on either dimension
        /// lower-bounds the 2-d EDR.
        #[test]
        fn projected_hd_lower_bounds_edr(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            e in 0.1..2.0f64,
            dim in 0usize..2,
        ) {
            let (rt, st) = (Trajectory2::from_xy(&r), Trajectory2::from_xy(&s));
            let e = eps(e);
            let (ha, hb) = (
                TrajectoryHistogram::<2>::build_projected(&rt, e, dim),
                TrajectoryHistogram::<2>::build_projected(&st, e, dim),
            );
            prop_assert!(histogram_distance(&ha, &hb) <= edr(&rt, &st, e));
        }

        /// HD is symmetric, zero on identical inputs, and greedy never
        /// undercuts exact.
        #[test]
        fn hd_structural_properties(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            e in 0.1..2.0f64,
        ) {
            let (rt, st) = (Trajectory2::from_xy(&r), Trajectory2::from_xy(&s));
            let e = eps(e);
            let (ha, hb) = (
                TrajectoryHistogram::build(&rt, e),
                TrajectoryHistogram::build(&st, e),
            );
            prop_assert_eq!(histogram_distance(&ha, &hb), histogram_distance(&hb, &ha));
            prop_assert_eq!(histogram_distance(&ha, &ha), 0);
            prop_assert!(histogram_distance_greedy(&ha, &hb) >= histogram_distance(&ha, &hb));
        }

        /// The quick bound never exceeds the exact HD (and is therefore
        /// also a sound EDR lower bound).
        #[test]
        fn quick_lower_bounds_exact(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..18),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..18),
            e in 0.1..3.0f64,
        ) {
            let (rt, st) = (Trajectory2::from_xy(&r), Trajectory2::from_xy(&s));
            let e = eps(e);
            let (ha, hb) = (
                TrajectoryHistogram::build(&rt, e),
                TrajectoryHistogram::build(&st, e),
            );
            let quick = histogram_distance_quick(&ha, &hb);
            prop_assert!(quick <= histogram_distance(&ha, &hb));
            prop_assert!(quick <= edr(&rt, &st, e));
        }

        /// HD respects the length difference: |m − n| <= HD (mass
        /// conservation: cancellation is 1-for-1).
        #[test]
        fn hd_at_least_length_difference(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 0..15),
            e in 0.1..2.0f64,
        ) {
            let (rt, st) = (Trajectory2::from_xy(&r), Trajectory2::from_xy(&s));
            let e = eps(e);
            let (ha, hb) = (
                TrajectoryHistogram::build(&rt, e),
                TrajectoryHistogram::build(&st, e),
            );
            prop_assert!(histogram_distance(&ha, &hb) >= rt.len().abs_diff(st.len()));
        }
    }

    /// A 1-D histogram from `(cell, mass)` pairs. The property tests
    /// below draw few distinct cells from a wider range (gaps between
    /// occupied cells) with masses up to 60 (repeated values, skewed
    /// toward a few cells).
    fn from_cells(cells: &[(i64, usize)]) -> TrajectoryHistogram<1> {
        let values: Vec<f64> = cells
            .iter()
            .flat_map(|&(c, m)| std::iter::repeat_n(c as f64 + 0.5, m))
            .collect();
        h1(&values, 1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The 1-D sweep finds the same maximum matching as Dinic
        /// max-flow on the same bipartite network.
        #[test]
        fn sweep_matching_equals_max_flow(
            a in proptest::collection::vec((-12i64..12, 1usize..60), 0..9),
            b in proptest::collection::vec((-12i64..12, 1usize..60), 0..9),
        ) {
            let (a, b) = (from_cells(&a), from_cells(&b));
            let flow = flow_matching(a.bins(), b.bins());
            prop_assert_eq!(sweep_matching(a.bins(), b.bins()), flow);
            prop_assert_eq!(sweep_matching(b.bins(), a.bins()), flow);
            let upper = a.total().max(b.total()) as usize;
            prop_assert_eq!(histogram_distance(&a, &b), upper - flow as usize);
        }

        /// The 1-D sliding window sums the same neighbourhoods as the
        /// per-neighbour lookup.
        #[test]
        fn window_capacity_equals_lookup(
            a in proptest::collection::vec((-12i64..12, 1usize..60), 0..9),
            b in proptest::collection::vec((-12i64..12, 1usize..60), 0..9),
        ) {
            let (a, b) = (from_cells(&a), from_cells(&b));
            prop_assert_eq!(
                neighbourhood_capacity(a.bins(), b.bins()),
                lookup_capacity(a.bins(), b.bins())
            );
            prop_assert_eq!(
                neighbourhood_capacity(b.bins(), a.bins()),
                lookup_capacity(b.bins(), a.bins())
            );
        }
    }
}
