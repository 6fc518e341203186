//! The grid-histogram embedding of §4.3.

use trajsim_core::{MatchThreshold, Trajectory};

/// A sparse `D`-dimensional grid histogram of a trajectory: how many
/// elements fall into each cell of a grid with side `bin_size` (the
/// matching threshold ε, or δ·ε for the coarse variant of Corollary 1).
///
/// The grid is anchored at the origin (`cell = floor(coord / bin_size)`),
/// so histograms of different trajectories are directly comparable as long
/// as they use the same `bin_size` — unlike the paper's per-data-set
/// `[min, max]` subranges, which require a global pass; the anchoring
/// changes nothing about Theorem 6 (two elements within ε still land at
/// most one cell apart in every dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryHistogram<const D: usize> {
    /// Sorted (cell, count) pairs; counts are ≥ 1.
    bins: Vec<([i64; D], u32)>,
    /// Total mass = trajectory length.
    total: u32,
    bin_size: f64,
}

impl<const D: usize> TrajectoryHistogram<D> {
    /// Builds the histogram of `t` with cells of side `eps`.
    pub fn build(t: &Trajectory<D>, eps: MatchThreshold) -> Self {
        Self::with_bin_size(t, eps.value())
    }

    /// Builds the coarse histogram with cells of side `δ·ε` (Theorem 7 /
    /// Corollary 1): δ² fewer bins in 2-d, still a lower bound for
    /// `EDR_ε`.
    pub fn build_coarse(t: &Trajectory<D>, eps: MatchThreshold, delta: u32) -> Self {
        Self::with_bin_size(t, eps.scaled(delta).value())
    }

    /// Builds the histogram with an explicit bin side.
    ///
    /// # Panics
    ///
    /// Panics if `bin_size` is not finite and positive, or any coordinate
    /// of `t` is not finite.
    pub fn with_bin_size(t: &Trajectory<D>, bin_size: f64) -> Self {
        assert!(
            bin_size.is_finite() && bin_size > 0.0,
            "histogram bin size must be finite and positive"
        );
        let mut cells: Vec<[i64; D]> = t
            .iter()
            .map(|p| {
                let mut c = [0i64; D];
                for k in 0..D {
                    assert!(p[k].is_finite(), "histogram input must be finite");
                    c[k] = (p[k] / bin_size).floor() as i64;
                }
                c
            })
            .collect();
        cells.sort_unstable();
        let mut bins: Vec<([i64; D], u32)> = Vec::new();
        for c in cells {
            match bins.last_mut() {
                Some((last, count)) if *last == c => *count += 1,
                _ => bins.push((c, 1)),
            }
        }
        TrajectoryHistogram {
            bins,
            total: t.len() as u32,
            bin_size,
        }
    }

    /// Builds the 1-d histogram of one projected dimension of `t`
    /// (Theorem 8 / Corollary 1: `HD(H^x_R, H^x_S) <= EDR_ε(R, S)`), the
    /// variant the paper calls 1HE.
    pub fn build_projected(
        t: &Trajectory<D>,
        eps: MatchThreshold,
        dim: usize,
    ) -> TrajectoryHistogram<1> {
        assert!(dim < D, "projection dimension out of range");
        TrajectoryHistogram::<1>::with_bin_size(&t.project(dim), eps.value())
    }

    /// The sorted (cell, count) pairs.
    pub fn bins(&self) -> &[([i64; D], u32)] {
        &self.bins
    }

    /// Total element count (the trajectory length).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of distinct non-empty cells.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// The cell side length the histogram was built with.
    pub fn bin_size(&self) -> f64 {
        self.bin_size
    }

    /// Definition 5: two cells approximately match iff they are the same
    /// or adjacent (all cell indices within 1, diagonals included — two
    /// points within ε can differ by one cell in *every* dimension at
    /// once).
    pub fn cells_approx_match(a: &[i64; D], b: &[i64; D]) -> bool {
        (0..D).all(|k| a[k].abs_diff(b[k]) <= 1)
    }

    /// Calls `f` with each cell that approximately matches `cell`
    /// (Definition 5): the up to `3^D` cells within Chebyshev distance 1,
    /// `cell` itself included, dimension 0 varying fastest. An offset
    /// that would leave the `i64` range names no cell and is skipped, so
    /// the extreme cells a tiny bin size produces never wrap around to
    /// the other end of the grid.
    pub fn for_each_neighbour(cell: &[i64; D], mut f: impl FnMut(&[i64; D])) {
        let mut neighbour = [0i64; D];
        'offsets: for mut code in 0..3usize.pow(D as u32) {
            for k in 0..D {
                let Some(c) = cell[k].checked_add((code % 3) as i64 - 1) else {
                    continue 'offsets;
                };
                neighbour[k] = c;
                code /= 3;
            }
            f(&neighbour);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajsim_core::{Trajectory1, Trajectory2};

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    #[test]
    fn counts_per_cell() {
        let t = Trajectory2::from_xy(&[(0.1, 0.1), (0.2, 0.2), (1.5, 0.1), (-0.5, -0.5)]);
        let h = TrajectoryHistogram::build(&t, eps(1.0));
        assert_eq!(h.total(), 4);
        assert_eq!(h.num_bins(), 3);
        let get = |c: [i64; 2]| h.bins().iter().find(|(b, _)| *b == c).map(|&(_, n)| n);
        assert_eq!(get([0, 0]), Some(2));
        assert_eq!(get([1, 0]), Some(1));
        assert_eq!(get([-1, -1]), Some(1));
    }

    #[test]
    fn coarse_bins_merge_cells() {
        let t = Trajectory2::from_xy(&[(0.1, 0.1), (1.5, 1.5), (2.5, 2.5), (3.5, 3.5)]);
        let fine = TrajectoryHistogram::build(&t, eps(1.0));
        let coarse = TrajectoryHistogram::build_coarse(&t, eps(1.0), 2);
        assert!(coarse.num_bins() <= fine.num_bins());
        assert_eq!(coarse.total(), fine.total());
        assert_eq!(coarse.bin_size(), 2.0);
    }

    #[test]
    fn projected_histogram_is_one_dimensional() {
        let t = Trajectory2::from_xy(&[(0.1, 100.0), (0.2, 200.0)]);
        let hx = TrajectoryHistogram::<2>::build_projected(&t, eps(1.0), 0);
        assert_eq!(hx.num_bins(), 1); // both x values in cell 0
        let hy = TrajectoryHistogram::<2>::build_projected(&t, eps(1.0), 1);
        assert_eq!(hy.num_bins(), 2);
    }

    #[test]
    fn empty_trajectory_has_empty_histogram() {
        let h = TrajectoryHistogram::build(&Trajectory1::default(), eps(1.0));
        assert_eq!(h.total(), 0);
        assert_eq!(h.num_bins(), 0);
    }

    #[test]
    fn approx_matching_includes_diagonals() {
        assert!(TrajectoryHistogram::<2>::cells_approx_match(
            &[0, 0],
            &[1, 1]
        ));
        assert!(TrajectoryHistogram::<2>::cells_approx_match(
            &[0, 0],
            &[0, 0]
        ));
        assert!(!TrajectoryHistogram::<2>::cells_approx_match(
            &[0, 0],
            &[2, 0]
        ));
        assert!(!TrajectoryHistogram::<2>::cells_approx_match(
            &[0, 0],
            &[1, -2]
        ));
    }

    #[test]
    fn neighbour_enumeration_covers_the_full_box() {
        let mut seen = Vec::new();
        TrajectoryHistogram::<2>::for_each_neighbour(&[10, -3], |c| seen.push(*c));
        assert_eq!(seen.len(), 9);
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                assert!(seen.contains(&[10 + dx, -3 + dy]));
            }
        }
    }

    #[test]
    fn neighbours_past_the_i64_range_are_skipped() {
        let mut seen = Vec::new();
        TrajectoryHistogram::<2>::for_each_neighbour(&[i64::MAX, i64::MIN], |c| seen.push(*c));
        let mut expected = Vec::new();
        for y in [i64::MIN, i64::MIN + 1] {
            for x in [i64::MAX - 1, i64::MAX] {
                expected.push([x, y]);
            }
        }
        assert_eq!(seen, expected);
        assert!(!TrajectoryHistogram::<1>::cells_approx_match(
            &[i64::MAX],
            &[i64::MIN]
        ));
    }

    #[test]
    fn negative_coordinates_floor_correctly() {
        // -0.5 / 1.0 floors to -1, not 0 (truncation would be wrong: -0.5
        // and 0.5 are within eps but must be in *adjacent* cells, not the
        // same one from rounding toward zero).
        let t = Trajectory1::from_values(&[-0.5, 0.5]);
        let h = TrajectoryHistogram::build(&t, eps(1.0));
        assert_eq!(h.num_bins(), 2);
        let cells: Vec<i64> = h.bins().iter().map(|(c, _)| c[0]).collect();
        assert_eq!(cells, vec![-1, 0]);
    }

    #[test]
    #[should_panic(expected = "bin size")]
    fn zero_bin_size_panics() {
        let t = Trajectory1::from_values(&[0.0]);
        let _ = TrajectoryHistogram::with_bin_size(&t, 0.0);
    }
}
