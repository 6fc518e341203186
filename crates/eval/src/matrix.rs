//! Symmetric pairwise distance matrices.

use trajsim_core::{Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_distance::{EdrWorkspace, QueryContext, TrajectoryMeasure};

/// A symmetric pairwise distance matrix over `n` items, stored as the
/// strict lower triangle in one flat buffer (the Performance Book's
/// flatten-your-nested-vecs advice; also halves memory).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    // Entry (i, j) with i > j lives at tri_index(i, j).
    lower: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes the full pairwise matrix of `measure` over `data` with one
    /// parallel task per matrix row (thread count per `trajsim-parallel`;
    /// the dynamic chunking evens out the triangle's skewed row lengths).
    pub fn compute<const D: usize, M: TrajectoryMeasure<D> + ?Sized + Sync>(
        data: &Dataset<D>,
        measure: &M,
    ) -> Self {
        Self::from_trajectories(data.trajectories(), measure)
    }

    /// Computes the EDR pairwise matrix through the allocation-free
    /// refine path: candidates live in a [`TrajectoryArena`] and are
    /// visited in layout order, the row trajectory is embedded once per
    /// row as a [`QueryContext`] (each entry is
    /// [`QueryContext::edr_banded`] under `usize::MAX`, match words from
    /// the row's rank masks), and each worker reuses one pre-grown
    /// [`EdrWorkspace`] across all of its rows.
    pub fn edr_from_dataset<const D: usize>(data: &Dataset<D>, eps: MatchThreshold) -> Self {
        let n = data.len();
        let arena = TrajectoryArena::from_dataset(data);
        let row_ids: Vec<usize> = (1..n).collect();
        let rows: Vec<Vec<f64>> = trajsim_parallel::par_map_with(
            &row_ids,
            || EdrWorkspace::with_capacity(arena.max_len()),
            |ws, _, &i| {
                let ctx = QueryContext::new(arena.view(i), eps);
                (0..i)
                    .map(|j| {
                        ctx.edr_banded(arena.view(j), usize::MAX, ws)
                            .expect("an unbounded band never abandons")
                            as f64
                    })
                    .collect()
            },
        );
        DistanceMatrix {
            n,
            lower: rows.concat(),
        }
    }

    /// Computes the matrix from an arbitrary symmetric distance closure
    /// (called only for `i > j`), serially.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut dist: F) -> Self {
        let mut lower = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        for i in 1..n {
            for j in 0..i {
                lower.push(dist(i, j));
            }
        }
        DistanceMatrix { n, lower }
    }

    /// Computes the matrix over a slice of trajectories (parallel; see
    /// [`DistanceMatrix::compute`]).
    pub fn from_trajectories<const D: usize, M: TrajectoryMeasure<D> + ?Sized + Sync>(
        trajectories: &[Trajectory<D>],
        measure: &M,
    ) -> Self {
        let n = trajectories.len();
        // Row i of the strict lower triangle is (i, 0..i) — contiguous in
        // the flat buffer, so parallel rows concatenate back losslessly.
        let rows: Vec<Vec<f64>> = trajsim_parallel::par_for_map(n.saturating_sub(1), |r| {
            let i = r + 1;
            (0..i)
                .map(|j| measure.distance(&trajectories[i], &trajectories[j]))
                .collect()
        });
        DistanceMatrix {
            n,
            lower: rows.concat(),
        }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the matrix covers no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance between items `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `j >= n`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.lower[Self::tri_index(i, j)],
            std::cmp::Ordering::Less => self.lower[Self::tri_index(j, i)],
        }
    }

    #[inline]
    fn tri_index(i: usize, j: usize) -> usize {
        debug_assert!(i > j);
        i * (i - 1) / 2 + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajsim_core::{MatchThreshold, Trajectory2};
    use trajsim_distance::Measure;

    #[test]
    fn from_fn_is_symmetric_with_zero_diagonal() {
        let m = DistanceMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.get(1, 2), 21.0);
    }

    #[test]
    fn computes_real_distances() {
        let data = Dataset::new(vec![
            Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]),
            Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]),
            Trajectory2::from_xy(&[(5.0, 5.0), (9.0, 9.0)]),
        ]);
        let eps = MatchThreshold::new(0.5).unwrap();
        let m = DistanceMatrix::compute(&data, &Measure::Edr { eps });
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
    }

    #[test]
    fn edr_from_dataset_matches_the_generic_path() {
        let data = Dataset::new(vec![
            Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]),
            Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]),
            Trajectory2::from_xy(&[(5.0, 5.0), (9.0, 9.0)]),
            Trajectory2::from_xy(&[]),
        ]);
        let eps = MatchThreshold::new(0.5).unwrap();
        let generic = DistanceMatrix::compute(&data, &Measure::Edr { eps });
        let arena = DistanceMatrix::edr_from_dataset(&data, eps);
        assert_eq!(arena, generic);
    }

    #[test]
    fn edr_from_dataset_entries_are_true_distances() {
        // Lengths on either side of the 64-point word boundaries, an
        // empty trajectory, and a last row longer than every other one.
        let mut rng = StdRng::seed_from_u64(17);
        let data: Dataset<2> = [1usize, 64, 65, 0, 2, 63, 129, 1, 30, 65, 140]
            .iter()
            .map(|&len| {
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let eps = MatchThreshold::new(1.0).unwrap();
        let m = DistanceMatrix::edr_from_dataset(&data, eps);
        let t = data.trajectories();
        for (i, a) in t.iter().enumerate() {
            for (j, b) in t.iter().enumerate() {
                let want = trajsim_distance::edr_naive(a, b, eps) as f64;
                assert_eq!(m.get(i, j), want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let m = DistanceMatrix::from_fn(0, |_, _| unreachable!());
        assert!(m.is_empty());
        let m = DistanceMatrix::from_fn(1, |_, _| unreachable!());
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = DistanceMatrix::from_fn(2, |_, _| 1.0);
        let _ = m.get(0, 2);
    }
}
