//! Constant Shift Embedding (CSE) — the alternative the paper examines
//! and *rejects* in §4.2.
//!
//! CSE \[30\] converts a non-metric distance into a metric by adding a
//! constant `c` to every pairwise value; `dist'(x, y) = dist(x, y) + c`
//! satisfies the triangle inequality once `c` is at least the largest
//! triangle violation. The paper rejects it because (1) the constant
//! derived from the data is so large that the resulting lower bound
//! `dist(x, z) − dist(y, z) − c` "is too small to prune anything", and
//! (2) a `c` derived from the database only may not cover queries from
//! outside it, silently re-introducing false dismissals.
//!
//! This module reproduces that analysis as an ablation. Where the paper
//! sets `c` to the minimum eigenvalue of the pairwise matrix, we compute
//! the *smallest sound constant directly* — the maximum triangle violation
//! over all database triples — which is the tightest `c` CSE could ever
//! hope for, so our ablation is an upper bound on CSE's usefulness (and it
//! still prunes essentially nothing; see the `cse_ablation` bench).

use crate::result::{
    elapsed_ns, finalize_query, KnnEngine, KnnResult, QueryStats, Refine, ResultSet,
};
use std::time::Instant;
use trajsim_core::{Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_distance::{with_workspace, EdrWorkspace, QueryContext};

/// The smallest constant that makes `dist + c` obey the triangle
/// inequality on the given symmetric pairwise matrix: the maximum of
/// `dist(x, z) − dist(x, y) − dist(y, z)` over all triples (0 if the
/// distance is already metric on this data).
///
/// O(N³); intended for the moderate N of the ablation data sets.
pub fn cse_constant(matrix: &[Vec<usize>]) -> i64 {
    let n = matrix.len();
    let mut worst = 0i64;
    for (x, row_x) in matrix.iter().enumerate() {
        debug_assert_eq!(row_x.len(), n, "matrix must be square");
        for (y, row_y) in matrix.iter().enumerate() {
            if y == x {
                continue;
            }
            let dxy = row_x[y] as i64;
            for z in (x + 1)..n {
                if z == y {
                    continue;
                }
                let violation = row_x[z] as i64 - dxy - row_y[z] as i64;
                worst = worst.max(violation);
            }
        }
    }
    worst
}

/// Computes the full pairwise EDR matrix of a database (the offline input
/// to [`cse_constant`]). Row `i`'s pairs `(i, j > i)` are one
/// `trajsim-parallel` task, with one pre-grown workspace per worker and
/// each entry from [`QueryContext::edr_banded`] under `usize::MAX`; the
/// lower triangle mirrors them.
pub fn pairwise_edr_matrix<const D: usize>(
    dataset: &Dataset<D>,
    eps: MatchThreshold,
) -> Vec<Vec<usize>> {
    let n = dataset.len();
    let arena = TrajectoryArena::from_dataset(dataset);
    let ids: Vec<usize> = (0..n).collect();
    let upper: Vec<Vec<usize>> = trajsim_parallel::par_map_with(
        &ids,
        || EdrWorkspace::with_capacity(arena.max_len()),
        |ws, _, &i| {
            let ctx = QueryContext::new(arena.view(i), eps);
            ((i + 1)..n)
                .map(|j| {
                    ctx.edr_banded(arena.view(j), usize::MAX, ws)
                        .expect("an unbounded band never abandons")
                })
                .collect()
        },
    );
    let mut m = vec![vec![0usize; n]; n];
    for (i, row) in upper.into_iter().enumerate() {
        for (j, d) in ((i + 1)..n).zip(row) {
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    m
}

/// A k-NN engine pruning with the CSE'd triangle inequality:
/// `EDR(Q, S) >= EDR(Q, R) − EDR(R, S) − c`.
///
/// **Ablation only.** The bound is sound exactly when `c` covers every
/// triangle violation *including those involving the query*; a `c`
/// computed from the database alone (all this engine can do) does not
/// guarantee that for out-of-database queries — the paper's second
/// objection. The `cse_ablation` bench measures both the pruning power
/// (≈ 0) and the observed false-dismissal rate.
#[derive(Debug)]
pub struct CseKnn<'a, const D: usize> {
    dataset: &'a Dataset<D>,
    /// Columnar candidate storage for the refine stage.
    arena: TrajectoryArena<D>,
    eps: MatchThreshold,
    max_references: usize,
    constant: i64,
    /// Reference rows of the pairwise matrix, as in
    /// the near-triangle configuration of [`crate::CombinedKnn`].
    pmatrix: Vec<Vec<usize>>,
}

impl<'a, const D: usize> CseKnn<'a, D> {
    /// Builds the engine: computes the reference rows and, from the *full*
    /// pairwise matrix, the tightest sound constant.
    pub fn build(dataset: &'a Dataset<D>, eps: MatchThreshold, max_references: usize) -> Self {
        let full = pairwise_edr_matrix(dataset, eps);
        Self::from_matrix(dataset, eps, max_references, full)
    }

    /// Builds from an externally computed full pairwise matrix (so the
    /// harness can parallelize the offline phase).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not N×N.
    pub fn from_matrix(
        dataset: &'a Dataset<D>,
        eps: MatchThreshold,
        max_references: usize,
        full: Vec<Vec<usize>>,
    ) -> Self {
        assert_eq!(full.len(), dataset.len(), "matrix must be N x N");
        for row in &full {
            assert_eq!(row.len(), dataset.len(), "matrix must be N x N");
        }
        let constant = cse_constant(&full);
        let pool = max_references.min(dataset.len());
        let pmatrix = full.into_iter().take(pool).collect();
        CseKnn {
            dataset,
            arena: TrajectoryArena::from_dataset(dataset),
            eps,
            max_references,
            constant,
            pmatrix,
        }
    }

    /// The CSE constant in use.
    pub fn constant(&self) -> i64 {
        self.constant
    }
}

impl<const D: usize> KnnEngine<D> for CseKnn<'_, D> {
    fn knn(&self, query: &Trajectory<D>, k: usize) -> KnnResult {
        let t_query = Instant::now();
        let mut stats = QueryStats {
            database_size: self.dataset.len(),
            ..Default::default()
        };
        let mut result = ResultSet::new(k);
        let ctx = QueryContext::from_trajectory(query, self.eps);
        let mut references: Vec<(usize, usize)> = Vec::new();
        let mut refine = Refine::timed();
        // Every candidate enters the triangle stage; the dismissed stay in it.
        stats.timings.triangle.candidates_in = stats.database_size;
        stats.timings.triangle.candidates_out = stats.database_size;
        with_workspace(|ws| {
            for (id, _) in self.dataset.iter() {
                let cutoff = result.cutoff();
                if cutoff != usize::MAX && !references.is_empty() {
                    // CSE is a triangle-style reference bound; its work is
                    // charged to the triangle stage.
                    let t_filter = Instant::now();
                    let lower = references
                        .iter()
                        .map(|&(r, dist_qr)| {
                            dist_qr as i64 - self.pmatrix[r][id] as i64 - self.constant
                        })
                        .max()
                        .expect("non-empty references");
                    stats.timings.triangle.filter_ns += elapsed_ns(t_filter);
                    if lower >= cutoff as i64 {
                        stats.timings.triangle.candidates_out -= 1;
                        continue;
                    }
                }
                // A reference-pool id needs its exact distance.
                let joins_pool = id < self.pmatrix.len() && references.len() < self.max_references;
                let bound = if joins_pool {
                    usize::MAX
                } else {
                    result.admission_bound()
                };
                let d = refine.step(&ctx, id, self.arena.view(id), bound, &mut result, ws);
                if let (true, Some(d)) = (joins_pool, d) {
                    references.push((id, d));
                }
            }
        });
        stats.add_refine(&refine);
        finalize_query(
            &self.name(),
            query.len(),
            k,
            None,
            t_query,
            result.into_neighbors(),
            stats,
        )
    }

    fn name(&self) -> String {
        format!("CSE(c={})", self.constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajsim_core::Trajectory2;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    #[test]
    fn constant_is_zero_for_metric_data() {
        // A matrix that already satisfies the triangle inequality.
        let m = vec![vec![0, 1, 2], vec![1, 0, 1], vec![2, 1, 0]];
        assert_eq!(cse_constant(&m), 0);
    }

    #[test]
    fn constant_covers_the_worst_violation() {
        // d(0,2) = 10 but d(0,1) + d(1,2) = 2: violation 8.
        let m = vec![vec![0, 1, 10], vec![1, 0, 1], vec![10, 1, 0]];
        assert_eq!(cse_constant(&m), 8);
    }

    #[test]
    fn edr_matrix_produces_violations_that_c_covers() {
        let mut rng = StdRng::seed_from_u64(11);
        let db: Dataset<2> = (0..15)
            .map(|_| {
                let len = rng.gen_range(2..12);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let m = pairwise_edr_matrix(&db, eps(1.0));
        let c = cse_constant(&m);
        // After shifting, every triple obeys the triangle inequality.
        let n = m.len();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    if x == y || y == z || x == z {
                        continue;
                    }
                    assert!(
                        m[x][z] as i64 <= m[x][y] as i64 + m[y][z] as i64 + c,
                        "violation survives at ({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn pairwise_edr_matrix_entries_are_true_distances() {
        // Lengths on either side of the 64-point word boundaries, and a
        // first row longer than every other trajectory.
        let mut rng = StdRng::seed_from_u64(13);
        let db: Dataset<2> = [140usize, 1, 64, 65, 2, 63, 129, 1, 30, 65]
            .iter()
            .map(|&len| {
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let e = eps(1.0);
        let m = pairwise_edr_matrix(&db, e);
        let t = db.trajectories();
        assert_eq!(m.len(), db.len());
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row.len(), db.len());
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(
                    d,
                    trajsim_distance::edr_naive(&t[i], &t[j], e),
                    "m[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn in_database_queries_are_answered_exactly() {
        // For queries drawn from the database, c covers all triangles the
        // bound ever uses, so CSE is exact there.
        let mut rng = StdRng::seed_from_u64(12);
        let db: Dataset<2> = (0..20)
            .map(|_| {
                let len = rng.gen_range(2..15);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let e = eps(0.8);
        let engine = CseKnn::build(&db, e, 10);
        for qid in [0usize, 7, 19] {
            let q = db.trajectories()[qid].clone();
            let truth = SequentialScan::new(&db, e).knn(&q, 4);
            assert_eq!(engine.knn(&q, 4).distances(), truth.distances());
        }
    }
}
