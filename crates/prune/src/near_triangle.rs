//! Near-triangle-inequality pruning (§4.2, Figure 4, Table 3).

use crate::result::{
    elapsed_ns, finalize_query, KnnEngine, KnnResult, QueryStats, Refine, ResultSet,
};
use std::time::Instant;
use trajsim_core::{Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_distance::{with_workspace, EdrWorkspace, QueryContext};

/// The `NearTrianglePruning` k-NN engine (Figure 4), built on Theorem 5:
///
/// ```text
/// EDR(Q, S) + EDR(S, R) + |S| >= EDR(Q, R)
/// ⇒ EDR(Q, S) >= EDR(Q, R) − EDR(R, S) − |S|
/// ```
///
/// For every *reference trajectory* `R` whose true distance to the query
/// is already known, the right-hand side lower-bounds the candidate's
/// distance; a candidate whose best lower bound exceeds the current k-th
/// distance is skipped. Reference trajectories are the first
/// `max_triangle` candidates whose true distance gets computed, as in the
/// paper's dynamic strategy, drawn from the prefix of the database whose
/// pairwise-distance matrix columns were precomputed (the in-memory
/// stand-in for the paper's disk-resident `pmatrix` columns; the buffer
/// budget `N · maxTriangle` is the same).
///
/// The paper notes — and Table 3 confirms — that this filter is weak: the
/// `|S|` slack term means it "filters only when trajectories have
/// different lengths".
#[derive(Debug)]
pub struct NearTriangleKnn<'a, const D: usize> {
    dataset: &'a Dataset<D>,
    /// Columnar candidate storage for the refine stage.
    arena: TrajectoryArena<D>,
    eps: MatchThreshold,
    max_triangle: usize,
    /// `pmatrix[r][s]` = EDR(db[r], db[s]) for r in the reference pool
    /// `0..max_triangle.min(N)`.
    pmatrix: Vec<Vec<usize>>,
}

impl<'a, const D: usize> NearTriangleKnn<'a, D> {
    /// Precomputes the pairwise-distance rows of the first `max_triangle`
    /// trajectories (the reference pool). O(maxTriangle · N) EDR
    /// computations — done once per database, amortized over all queries,
    /// exactly like the paper's offline `pmatrix`. Rows are computed in
    /// parallel (one task per reference; thread count per
    /// `trajsim-parallel`; one pre-grown EDR workspace per worker).
    pub fn build(dataset: &'a Dataset<D>, eps: MatchThreshold, max_triangle: usize) -> Self {
        let pool = max_triangle.min(dataset.len());
        let arena = TrajectoryArena::from_dataset(dataset);
        let ids: Vec<usize> = (0..pool).collect();
        let pmatrix = trajsim_parallel::par_map_with(
            &ids,
            || EdrWorkspace::with_capacity(arena.max_len()),
            |ws, _, &r| {
                let ctx = QueryContext::new(arena.view(r), eps);
                (0..arena.len())
                    .map(|s| ctx.edr(arena.view(s), ws))
                    .collect::<Vec<usize>>()
            },
        );
        Self::from_pmatrix(dataset, eps, max_triangle, pmatrix)
    }

    /// Builds from an externally computed `pmatrix` (row `r` =
    /// `EDR(db[r], ·)` for `r < max_triangle.min(N)`), so the harness can
    /// parallelize the offline phase.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape is inconsistent with the database.
    pub fn from_pmatrix(
        dataset: &'a Dataset<D>,
        eps: MatchThreshold,
        max_triangle: usize,
        pmatrix: Vec<Vec<usize>>,
    ) -> Self {
        let pool = max_triangle.min(dataset.len());
        assert_eq!(
            pmatrix.len(),
            pool,
            "pmatrix must have one row per reference"
        );
        for row in &pmatrix {
            assert_eq!(row.len(), dataset.len(), "pmatrix row length must be N");
        }
        NearTriangleKnn {
            dataset,
            arena: TrajectoryArena::from_dataset(dataset),
            eps,
            max_triangle,
            pmatrix,
        }
    }

    /// The reference pool size.
    pub fn max_triangle(&self) -> usize {
        self.max_triangle
    }
}

impl<const D: usize> KnnEngine<D> for NearTriangleKnn<'_, D> {
    fn knn(&self, query: &Trajectory<D>, k: usize) -> KnnResult {
        let t_query = Instant::now();
        let mut stats = QueryStats {
            database_size: self.dataset.len(),
            ..Default::default()
        };
        let mut result = ResultSet::new(k);
        let ctx = QueryContext::from_trajectory(query, self.eps);
        // procArray: (reference id, EDR(Q, reference)).
        let mut references: Vec<(usize, usize)> = Vec::new();
        let mut refine = Refine::timed();
        with_workspace(|ws| {
            for (id, s) in self.dataset.iter() {
                let best = result.best_so_far();
                if best != usize::MAX && !references.is_empty() {
                    let t_filter = Instant::now();
                    let lower = references
                        .iter()
                        .map(|&(r, dist_qr)| {
                            dist_qr as i64 - self.pmatrix[r][id] as i64 - s.len() as i64
                        })
                        .max()
                        .expect("non-empty references");
                    stats.timings.triangle.filter_ns += elapsed_ns(t_filter);
                    if lower > best as i64 {
                        stats.pruned_by_triangle += 1;
                        continue;
                    }
                }
                // A reference-pool id needs its exact distance.
                let joins_pool = id < self.pmatrix.len() && references.len() < self.max_triangle;
                let bound = if joins_pool { usize::MAX } else { best };
                let d = refine.step(&ctx, id, self.arena.view(id), bound, &mut result, ws);
                if let (true, Some(d)) = (joins_pool, d) {
                    references.push((id, d));
                }
            }
        });
        stats.add_refine(&refine);
        stats.timings.triangle.candidates_in = stats.database_size;
        stats.timings.triangle.candidates_out = stats.database_size - stats.pruned_by_triangle;
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
        format!("NTR(maxT={})", self.max_triangle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialScan;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajsim_core::Trajectory2;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    fn random_db(seed: u64, n: usize, len_range: (usize, usize)) -> Dataset<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(len_range.0..=len_range.1);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_sequential_scan() {
        let db = random_db(1, 50, (2, 30));
        let query = random_db(2, 1, (2, 30)).trajectories()[0].clone();
        let e = eps(0.5);
        let engine = NearTriangleKnn::build(&db, e, 10);
        let truth = SequentialScan::new(&db, e).knn(&query, 5);
        assert_eq!(engine.knn(&query, 5).distances(), truth.distances());
    }

    #[test]
    fn prunes_on_variable_length_databases() {
        // The bound EDR(Q,R) − EDR(R,S) − |S| is at most EDR(Q,R) − |R|
        // (because EDR(R,S) >= |R| − |S|), so pruning needs references
        // *shorter* than the query that are far from it, plus candidates
        // close to those references while the query has close long
        // neighbours. Build exactly that:
        let line = |base: f64, len: usize| {
            Trajectory2::from_xy(
                &(0..len)
                    .map(|i| (base + i as f64 * 0.1, base))
                    .collect::<Vec<_>>(),
            )
        };
        let mut trajs = Vec::new();
        // 10 short references at location B (far from the query at A).
        for i in 0..10 {
            trajs.push(line(500.0 + i as f64 * 0.01, 4));
        }
        // 5 long trajectories at A: the query's true neighbours.
        for i in 0..5 {
            trajs.push(line(i as f64 * 0.01, 50));
        }
        // 50 short candidates clustered with the references at B.
        for i in 0..50 {
            trajs.push(line(500.0 + i as f64 * 0.01, 4));
        }
        let db = Dataset::new(trajs);
        let query = line(0.0, 50);
        let e = eps(0.5);
        let engine = NearTriangleKnn::build(&db, e, 10);
        let r = engine.knn(&query, 3);
        // Lower bound for a B-cluster candidate: 50 − small − 4 >> best
        // (≈ 0 from the A-cluster neighbours) — most of B gets pruned.
        assert!(
            r.stats.pruned_by_triangle >= 40,
            "expected heavy triangle pruning, got {}",
            r.stats.pruned_by_triangle
        );
        let truth = SequentialScan::new(&db, e).knn(&query, 3);
        assert_eq!(r.distances(), truth.distances());
    }

    #[test]
    fn equal_length_databases_cannot_be_pruned() {
        // §4.2: "if all the trajectories have the same length, applying
        // near triangle inequality will not remove any false candidates"
        // — the lower bound EDR(Q,R) − EDR(R,S) − |S| is at most
        // max(...) − |S| <= 0 < any distance. Verify no pruning happens.
        let db = random_db(4, 40, (12, 12));
        let query = random_db(5, 1, (12, 12)).trajectories()[0].clone();
        let engine = NearTriangleKnn::build(&db, eps(0.5), 20);
        let r = engine.knn(&query, 3);
        assert_eq!(r.stats.pruned_by_triangle, 0);
        assert_eq!(r.stats.edr_computed, 40);
    }

    #[test]
    fn zero_references_degenerates_to_scan() {
        let db = random_db(6, 20, (2, 20));
        let query = db.trajectories()[1].clone();
        let e = eps(0.5);
        let engine = NearTriangleKnn::build(&db, e, 0);
        let truth = SequentialScan::new(&db, e).knn(&query, 4);
        let r = engine.knn(&query, 4);
        assert_eq!(r.distances(), truth.distances());
        assert_eq!(r.stats.edr_computed, 20);
    }

    #[test]
    #[should_panic(expected = "one row per reference")]
    fn bad_pmatrix_shape_panics() {
        let db = random_db(7, 5, (2, 5));
        let _ = NearTriangleKnn::from_pmatrix(&db, eps(0.5), 3, vec![vec![0; 5]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// No false dismissals for arbitrary databases, pool sizes, k.
        #[test]
        fn no_false_dismissals(
            seed in 0u64..1000,
            max_t in 0usize..20,
            k in 1usize..6,
            e in 0.1..2.0f64,
        ) {
            let db = random_db(seed, 25, (1, 18));
            let query = random_db(seed + 31337, 1, (1, 18)).trajectories()[0].clone();
            let e = eps(e);
            let truth = SequentialScan::new(&db, e).knn(&query, k);
            let engine = NearTriangleKnn::build(&db, e, max_t);
            prop_assert_eq!(engine.knn(&query, k).distances(), truth.distances());
        }
    }
}
