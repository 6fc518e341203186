//! The sequential-scan baseline: true EDR against every trajectory.

use crate::batch::{amortize, finish_batch, merge_partials, next_batch_id};
use crate::result::{
    elapsed_ns, finalize_query, finish_query, KnnEngine, KnnResult, Neighbor, QueryStats, Refine,
    ResultSet,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use trajsim_core::{CoordSeq, Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_distance::{with_workspace, BatchContext, EdrWorkspace, QueryContext};

/// The brute-force baseline the paper's speedup ratios are measured
/// against: compute `EDR(Q, S)` for every trajectory `S` and keep the `k`
/// smallest.
///
/// Candidates are walked through a columnar [`TrajectoryArena`] (one
/// contiguous SoA buffer, iterated in layout order) and every distance
/// runs on reused [`EdrWorkspace`] scratch, so after the first few calls
/// the scan performs no heap allocation per candidate.
///
/// By default every distance is a full DP, as in the paper's sequential
/// scan. Two extensions the paper does not use, quantified by the
/// ablation bench:
///
/// - [`SequentialScan::with_early_abandon`] switches the true-distance
///   computation to [`trajsim_distance::edr_within`] with the running
///   k-th-best bound;
/// - [`SequentialScan::with_parallel`] splits a single query's scan over
///   the database across threads (dynamic chunking; a shared atomic
///   best-k bound feeds the early-abandon cutoff across workers; one
///   pre-grown workspace per worker). The neighbor set is guaranteed
///   identical to the serial scan's; with early abandoning,
///   `stats.dp_cells` can vary run-to-run because the shared bound
///   tightens in a thread-dependent order.
#[derive(Debug, Clone)]
pub struct SequentialScan<'a, const D: usize> {
    dataset: &'a Dataset<D>,
    arena: TrajectoryArena<D>,
    eps: MatchThreshold,
    early_abandon: bool,
    parallel: bool,
}

impl<'a, const D: usize> SequentialScan<'a, D> {
    /// A scan over `dataset` with matching threshold `eps`. Packs the
    /// dataset into a columnar arena once, up front.
    pub fn new(dataset: &'a Dataset<D>, eps: MatchThreshold) -> Self {
        SequentialScan {
            dataset,
            arena: TrajectoryArena::from_dataset(dataset),
            eps,
            early_abandon: false,
            parallel: false,
        }
    }

    /// Enables early-abandoning EDR (extension; see type docs).
    #[must_use]
    pub fn with_early_abandon(mut self) -> Self {
        self.early_abandon = true;
        self
    }

    /// Enables the dataset-parallel scan (extension; see type docs).
    #[must_use]
    pub fn with_parallel(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// The matching threshold.
    pub fn eps(&self) -> MatchThreshold {
        self.eps
    }

    /// The columnar candidate storage the scan iterates.
    pub fn arena(&self) -> &TrajectoryArena<D> {
        &self.arena
    }

    /// k-NN for a query in any coordinate layout ([`CoordSeq`]): a point
    /// slice, an [`trajsim_core::ArenaView`], or a prebuilt context. The
    /// query side is transposed once into a [`QueryContext`]; candidates
    /// stream from the arena.
    pub fn knn_coords<Q: CoordSeq<D>>(&self, query: Q, k: usize) -> KnnResult {
        let t_query = Instant::now();
        let ctx = QueryContext::new(query, self.eps);
        let r = if self.parallel && self.dataset.len() > 1 && trajsim_parallel::num_threads() > 1 {
            self.knn_parallel(&ctx, k)
        } else {
            self.knn_serial(&ctx, k)
        };
        finalize_query(
            &self.name(),
            ctx.len(),
            k,
            None,
            t_query,
            r.neighbors,
            r.stats,
        )
    }

    fn knn_serial(&self, ctx: &QueryContext<D>, k: usize) -> KnnResult {
        let mut result = ResultSet::new(k);
        let mut stats = QueryStats {
            database_size: self.dataset.len(),
            ..Default::default()
        };
        // The whole scan is refinement: one stopwatch around the loop
        // keeps the instrumentation overhead at two clock reads per query.
        let t_refine = Instant::now();
        let mut refine = Refine::untimed();
        with_workspace(|ws| {
            for (id, s) in self.arena.views() {
                let bound = self.bound(result.cutoff());
                refine.step(ctx, id, s, bound, &mut result, ws);
            }
        });
        stats.add_refine(&refine);
        stats.timings.refine_ns = elapsed_ns(t_refine);
        KnnResult {
            neighbors: result.into_neighbors(),
            stats,
        }
    }

    /// The refine bound for a candidate: the k-th best seen so far with
    /// early abandoning (anything above it cannot enter the result, so a
    /// cut-off DP suffices), `usize::MAX` — the full DP — without. It is
    /// the cutoff itself, not the pruning engines' `cutoff − 1`: in the
    /// parallel paths the bound is shared across workers, and a candidate
    /// tying it can still belong in the answer ahead of a higher id that
    /// another chunk holds.
    fn bound(&self, best: usize) -> usize {
        if self.early_abandon {
            best
        } else {
            usize::MAX
        }
    }

    /// The dataset-parallel scan. Workers process dynamically dispensed
    /// chunks, each keeping a local top-k; a shared atomic holds the
    /// minimum of the workers' k-th-best distances, which is always an
    /// upper bound of the final k-th distance and therefore a sound
    /// early-abandon cutoff. The union of the local top-k sets contains
    /// the true top-k (each member is in its own chunk's top-k), so the
    /// (dist, id)-sorted merge equals the serial result exactly — serial
    /// tie-breaking is by insertion order, which is ascending id.
    ///
    /// Each worker owns one [`EdrWorkspace`], pre-grown to the largest
    /// query/candidate pair, reused across every candidate it refines.
    fn knn_parallel(&self, ctx: &QueryContext<D>, k: usize) -> KnnResult {
        let n = self.dataset.len();
        let threads = trajsim_parallel::num_threads().min(n.max(1));
        let chunk_len = n.div_ceil(threads * 4).max(k);
        let chunks: Vec<(usize, usize)> = (0..n)
            .step_by(chunk_len)
            .map(|start| (start, (start + chunk_len).min(n)))
            .collect();
        let shared_bound = AtomicUsize::new(usize::MAX);
        let max_pair = self.arena.max_len().max(ctx.len());
        let partials: Vec<(Vec<Neighbor>, Refine, u64)> = trajsim_parallel::par_map_with(
            &chunks,
            || EdrWorkspace::with_capacity(max_pair),
            |ws, _, &(start, end)| {
                let t_chunk = Instant::now();
                let mut local = ResultSet::new(k);
                let mut refine = Refine::untimed();
                for id in start..end {
                    let best = shared_bound.load(Ordering::Relaxed).min(local.cutoff());
                    refine.step(
                        ctx,
                        id,
                        self.arena.view(id),
                        self.bound(best),
                        &mut local,
                        ws,
                    );
                    if self.early_abandon {
                        shared_bound.fetch_min(local.cutoff(), Ordering::Relaxed);
                    }
                }
                (local.into_neighbors(), refine, elapsed_ns(t_chunk))
            },
        );
        let mut stats = QueryStats {
            database_size: n,
            ..Default::default()
        };
        let mut merged: Vec<Neighbor> = Vec::new();
        for (neighbors, refine, busy_ns) in partials {
            merged.extend(neighbors);
            stats.add_refine(&refine);
            // Summed across workers, so it can exceed the query's wall time.
            stats.timings.refine_ns += busy_ns;
        }
        merged.sort_by_key(|nb| (nb.dist, nb.id));
        merged.truncate(k);
        KnnResult {
            neighbors: merged,
            stats,
        }
    }

    /// The shared-work batched scan behind [`KnnEngine::knn_batch`]: one
    /// dataset traversal feeds every query. Workers claim candidate
    /// chunks; for each candidate the columnar arena block is loaded once
    /// and the inner loop runs over the batch's SoA query contexts. With
    /// early abandoning each query's cutoff is the minimum of its shared
    /// cross-worker bound and the worker's local k-th best. Per-query
    /// merges follow the `knn_parallel` argument, so distances equal the
    /// per-query scan's exactly (ids may permute on EA-dropped ties).
    fn knn_batch_scan(&self, queries: &[Trajectory<D>], k: usize) -> Vec<KnnResult> {
        let t_batch = Instant::now();
        let nq = queries.len();
        let n = self.dataset.len();
        let batch = BatchContext::new(queries, self.eps);
        let setup_ns = elapsed_ns(t_batch);
        let threads = trajsim_parallel::num_threads().min(n.max(1));
        let chunk_len = n.div_ceil(threads * 4).max(k).max(1);
        let max_pair = self.arena.max_len().max(batch.max_query_len());
        struct ChunkOut {
            partials: Vec<Vec<Neighbor>>,
            refines: Vec<Refine>,
            busy_ns: u64,
        }
        let chunks: Vec<ChunkOut> = trajsim_parallel::par_chunks(
            n,
            chunk_len,
            || EdrWorkspace::with_capacity(max_pair),
            |ws, range| {
                let t_chunk = Instant::now();
                let mut locals: Vec<ResultSet> = (0..nq).map(|_| ResultSet::new(k)).collect();
                let mut refines = vec![Refine::untimed(); nq];
                for (id, s) in self.arena.views_in(range) {
                    // One arena-block load serves the whole batch.
                    for (qi, ctx) in batch.contexts().iter().enumerate() {
                        let local = &mut locals[qi];
                        let bound = self.bound(batch.bound(qi).min(local.cutoff()));
                        refines[qi].step(ctx, id, s, bound, local, ws);
                        if self.early_abandon {
                            batch.tighten(qi, local.cutoff());
                        }
                    }
                }
                ChunkOut {
                    partials: locals.into_iter().map(ResultSet::into_neighbors).collect(),
                    refines,
                    busy_ns: elapsed_ns(t_chunk),
                }
            },
        );
        let busy_total: u64 = chunks.iter().map(|c| c.busy_ns).sum();
        let wall_ns = elapsed_ns(t_batch);
        let name = self.name();
        let batch_id = next_batch_id();
        let results: Vec<KnnResult> = (0..nq)
            .map(|qi| {
                let mut stats = QueryStats {
                    database_size: n,
                    ..Default::default()
                };
                for c in &chunks {
                    stats.add_refine(&c.refines[qi]);
                }
                stats.timings.setup_ns = amortize(setup_ns, nq, qi);
                // Worker busy time amortized over the batch (see the
                // batch-accounting notes in `crate::batch`).
                stats.timings.refine_ns = amortize(busy_total, nq, qi);
                stats.timings.total_ns = amortize(wall_ns, nq, qi);
                let neighbors = merge_partials(k, chunks.iter().map(|c| c.partials[qi].clone()));
                finish_query(
                    &name,
                    queries[qi].len(),
                    k,
                    Some(batch_id),
                    &neighbors,
                    &mut stats,
                );
                KnnResult { neighbors, stats }
            })
            .collect();
        finish_batch(&name, nq, n as u64, wall_ns);
        results
    }
}

impl<const D: usize> KnnEngine<D> for SequentialScan<'_, D> {
    fn knn(&self, query: &Trajectory<D>, k: usize) -> KnnResult {
        self.knn_coords(query.points(), k)
    }

    fn name(&self) -> String {
        let mut name = String::from("seq-scan");
        if self.early_abandon {
            name.push_str("(EA)");
        }
        if self.parallel {
            name.push_str("(par)");
        }
        name
    }

    fn knn_batch(&self, queries: &[Trajectory<D>], k: usize) -> Vec<KnnResult>
    where
        Self: Sync,
    {
        if queries.len() <= 1 {
            return trajsim_parallel::par_map(queries, |_, q| self.knn(q, k));
        }
        self.knn_batch_scan(queries, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageStats;
    use trajsim_core::Trajectory2;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    fn db() -> Dataset<2> {
        Dataset::new(vec![
            Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]),
            Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (9.0, 9.0)]),
            Trajectory2::from_xy(&[(50.0, 50.0), (51.0, 51.0), (52.0, 52.0)]),
            Trajectory2::from_xy(&[(0.1, 0.1), (1.1, 1.1), (2.1, 2.1)]),
        ])
    }

    #[test]
    fn finds_the_nearest_neighbours_in_order() {
        let data = db();
        let q = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let scan = SequentialScan::new(&data, eps(0.25));
        let r = scan.knn(&q, 3);
        assert_eq!(r.distances(), vec![0, 0, 1]);
        assert_eq!(r.neighbors[0].id, 0);
        assert_eq!(r.neighbors[1].id, 3); // matches within eps=0.25
        assert_eq!(r.neighbors[2].id, 1); // one noisy extra element
        assert_eq!(r.stats.edr_computed, 4);
        assert_eq!(r.stats.pruning_power(), 0.0);
    }

    #[test]
    fn k_larger_than_database_returns_everything() {
        let data = db();
        let q = Trajectory2::from_xy(&[(0.0, 0.0)]);
        let scan = SequentialScan::new(&data, eps(0.25));
        let r = scan.knn(&q, 10);
        assert_eq!(r.neighbors.len(), 4);
    }

    #[test]
    fn early_abandon_gives_identical_distances() {
        let data = db();
        let q = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.5, 2.5)]);
        let plain = SequentialScan::new(&data, eps(0.25)).knn(&q, 2);
        let fast = SequentialScan::new(&data, eps(0.25))
            .with_early_abandon()
            .knn(&q, 2);
        assert_eq!(plain.distances(), fast.distances());
    }

    #[test]
    fn parallel_scan_returns_identical_neighbors() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let data: Dataset<2> = (0..60)
            .map(|_| {
                let len = rng.gen_range(1..=20usize);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        // Query straight from a columnar arena view — no clone of the
        // stored trajectory, exercising the layout-generic query path.
        let arena = TrajectoryArena::from_dataset(&data);
        let q = arena.view(7);
        let e = eps(0.6);
        // Force multiple workers even on a single-core container so the
        // parallel code path actually runs.
        trajsim_parallel::set_num_threads(4);
        for k in [1, 3, 10] {
            let serial = SequentialScan::new(&data, e).knn_coords(q, k);
            let par = SequentialScan::new(&data, e)
                .with_parallel()
                .knn_coords(q, k);
            assert_eq!(par.neighbors, serial.neighbors, "k={k}");
            assert_eq!(par.stats.edr_computed, serial.stats.edr_computed);
            assert_eq!(par.stats.dp_cells, serial.stats.dp_cells);
            let serial_ea = SequentialScan::new(&data, e)
                .with_early_abandon()
                .knn_coords(q, k);
            let par_ea = SequentialScan::new(&data, e)
                .with_early_abandon()
                .with_parallel()
                .knn_coords(q, k);
            // Early abandoning never changes the answer, only the work.
            assert_eq!(par_ea.neighbors, serial_ea.neighbors, "EA k={k}");
        }
        trajsim_parallel::set_num_threads(0);
    }

    #[test]
    fn arena_view_query_matches_cloned_trajectory_query() {
        let data = db();
        let scan = SequentialScan::new(&data, eps(0.25));
        let by_clone = scan.knn(&data.trajectories()[1].clone(), 3);
        let by_view = scan.knn_coords(scan.arena().view(1), 3);
        assert_eq!(by_view.neighbors, by_clone.neighbors);
        assert_eq!(by_view.stats.dp_cells, by_clone.stats.dp_cells);
    }

    #[test]
    fn stage_timings_cover_the_scan() {
        let data = db();
        let q = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
        let r = SequentialScan::new(&data, eps(0.25)).knn(&q, 2);
        let t = r.stats.timings;
        assert!(t.total_ns > 0);
        assert!(t.refine_ns > 0);
        assert!(t.refine_ns <= t.total_ns, "serial refine is wall-clocked");
        // A pure scan has no filter stages.
        assert_eq!(t.setup_ns, 0);
        assert_eq!(t.histogram, StageStats::default());
        assert_eq!(t.qgram, StageStats::default());
        assert_eq!(t.triangle, StageStats::default());
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let data: Dataset<2> = Dataset::default();
        let q = Trajectory2::from_xy(&[(0.0, 0.0)]);
        let r = SequentialScan::new(&data, eps(1.0)).knn(&q, 5);
        assert!(r.neighbors.is_empty());
        assert_eq!(r.stats.database_size, 0);
    }
}
