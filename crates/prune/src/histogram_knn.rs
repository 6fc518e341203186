//! Histogram-distance pruning (§4.3, Figures 9–10).

use crate::result::{
    elapsed_ns, finalize_query, KnnEngine, KnnResult, QueryStats, Refine, ResultSet,
};
use std::time::Instant;
use trajsim_core::{Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_distance::{with_workspace, QueryContext};
use trajsim_histogram::{histogram_distance, histogram_distance_quick, TrajectoryHistogram};

/// Which histogram embedding the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramVariant {
    /// Full `D`-dimensional trajectory histograms with bin size `δ·ε`
    /// (δ = 1 is the paper's 2HE; δ = 2..4 are 2H2E..2H4E, the
    /// fewer-bins/weaker-bound trade-off of Theorem 7).
    Grid {
        /// The bin-size multiplier δ (≥ 1).
        delta: u32,
    },
    /// One histogram per projected dimension with bin size ε (the paper's
    /// 1HE, Theorem 8). The lower bound is the *maximum* of the
    /// per-dimension histogram distances — each is individually a lower
    /// bound of EDR, so their max is a tighter sound bound.
    PerDimension,
}

/// How candidates are visited (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// **HSE**: database order; each candidate's histogram distance is
    /// compared against the current best-so-far.
    Sequential,
    /// **HSR**: compute all histogram distances first, then visit in
    /// ascending lower-bound order — once a lower bound exceeds
    /// best-so-far, *everything* after it is pruned in one step.
    Sorted,
}

#[derive(Debug)]
enum Built<const D: usize> {
    Grid(Vec<TrajectoryHistogram<D>>),
    PerDim(Vec<Vec<TrajectoryHistogram<1>>>),
}

/// The histogram k-NN engine: prunes candidates whose histogram-distance
/// lower bound (Theorem 6 / Corollary 1) already exceeds the current k-th
/// best EDR.
#[derive(Debug)]
pub struct HistogramKnn<'a, const D: usize> {
    dataset: &'a Dataset<D>,
    /// Columnar candidate storage for the refine stage.
    arena: TrajectoryArena<D>,
    eps: MatchThreshold,
    variant: HistogramVariant,
    mode: ScanMode,
    built: Built<D>,
}

impl<'a, const D: usize> HistogramKnn<'a, D> {
    /// Builds the per-trajectory histograms for `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is zero (histogram cells need positive size) or
    /// `delta == 0`.
    pub fn build(
        dataset: &'a Dataset<D>,
        eps: MatchThreshold,
        variant: HistogramVariant,
        mode: ScanMode,
    ) -> Self {
        assert!(
            eps.value() > 0.0,
            "histogram pruning needs a positive epsilon"
        );
        let built = match variant {
            HistogramVariant::Grid { delta } => {
                assert!(delta >= 1, "bin-size multiplier must be at least 1");
                Built::Grid(
                    dataset
                        .iter()
                        .map(|(_, t)| TrajectoryHistogram::build_coarse(t, eps, delta))
                        .collect(),
                )
            }
            HistogramVariant::PerDimension => Built::PerDim(
                dataset
                    .iter()
                    .map(|(_, t)| {
                        (0..D)
                            .map(|dim| TrajectoryHistogram::<D>::build_projected(t, eps, dim))
                            .collect()
                    })
                    .collect(),
            ),
        };
        HistogramKnn {
            dataset,
            arena: TrajectoryArena::from_dataset(dataset),
            eps,
            variant,
            mode,
            built,
        }
    }

    /// The cheap linear histogram lower bound (neighbourhood-capacity
    /// form) between the (pre-embedded) query and trajectory `id`.
    fn quick_bound(&self, query: &QueryHistograms<D>, id: usize) -> usize {
        match (&self.built, query) {
            (Built::Grid(hists), QueryHistograms::Grid(qh)) => {
                histogram_distance_quick(qh, &hists[id])
            }
            (Built::PerDim(hists), QueryHistograms::PerDim(qh)) => qh
                .iter()
                .zip(&hists[id])
                .map(|(a, b)| histogram_distance_quick(a, b))
                .max()
                .unwrap_or(0),
            _ => unreachable!("query embedded with the engine's own variant"),
        }
    }

    /// The exact (max-flow) histogram lower bound, run only when the quick
    /// bound fails to prune.
    fn exact_bound(&self, query: &QueryHistograms<D>, id: usize) -> usize {
        match (&self.built, query) {
            (Built::Grid(hists), QueryHistograms::Grid(qh)) => histogram_distance(qh, &hists[id]),
            (Built::PerDim(hists), QueryHistograms::PerDim(qh)) => qh
                .iter()
                .zip(&hists[id])
                .map(|(a, b)| histogram_distance(a, b))
                .max()
                .unwrap_or(0),
            _ => unreachable!("query embedded with the engine's own variant"),
        }
    }

    fn embed_query(&self, query: &Trajectory<D>) -> QueryHistograms<D> {
        match self.variant {
            HistogramVariant::Grid { delta } => {
                QueryHistograms::Grid(TrajectoryHistogram::build_coarse(query, self.eps, delta))
            }
            HistogramVariant::PerDimension => QueryHistograms::PerDim(
                (0..D)
                    .map(|dim| TrajectoryHistogram::<D>::build_projected(query, self.eps, dim))
                    .collect(),
            ),
        }
    }
}

enum QueryHistograms<const D: usize> {
    Grid(TrajectoryHistogram<D>),
    PerDim(Vec<TrajectoryHistogram<1>>),
}

impl<const D: usize> KnnEngine<D> for HistogramKnn<'_, D> {
    fn knn(&self, query: &Trajectory<D>, k: usize) -> KnnResult {
        let t_query = Instant::now();
        let qh = self.embed_query(query);
        let mut stats = QueryStats {
            database_size: self.dataset.len(),
            ..Default::default()
        };
        stats.timings.setup_ns = elapsed_ns(t_query);
        let mut result = ResultSet::new(k);
        let ctx = QueryContext::from_trajectory(query, self.eps);
        let mut refine = Refine::timed();
        with_workspace(|ws| match self.mode {
            ScanMode::Sequential => {
                for id in 0..self.dataset.len() {
                    let best = result.best_so_far();
                    if best != usize::MAX {
                        let t_filter = Instant::now();
                        let pruned =
                            self.quick_bound(&qh, id) > best || self.exact_bound(&qh, id) > best;
                        stats.timings.histogram.filter_ns += elapsed_ns(t_filter);
                        if pruned {
                            stats.pruned_by_histogram += 1;
                            continue;
                        }
                    }
                    refine.step(&ctx, id, self.arena.view(id), best, &mut result, ws);
                }
            }
            ScanMode::Sorted => {
                // Sort by the cheap bound; refine survivors with the exact
                // one. Both are sound EDR lower bounds, so the break-out
                // over the sorted cheap bounds dismisses nothing falsely.
                let t_filter = Instant::now();
                let mut bounds: Vec<(usize, usize)> = (0..self.dataset.len())
                    .map(|id| (self.quick_bound(&qh, id), id))
                    .collect();
                bounds.sort_unstable();
                stats.timings.histogram.filter_ns += elapsed_ns(t_filter);
                for (rank, &(quick_lb, id)) in bounds.iter().enumerate() {
                    let best = result.best_so_far();
                    if best != usize::MAX {
                        if quick_lb > best {
                            // Every remaining quick bound is >= this one.
                            stats.pruned_by_histogram += bounds.len() - rank;
                            break;
                        }
                        let t_filter = Instant::now();
                        let pruned = self.exact_bound(&qh, id) > best;
                        stats.timings.histogram.filter_ns += elapsed_ns(t_filter);
                        if pruned {
                            stats.pruned_by_histogram += 1;
                            continue;
                        }
                    }
                    refine.step(&ctx, id, self.arena.view(id), best, &mut result, ws);
                }
            }
        });
        stats.add_refine(&refine);
        stats.timings.histogram.candidates_in = stats.database_size;
        stats.timings.histogram.candidates_out = stats.database_size - stats.pruned_by_histogram;
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
        let v = match self.variant {
            HistogramVariant::Grid { delta: 1 } => "2HE".to_string(),
            HistogramVariant::Grid { delta } => format!("2H{delta}E"),
            HistogramVariant::PerDimension => "1HE".to_string(),
        };
        let m = match self.mode {
            ScanMode::Sequential => "HSE",
            ScanMode::Sorted => "HSR",
        };
        format!("{v}-{m}")
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

    fn random_db(seed: u64, n: usize, max_len: usize) -> Dataset<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=max_len);
                let mut x = rng.gen_range(-3.0..3.0);
                let mut y = rng.gen_range(-3.0..3.0);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| {
                            x += rng.gen_range(-0.8..0.8);
                            y += rng.gen_range(-0.8..0.8);
                            (x, y)
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn all_configs() -> Vec<(HistogramVariant, ScanMode)> {
        let mut out = Vec::new();
        for mode in [ScanMode::Sequential, ScanMode::Sorted] {
            for delta in 1..=4 {
                out.push((HistogramVariant::Grid { delta }, mode));
            }
            out.push((HistogramVariant::PerDimension, mode));
        }
        out
    }

    #[test]
    fn every_configuration_matches_sequential_scan() {
        let db = random_db(1, 50, 18);
        let query = random_db(2, 1, 18).trajectories()[0].clone();
        let e = eps(0.7);
        let truth = SequentialScan::new(&db, e).knn(&query, 5);
        for (variant, mode) in all_configs() {
            let engine = HistogramKnn::build(&db, e, variant, mode);
            assert_eq!(
                engine.knn(&query, 5).distances(),
                truth.distances(),
                "{} diverged",
                engine.name()
            );
        }
    }

    #[test]
    fn sorted_scan_prunes_at_least_as_much_as_sequential() {
        let db = random_db(3, 80, 20);
        let query = db.trajectories()[5].clone();
        let e = eps(0.5);
        let hse = HistogramKnn::build(
            &db,
            e,
            HistogramVariant::Grid { delta: 1 },
            ScanMode::Sequential,
        );
        let hsr = HistogramKnn::build(
            &db,
            e,
            HistogramVariant::Grid { delta: 1 },
            ScanMode::Sorted,
        );
        let (a, b) = (hse.knn(&query, 5), hsr.knn(&query, 5));
        assert_eq!(a.distances(), b.distances());
        assert!(
            b.stats.pruning_power() >= a.stats.pruning_power(),
            "HSR {} < HSE {}",
            b.stats.pruning_power(),
            a.stats.pruning_power()
        );
    }

    #[test]
    fn finer_bins_prune_at_least_as_much_as_coarse() {
        let db = random_db(4, 80, 20);
        let query = db.trajectories()[7].clone();
        let e = eps(0.5);
        let fine = HistogramKnn::build(
            &db,
            e,
            HistogramVariant::Grid { delta: 1 },
            ScanMode::Sorted,
        )
        .knn(&query, 5);
        let coarse = HistogramKnn::build(
            &db,
            e,
            HistogramVariant::Grid { delta: 4 },
            ScanMode::Sorted,
        )
        .knn(&query, 5);
        assert_eq!(fine.distances(), coarse.distances());
        assert!(fine.stats.pruning_power() >= coarse.stats.pruning_power());
    }

    #[test]
    fn names_follow_paper_labels() {
        let db = random_db(5, 3, 5);
        let e = eps(0.5);
        let mk = |v, m| HistogramKnn::build(&db, e, v, m).name();
        assert_eq!(
            mk(HistogramVariant::Grid { delta: 1 }, ScanMode::Sorted),
            "2HE-HSR"
        );
        assert_eq!(
            mk(HistogramVariant::Grid { delta: 3 }, ScanMode::Sequential),
            "2H3E-HSE"
        );
        assert_eq!(
            mk(HistogramVariant::PerDimension, ScanMode::Sorted),
            "1HE-HSR"
        );
    }

    #[test]
    #[should_panic(expected = "positive epsilon")]
    fn zero_epsilon_panics() {
        let db = random_db(6, 3, 5);
        let _ = HistogramKnn::build(
            &db,
            eps(0.0),
            HistogramVariant::Grid { delta: 1 },
            ScanMode::Sorted,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// No false dismissals across variants, modes, seeds, and k.
        #[test]
        fn no_false_dismissals(
            seed in 0u64..1000,
            k in 1usize..6,
            e in 0.2..2.0f64,
        ) {
            let db = random_db(seed, 25, 14);
            let query = random_db(seed + 555, 1, 14).trajectories()[0].clone();
            let e = eps(e);
            let truth = SequentialScan::new(&db, e).knn(&query, k);
            for (variant, mode) in all_configs() {
                let engine = HistogramKnn::build(&db, e, variant, mode);
                prop_assert_eq!(
                    engine.knn(&query, k).distances(),
                    truth.distances(),
                    "{} k {}", engine.name(), k
                );
            }
        }
    }
}
