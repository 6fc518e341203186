//! Mean-value Q-gram pruning (§4.1): the four implementation variants
//! compared in Figures 7–8.

use crate::result::{
    elapsed_ns, finalize_query, KnnEngine, KnnResult, QueryStats, Refine, ResultSet,
};
use std::time::Instant;
use trajsim_core::{Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_distance::{with_workspace, QueryContext};
use trajsim_index::{Aabb, BPlusTree, RStarTree};
use trajsim_qgram::{
    mean_value_qgrams, mean_value_qgrams_1d, min_common_qgrams, passes_count_filter, SortedMeans,
    SortedMeans1d,
};

/// How matching q-gram counts are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QgramVariant {
    /// **PR**: an R*-tree over the `D`-dimensional mean value pairs; one
    /// standard range search per query q-gram (Figure 3).
    IndexedRtree,
    /// **PB**: a B+-tree over the 1-d projected means of dimension `dim`
    /// (Theorems 2 + 4).
    IndexedBtree {
        /// The projected dimension whose means are indexed.
        dim: usize,
    },
    /// **PS2**: sort-merge ε-join on `D`-dimensional sorted means, no
    /// index.
    MergeJoin2d,
    /// **PS1**: sort-merge join on 1-d projected sorted means.
    MergeJoin1d {
        /// The projected dimension.
        dim: usize,
    },
}

impl QgramVariant {
    fn label(&self) -> String {
        match self {
            QgramVariant::IndexedRtree => "PR".into(),
            QgramVariant::IndexedBtree { .. } => "PB".into(),
            QgramVariant::MergeJoin2d => "PS2".into(),
            QgramVariant::MergeJoin1d { .. } => "PS1".into(),
        }
    }
}

/// Per-database prebuilt state for one variant.
#[derive(Debug)]
enum Built<const D: usize> {
    Rtree(RStarTree<D, QgramRef>),
    Btree {
        dim: usize,
        tree: BPlusTree<usize>,
    },
    Sorted2d(Vec<SortedMeans<D>>),
    Sorted1d {
        dim: usize,
        means: Vec<SortedMeans1d>,
    },
}

/// `(trajectory id, q-gram ordinal)` payload for the indexed variants: the
/// ordinal lets the counter de-duplicate several matching q-grams of one
/// trajectory for a single query q-gram.
#[derive(Debug, Clone, Copy)]
struct QgramRef {
    traj: usize,
}

/// The `Qgramk-NN-index` / merge-join k-NN engine of §4.1 (Figure 3):
/// counts, for each database trajectory, how many of the query's q-grams
/// have an ε-matching mean-value q-gram in it, visits candidates in
/// descending count order, and skips every candidate whose count rules
/// out, by the Theorem 1 bound, a distance below the current k-th best.
///
/// **Deviation from the paper's pseudocode.** Figure 3 `break`s out of the
/// scan at the first candidate that fails the count test. The test's
/// threshold `max(l_Q, l_S) + 1 − (bestSoFar + 1)·q` *depends on the
/// candidate's length*, so on variable-length databases a later, shorter
/// candidate with a lower threshold could still qualify — breaking there
/// is a false-dismissal bug. This engine therefore `continue`s on a
/// per-candidate failure and only breaks outright once the count falls
/// below the smallest threshold any remaining candidate could have (the
/// one with `l_S <= l_Q`), which is sound.
#[derive(Debug)]
pub struct QgramKnn<'a, const D: usize> {
    dataset: &'a Dataset<D>,
    /// Columnar candidate storage for the refine stage.
    arena: TrajectoryArena<D>,
    eps: MatchThreshold,
    q: usize,
    variant: QgramVariant,
    built: Built<D>,
}

impl<'a, const D: usize> QgramKnn<'a, D> {
    /// Builds the q-gram structures (index or sorted means) for `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or a projected dimension is out of range.
    pub fn build(
        dataset: &'a Dataset<D>,
        eps: MatchThreshold,
        q: usize,
        variant: QgramVariant,
    ) -> Self {
        assert!(q > 0, "q-gram size must be positive");
        let built = match variant {
            QgramVariant::IndexedRtree => {
                // The index is built once per database: STR bulk loading
                // beats repeated R* insertion both in build time and in
                // tree quality.
                let mut items = Vec::new();
                for (id, t) in dataset.iter() {
                    for mean in mean_value_qgrams(t, q) {
                        items.push((*mean.coords(), QgramRef { traj: id }));
                    }
                }
                Built::Rtree(RStarTree::bulk_load(items))
            }
            QgramVariant::IndexedBtree { dim } => {
                let mut tree = BPlusTree::new();
                for (id, t) in dataset.iter() {
                    for mean in mean_value_qgrams_1d(t, q, dim) {
                        tree.insert(mean, id);
                    }
                }
                Built::Btree { dim, tree }
            }
            QgramVariant::MergeJoin2d => Built::Sorted2d(
                dataset
                    .iter()
                    .map(|(_, t)| SortedMeans::build(t, q))
                    .collect(),
            ),
            QgramVariant::MergeJoin1d { dim } => Built::Sorted1d {
                dim,
                means: dataset
                    .iter()
                    .map(|(_, t)| SortedMeans1d::build(t, q, dim))
                    .collect(),
            },
        };
        QgramKnn {
            dataset,
            arena: TrajectoryArena::from_dataset(dataset),
            eps,
            q,
            variant,
            built,
        }
    }

    /// The matching-count of every database trajectory against `query`:
    /// how many of the query's q-grams have at least one ε-matching mean
    /// in that trajectory.
    fn counters(&self, query: &Trajectory<D>) -> Vec<usize> {
        let n = self.dataset.len();
        let mut counters = vec![0usize; n];
        match &self.built {
            Built::Rtree(tree) => {
                // Stamp array de-duplicates hits per query q-gram.
                let mut stamp = vec![usize::MAX; n];
                for (g, mean) in mean_value_qgrams(query, self.q).iter().enumerate() {
                    let region = Aabb::around(*mean.coords(), self.eps.value());
                    tree.for_each_in(&region, |_, r| {
                        if stamp[r.traj] != g {
                            stamp[r.traj] = g;
                            counters[r.traj] += 1;
                        }
                    });
                }
            }
            Built::Btree { dim, tree } => {
                let mut stamp = vec![usize::MAX; n];
                for (g, mean) in mean_value_qgrams_1d(query, self.q, *dim).iter().enumerate() {
                    for (_, &id) in tree.range(mean - self.eps.value(), mean + self.eps.value()) {
                        if stamp[id] != g {
                            stamp[id] = g;
                            counters[id] += 1;
                        }
                    }
                }
            }
            Built::Sorted2d(all) => {
                let qm = SortedMeans::build(query, self.q);
                for (id, data) in all.iter().enumerate() {
                    counters[id] = qm.match_count(data, self.eps);
                }
            }
            Built::Sorted1d { dim, means } => {
                let qm = SortedMeans1d::build(query, self.q, *dim);
                for (id, data) in means.iter().enumerate() {
                    counters[id] = qm.match_count(data, self.eps);
                }
            }
        }
        counters
    }
}

impl<const D: usize> KnnEngine<D> for QgramKnn<'_, D> {
    fn knn(&self, query: &Trajectory<D>, k: usize) -> KnnResult {
        let t_query = Instant::now();
        // The bulk counter pass plus the descending-counter ordering is
        // the q-gram filter's own work; the per-candidate Theorem 1 test
        // below is plain arithmetic and lands in `other_ns`.
        let t_filter = Instant::now();
        let counters = self.counters(query);
        let mut stats = QueryStats {
            database_size: self.dataset.len(),
            ..Default::default()
        };
        // Visit candidates in descending counter order (Figure 3, line 5).
        let mut order: Vec<usize> = (0..self.dataset.len()).collect();
        order.sort_by(|&a, &b| counters[b].cmp(&counters[a]).then(a.cmp(&b)));
        stats.timings.qgram.filter_ns = elapsed_ns(t_filter);

        let mut result = ResultSet::new(k);
        let ctx = QueryContext::from_trajectory(query, self.eps);
        let lq = query.len();
        let mut refine = Refine::timed();
        // Every candidate enters the q-gram stage; the dismissed stay in it.
        stats.timings.qgram.candidates_in = stats.database_size;
        stats.timings.qgram.candidates_out = stats.database_size;
        with_workspace(|ws| {
            for (rank, &id) in order.iter().enumerate() {
                let ls = self.arena.len_of(id);
                let cutoff = result.cutoff();
                if rank >= k && cutoff != usize::MAX {
                    let v = counters[id];
                    // Sound global cut-off: no remaining candidate (all with
                    // counter <= v) can have `EDR <= cutoff − 1` and still
                    // satisfy even the smallest possible Theorem 1
                    // threshold, reached when l_S <= l_Q. At cutoff 0
                    // nothing can enter any more.
                    if cutoff == 0 || (v as i64) < min_common_qgrams(lq, 0, self.q, cutoff - 1) {
                        stats.timings.qgram.candidates_out -= order.len() - rank;
                        break;
                    }
                    // Per-candidate Theorem 1 test.
                    if !passes_count_filter(v, lq, ls, self.q, cutoff - 1) {
                        stats.timings.qgram.candidates_out -= 1;
                        continue;
                    }
                }
                let bound = result.admission_bound();
                refine.step(&ctx, id, self.arena.view(id), bound, &mut result, ws);
            }
        });
        stats.add_refine(&refine);
        finalize_query(
            &self.name(),
            query.len(),
            k,
            t_query,
            result.into_neighbors(),
            stats,
        )
    }

    fn name(&self) -> String {
        format!("{}(q={})", self.variant.label(), self.q)
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

    fn all_variants() -> Vec<QgramVariant> {
        vec![
            QgramVariant::IndexedRtree,
            QgramVariant::IndexedBtree { dim: 0 },
            QgramVariant::MergeJoin2d,
            QgramVariant::MergeJoin1d { dim: 1 },
        ]
    }

    fn random_db(seed: u64, n: usize, max_len: usize) -> Dataset<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=max_len);
                let mut x = rng.gen_range(-5.0..5.0);
                let mut y = rng.gen_range(-5.0..5.0);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| {
                            x += rng.gen_range(-1.0..1.0);
                            y += rng.gen_range(-1.0..1.0);
                            (x, y)
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn all_variants_match_sequential_scan() {
        let db = random_db(1, 60, 20);
        let query = random_db(2, 1, 20).trajectories()[0].clone();
        let e = eps(0.8);
        let truth = SequentialScan::new(&db, e).knn(&query, 5);
        for variant in all_variants() {
            let engine = QgramKnn::build(&db, e, 1, variant);
            let got = engine.knn(&query, 5);
            assert_eq!(
                got.distances(),
                truth.distances(),
                "variant {:?} diverged",
                variant
            );
        }
    }

    #[test]
    fn larger_q_still_correct() {
        let db = random_db(3, 40, 25);
        let query = random_db(4, 1, 25).trajectories()[0].clone();
        let e = eps(1.0);
        let truth = SequentialScan::new(&db, e).knn(&query, 3);
        for q in 1..=4 {
            let engine = QgramKnn::build(&db, e, q, QgramVariant::MergeJoin2d);
            assert_eq!(
                engine.knn(&query, 3).distances(),
                truth.distances(),
                "q={q}"
            );
        }
    }

    #[test]
    fn pruning_happens_on_separated_clusters() {
        // Two well separated clusters: querying near one should let the
        // q-gram counts prune much of the other.
        let mut trajs = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for c in 0..2 {
            let offset = c as f64 * 1000.0;
            for _ in 0..30 {
                let base = offset + rng.gen_range(-1.0..1.0);
                trajs.push(Trajectory2::from_xy(
                    &(0..12)
                        .map(|i| (base + i as f64 * 0.1, base))
                        .collect::<Vec<_>>(),
                ));
            }
        }
        let db = Dataset::new(trajs);
        let query = db.trajectories()[0].clone();
        let engine = QgramKnn::build(&db, eps(0.5), 1, QgramVariant::MergeJoin2d);
        let r = engine.knn(&query, 3);
        assert!(
            r.stats.pruning_power() > 0.3,
            "expected pruning on separated clusters, got {}",
            r.stats.pruning_power()
        );
        // And still exact.
        let truth = SequentialScan::new(&db, eps(0.5)).knn(&query, 3);
        assert_eq!(r.distances(), truth.distances());
    }

    #[test]
    fn short_trajectories_are_not_falsely_dismissed() {
        // Trajectories shorter than q have zero q-grams; Theorem 1's bound
        // must still never prune them wrongly.
        let db = Dataset::new(vec![
            Trajectory2::from_xy(&[(0.0, 0.0)]),
            Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]),
            Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]),
        ]);
        let query = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
        let e = eps(0.25);
        let truth = SequentialScan::new(&db, e).knn(&query, 2);
        for variant in all_variants() {
            let engine = QgramKnn::build(&db, e, 3, variant);
            assert_eq!(engine.knn(&query, 2).distances(), truth.distances());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The central §4 claim: no false dismissals, for every variant,
        /// random databases, queries, q, and k.
        #[test]
        fn no_false_dismissals(
            seed in 0u64..2000,
            q in 1usize..4,
            k in 1usize..8,
            e in 0.1..2.0f64,
        ) {
            let db = random_db(seed, 30, 15);
            let query = random_db(seed + 9999, 1, 15).trajectories()[0].clone();
            let e = eps(e);
            let truth = SequentialScan::new(&db, e).knn(&query, k);
            for variant in all_variants() {
                let engine = QgramKnn::build(&db, e, q, variant);
                prop_assert_eq!(
                    engine.knn(&query, k).distances(),
                    truth.distances(),
                    "variant {:?} q {} k {}", variant, q, k
                );
            }
        }
    }
}
