//! LCSS retrieval with histogram pruning — the extension §4 mentions and
//! omits ("the pruning techniques that we propose in this paper can also
//! be applied to LCSS, the details are omitted due to space limitation").
//!
//! The transfer works because the histogram machinery bounds *matchings*,
//! not edit scripts: every pair of a common subsequence ε-matches, so the
//! pairs land in approximately matching histogram cells and the maximum
//! histogram matching `M` (the same quantity behind
//! [`trajsim_histogram::histogram_distance`]) upper-bounds the LCSS
//! score. From `LCSS(R, S) <= M`:
//!
//! ```text
//! lcss_distance(R, S) = 1 − LCSS/min(m, n) >= 1 − M/min(m, n)
//! ```
//!
//! a sound lower bound on the LCSS distance, used exactly like HD is for
//! EDR. The near triangle inequality does **not** transfer (its proof
//! counts edit operations), and q-gram counting would need an LCSS
//! analogue of Theorem 1, so this engine uses histograms only — the
//! strongest of the three filters in the paper's own study.

use crate::result::{elapsed_ns, finish_query, QueryStats};
use std::time::Instant;
use trajsim_core::{Dataset, MatchThreshold, Trajectory};
use trajsim_distance::lcss_distance;
use trajsim_histogram::{histogram_distance, histogram_distance_quick, TrajectoryHistogram};

/// One LCSS k-NN answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcssNeighbor {
    /// Database id of the trajectory.
    pub id: usize,
    /// LCSS distance `1 − LCSS/min(m, n)` to the query, in [0, 1].
    pub dist: f64,
}

/// Result of an LCSS k-NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct LcssKnnResult {
    /// Neighbours in ascending LCSS-distance order (ties by id).
    pub neighbors: Vec<LcssNeighbor>,
    /// How the query was answered.
    pub stats: QueryStats,
}

/// A k-NN engine for the LCSS distance with histogram pruning, mirroring
/// the sorted-scan (HSR) EDR engine: candidates are visited in ascending
/// quick-lower-bound order and the exact matching bound confirms each
/// prune.
#[derive(Debug)]
pub struct LcssKnn<'a, const D: usize> {
    dataset: &'a Dataset<D>,
    eps: MatchThreshold,
    hists: Vec<TrajectoryHistogram<D>>,
}

impl<'a, const D: usize> LcssKnn<'a, D> {
    /// Builds the per-trajectory histograms.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is zero (histogram cells need positive size).
    pub fn build(dataset: &'a Dataset<D>, eps: MatchThreshold) -> Self {
        assert!(
            eps.value() > 0.0,
            "histogram pruning needs a positive epsilon"
        );
        LcssKnn {
            dataset,
            eps,
            hists: dataset
                .iter()
                .map(|(_, t)| TrajectoryHistogram::build(t, eps))
                .collect(),
        }
    }

    /// Lower bound on the LCSS distance from an upper bound `matching` on
    /// the LCSS score.
    fn distance_bound(matching: usize, m: usize, n: usize) -> f64 {
        let min_len = m.min(n);
        if min_len == 0 {
            return if m == n { 0.0 } else { 1.0 };
        }
        1.0 - (matching.min(min_len) as f64) / min_len as f64
    }

    /// The `k` nearest database trajectories under the LCSS distance,
    /// with no false dismissals.
    pub fn knn(&self, query: &Trajectory<D>, k: usize) -> LcssKnnResult {
        assert!(k > 0, "k must be positive");
        let t_query = Instant::now();
        let qh = TrajectoryHistogram::build(query, self.eps);
        let mut stats = QueryStats {
            database_size: self.dataset.len(),
            ..Default::default()
        };
        stats.timings.setup_ns = elapsed_ns(t_query);
        // Quick bounds: histogram_distance_quick = max(m, n) − cap with
        // cap >= maximum matching >= LCSS.
        let t_filter = Instant::now();
        let mut order: Vec<(u64, usize)> = (0..self.dataset.len())
            .map(|id| {
                let s = &self.dataset.trajectories()[id];
                let quick_hd = histogram_distance_quick(&qh, &self.hists[id]);
                let cap = query.len().max(s.len()) - quick_hd;
                let bound = Self::distance_bound(cap, query.len(), s.len());
                // Sort by a fixed-point key (f64 keys would need total_cmp
                // everywhere; the bound is in [0, 1]).
                ((bound * 1e9) as u64, id)
            })
            .collect();
        order.sort_unstable();
        stats.timings.histogram.filter_ns += elapsed_ns(t_filter);

        // Every candidate enters the histogram stage; the dismissed stay in it.
        stats.timings.histogram.candidates_in = stats.database_size;
        stats.timings.histogram.candidates_out = stats.database_size;
        let mut neighbors: Vec<LcssNeighbor> = Vec::new();
        let best_so_far = |neigh: &Vec<LcssNeighbor>| -> f64 {
            if neigh.len() < k {
                f64::INFINITY
            } else {
                neigh[k - 1].dist
            }
        };
        for (rank, &(quick_key, id)) in order.iter().enumerate() {
            let best = best_so_far(&neighbors);
            let quick_bound = quick_key as f64 / 1e9;
            if best.is_finite() {
                if quick_bound > best {
                    stats.timings.histogram.candidates_out -= order.len() - rank;
                    break;
                }
                // Exact matching bound: M = max(m, n) − HD.
                let s = &self.dataset.trajectories()[id];
                let t_filter = Instant::now();
                let hd = histogram_distance(&qh, &self.hists[id]);
                let matching = query.len().max(s.len()) - hd;
                let prune = Self::distance_bound(matching, query.len(), s.len()) > best;
                stats.timings.histogram.filter_ns += elapsed_ns(t_filter);
                if prune {
                    stats.timings.histogram.candidates_out -= 1;
                    continue;
                }
            }
            let s = &self.dataset.trajectories()[id];
            let t_refine = Instant::now();
            let d = lcss_distance(query, s, self.eps);
            stats.timings.refine_ns += elapsed_ns(t_refine);
            stats.edr_computed += 1; // "true distance computed" counter
            let pos = neighbors.partition_point(|n| n.dist <= d);
            if pos < k {
                neighbors.insert(pos, LcssNeighbor { id, dist: d });
                neighbors.truncate(k);
            }
        }
        stats.timings.total_ns = elapsed_ns(t_query);
        // LCSS neighbors are score-shaped, not `Neighbor`-shaped; the
        // flight record carries an empty answer set for this engine.
        finish_query("LCSS-HSR", query.len(), k, None, &[], &mut stats);
        LcssKnnResult { neighbors, stats }
    }
}

/// Brute-force LCSS k-NN (the oracle the engine is tested against and a
/// baseline for its speedup).
pub fn lcss_sequential_scan<const D: usize>(
    dataset: &Dataset<D>,
    eps: MatchThreshold,
    query: &Trajectory<D>,
    k: usize,
) -> Vec<LcssNeighbor> {
    let mut all: Vec<LcssNeighbor> = dataset
        .iter()
        .map(|(id, s)| LcssNeighbor {
            id,
            dist: lcss_distance(query, s, eps),
        })
        .collect();
    all.sort_by(|a, b| {
        a.dist
            .partial_cmp(&b.dist)
            .expect("finite")
            .then(a.id.cmp(&b.id))
    });
    all.truncate(k);
    all
}

/// The matching upper bound on the raw LCSS *score* (not distance),
/// exposed for tests and for users who want the similarity form:
/// `LCSS(R, S) <= max(m, n) − HD(H_R, H_S)`.
pub fn lcss_score_upper_bound<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
) -> usize {
    let hr = TrajectoryHistogram::build(r, eps);
    let hs = TrajectoryHistogram::build(s, eps);
    r.len().max(s.len()) - histogram_distance(&hr, &hs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajsim_core::Trajectory2;
    use trajsim_distance::lcss;

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

    #[test]
    fn matches_brute_force_on_a_fixed_database() {
        let db = random_db(1, 60, 20);
        let query = db.trajectories()[9].clone();
        let e = eps(0.7);
        let engine = LcssKnn::build(&db, e);
        let got = engine.knn(&query, 5);
        let want = lcss_sequential_scan(&db, e, &query, 5);
        let gd: Vec<f64> = got.neighbors.iter().map(|n| n.dist).collect();
        let wd: Vec<f64> = want.iter().map(|n| n.dist).collect();
        assert_eq!(gd, wd);
        assert_eq!(got.neighbors[0].dist, 0.0, "the query itself is in the db");
    }

    #[test]
    fn prunes_on_separated_clusters() {
        let mut trajs = Vec::new();
        for c in 0..2 {
            let offset = c as f64 * 1000.0;
            for i in 0..30 {
                trajs.push(Trajectory2::from_xy(
                    &(0..15)
                        .map(|j| (offset + i as f64 * 0.01 + j as f64 * 0.1, offset))
                        .collect::<Vec<_>>(),
                ));
            }
        }
        let db = Dataset::new(trajs);
        let query = db.trajectories()[0].clone();
        let engine = LcssKnn::build(&db, eps(0.5));
        let r = engine.knn(&query, 3);
        assert!(
            r.stats.pruning_power() > 0.3,
            "expected pruning, got {}",
            r.stats.pruning_power()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The matching bound really upper-bounds the LCSS score.
        #[test]
        fn score_upper_bound_holds(
            r in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 1..18),
            s in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 1..18),
            e in 0.1..2.0f64,
        ) {
            let (rt, st) = (Trajectory2::from_xy(&r), Trajectory2::from_xy(&s));
            let e = eps(e);
            prop_assert!(lcss(&rt, &st, e) <= lcss_score_upper_bound(&rt, &st, e));
        }

        /// No false dismissals against the brute-force oracle.
        #[test]
        fn no_false_dismissals(
            seed in 0u64..500,
            k in 1usize..6,
            e in 0.2..1.5f64,
        ) {
            let db = random_db(seed, 25, 14);
            let query = random_db(seed + 17, 1, 14).trajectories()[0].clone();
            let e = eps(e);
            let engine = LcssKnn::build(&db, e);
            let got: Vec<f64> = engine.knn(&query, k).neighbors.iter().map(|n| n.dist).collect();
            let want: Vec<f64> =
                lcss_sequential_scan(&db, e, &query, k).iter().map(|n| n.dist).collect();
            prop_assert_eq!(got, want);
        }
    }
}
