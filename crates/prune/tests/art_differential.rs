//! Differential tests pinning the ART signature index's soundness
//! contract on random workloads:
//!
//! 1. **Superset**: the index's candidate set contains every trajectory
//!    the exact merge-join/quick-bound filters could keep — concretely,
//!    every trajectory with a nonzero exact q-gram match count or a
//!    shared dilated histogram cell is in the probe's candidate batch
//!    (the ε-grid may only *add* candidates, never drop true ones).
//! 2. **Bound domination**: per candidate, the index's q-gram count
//!    upper-bounds the exact merge join count, and its histogram lower
//!    bound never exceeds the true EDR; untouched ids are at exactly
//!    max-length distance.
//! 3. **Identical answers**: indexed and plain engines return identical
//!    k-NN distance multisets per query, and each answers a batch exactly
//!    as it answers its queries one by one (ids and funnel counters).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajsim_core::{Dataset, MatchThreshold, Trajectory2};
use trajsim_distance::edr;
use trajsim_prune::{
    CandidateSource, CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, PruneOrder,
    ScanMode, SequentialScan,
};
use trajsim_qgram::SortedMeans;

mod common;
use common::assert_batch_equals_per_query;

fn eps(v: f64) -> MatchThreshold {
    MatchThreshold::new(v).unwrap()
}

fn random_db(seed: u64, n: usize, max_len: usize) -> Dataset<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            let mut x = rng.gen_range(-4.0..4.0);
            let mut y = rng.gen_range(-4.0..4.0);
            Trajectory2::from_xy(
                &(0..len)
                    .map(|_| {
                        x += rng.gen_range(-0.7..0.7);
                        y += rng.gen_range(-0.7..0.7);
                        (x, y)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn configs() -> Vec<CombinedConfig> {
    vec![
        CombinedConfig::default(),
        CombinedConfig {
            histogram: HistogramVariant::Grid { delta: 1 },
            qgram_q: 2,
            ..CombinedConfig::default()
        },
        CombinedConfig {
            order: PruneOrder::QHN,
            histogram: HistogramVariant::Grid { delta: 2 },
            qgram_q: 1,
            max_triangle: 16,
            scan: ScanMode::Sorted,
        },
    ]
}

/// The ART candidate set is a superset of what the exact filters could
/// retain, and each candidate's bounds dominate the exact quantities.
#[test]
fn art_candidates_superset_of_merge_join_with_dominating_bounds() {
    for seed in 0..6u64 {
        let db = random_db(seed, 60, 16);
        let query = random_db(seed + 100, 1, 16).trajectories()[0].clone();
        let e = eps(0.55);
        for config in configs() {
            let engine = CombinedKnn::build(&db, e, config).with_index();
            let batch = engine.generate(&query);
            assert!(!batch.exhaustive, "indexed engines probe, not scan");
            let ids = batch.ids();
            let q_means = SortedMeans::build(&query, config.qgram_q);
            for (id, t) in db.iter() {
                let exact_count = q_means.match_count(&SortedMeans::build(t, config.qgram_q), e);
                let truth = edr(&query, t, e);
                match batch.candidates.iter().find(|c| c.id == id) {
                    Some(c) => {
                        assert!(
                            c.qgram_count_ub.expect("index always counts") >= exact_count,
                            "seed {seed} id {id}: index count below merge join"
                        );
                        assert!(
                            c.lower_bound <= truth,
                            "seed {seed} id {id}: lower bound {} above EDR {truth}",
                            c.lower_bound
                        );
                        if c.exact {
                            assert_eq!(c.lower_bound, truth, "seed {seed} id {id}");
                        }
                    }
                    None => {
                        // Untouched: provably no shared dilated cell, so
                        // no ε-matching element pair — the merge join
                        // must agree there is nothing to find, and EDR
                        // is exactly the max length.
                        assert_eq!(
                            exact_count, 0,
                            "seed {seed} id {id}: merge join found matches the index missed"
                        );
                        assert_eq!(
                            truth,
                            query.len().max(t.len()),
                            "seed {seed} id {id}: untouched id below max-length distance"
                        );
                        assert!(!ids.contains(&id));
                    }
                }
            }
        }
    }
}

/// Indexed and plain engines return identical distance multisets per
/// query, against the sequential-scan ground truth, and each engine's
/// batch equals its per-query answers.
#[test]
fn art_knn_answers_are_identical_distance_multisets() {
    for seed in 0..4u64 {
        let db = random_db(seed + 50, 80, 18);
        let queries: Vec<Trajectory2> = (0..5)
            .map(|i| random_db(seed * 10 + i + 500, 1, 18).trajectories()[0].clone())
            .collect();
        let e = eps(0.6);
        let truth_engine = SequentialScan::new(&db, e);
        for config in configs() {
            let plain = CombinedKnn::build(&db, e, config);
            let indexed = CombinedKnn::build(&db, e, config).with_index();
            for (qi, q) in queries.iter().enumerate() {
                let truth = truth_engine.knn(q, 6).distances();
                assert_eq!(
                    indexed.knn(q, 6).distances(),
                    truth,
                    "seed {seed} query {qi}: indexed per-query diverged"
                );
                assert_eq!(
                    plain.knn(q, 6).distances(),
                    truth,
                    "seed {seed} query {qi}: plain per-query diverged"
                );
            }
            assert_batch_equals_per_query(&plain, &queries, 6, &format!("seed {seed}"));
            assert_batch_equals_per_query(&indexed, &queries, 6, &format!("seed {seed} art"));
        }
    }
}

/// At ε = 1e-300 the coordinates 1 and −1 land in cells `i64::MAX` and
/// `i64::MIN`. The probe's neighbourhood must skip offsets past the
/// `i64` range rather than overflow (a debug panic) or wrap them to the
/// other end of the grid; the indexed engine answers like the scan.
#[test]
fn art_probe_at_the_extreme_cells_answers_like_the_scan() {
    let db: Dataset<2> = [
        vec![(1.0, 1.0)],
        vec![(-1.0, -1.0)],
        vec![(1.0, 1.0), (-1.0, -1.0)],
        vec![(-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)],
    ]
    .iter()
    .map(|p| Trajectory2::from_xy(p))
    .collect();
    let queries: Vec<Trajectory2> = [
        vec![(1.0, 1.0)],
        vec![(-1.0, -1.0)],
        vec![(1.0, -1.0), (-1.0, -1.0)],
    ]
    .iter()
    .map(|p| Trajectory2::from_xy(p))
    .collect();
    let e = eps(1e-300);
    let scan = SequentialScan::new(&db, e);
    for config in configs() {
        let indexed = CombinedKnn::build(&db, e, config).with_index();
        for (qi, q) in queries.iter().enumerate() {
            for k in [1, 3] {
                assert_eq!(
                    indexed.knn(q, k).distances(),
                    scan.knn(q, k).distances(),
                    "query {qi}, k {k}"
                );
            }
        }
    }
}
