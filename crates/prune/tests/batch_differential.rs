//! Differential tests for `knn_batch`, the two batch contracts:
//!
//! - `CombinedKnn` answers a batch as parallel per-query cascades, so
//!   every query's answer — neighbour ids and distances — and its funnel
//!   counters (EDR calls, DP cells, per-filter prune credit, each stage's
//!   candidate flow) equal per-query `knn`'s exactly, for every filter
//!   order, scan, histogram variant, candidate source and thread count.
//! - `SequentialScan` walks the dataset once per batch; it must return,
//!   per query, exactly the distance multiset of per-query `knn`.
//!   Neighbour ids may permute among equal distances (early abandoning
//!   drops ties in a schedule-dependent way); distances may not change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajsim_core::{Dataset, MatchThreshold, Trajectory2};
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, PruneOrder, QueryStats, ScanMode,
    SequentialScan,
};

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

/// Batched distances must equal per-query distances, query by query.
fn assert_batch_matches_per_query<E: KnnEngine<2> + Sync>(
    engine: &E,
    queries: &[Trajectory2],
    k: usize,
    label: &str,
) {
    let batched = engine.knn_batch(queries, k);
    assert_eq!(batched.len(), queries.len(), "{label}: result count");
    for (qi, (query, batch_r)) in queries.iter().zip(&batched).enumerate() {
        let solo = engine.knn(query, k);
        assert_eq!(
            batch_r.distances(),
            solo.distances(),
            "{label}: query {qi} diverged (k = {k})"
        );
        assert_eq!(
            batch_r.stats.database_size, solo.stats.database_size,
            "{label}: query {qi} database size"
        );
        assert!(
            batch_r.stats.edr_computed <= batch_r.stats.database_size,
            "{label}: query {qi} computed more EDRs than candidates"
        );
    }
}

/// The thread override is process-global; every test that sets it
/// serializes through this lock.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct ResetThreads;
impl Drop for ResetThreads {
    fn drop(&mut self) {
        trajsim_parallel::set_num_threads(0);
    }
}

#[test]
fn seqscan_batched_distances_match_per_query() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = random_db(11, 70, 20);
    let queries: Vec<Trajectory2> = random_db(99, 9, 20).trajectories().to_vec();
    let e = eps(0.6);
    for threads in [1, 4] {
        trajsim_parallel::set_num_threads(threads);
        let _guard = ResetThreads;
        for k in [1, 3, 7] {
            let plain = SequentialScan::new(&db, e);
            assert_batch_matches_per_query(&plain, &queries, k, &format!("plain t={threads}"));
            let ea = SequentialScan::new(&db, e).with_early_abandon();
            assert_batch_matches_per_query(&ea, &queries, k, &format!("EA t={threads}"));
            let ea_par = SequentialScan::new(&db, e)
                .with_early_abandon()
                .with_parallel();
            assert_batch_matches_per_query(&ea_par, &queries, k, &format!("EA+par t={threads}"));
        }
    }
}

/// Every filter order (the six of Figure 11 plus `H` and `N`) × HSE/HSR
/// × per-dimension/grid histograms.
fn combined_configs() -> Vec<CombinedConfig> {
    let orders = PruneOrder::ALL
        .into_iter()
        .chain([PruneOrder::H, PruneOrder::N]);
    let mut out = Vec::new();
    for order in orders {
        for histogram in [
            HistogramVariant::PerDimension,
            HistogramVariant::Grid { delta: 1 },
        ] {
            for scan in [ScanMode::Sequential, ScanMode::Sorted] {
                out.push(CombinedConfig {
                    order,
                    histogram,
                    qgram_q: 1,
                    max_triangle: 16,
                    scan,
                });
            }
        }
    }
    out
}

#[test]
fn combined_batch_equals_per_query_for_every_configuration() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = random_db(21, 60, 18);
    let queries: Vec<Trajectory2> = random_db(77, 8, 18).trajectories().to_vec();
    let e = eps(0.6);
    for threads in [1, 4] {
        trajsim_parallel::set_num_threads(threads);
        let _guard = ResetThreads;
        for config in combined_configs() {
            let engine = CombinedKnn::build(&db, e, config);
            let label = format!("{} t={threads}", engine.name());
            assert_batch_equals_per_query(&engine, &queries, 5, &label);
            // The signature index needs q-gram means next to the
            // histograms, which only the three-filter orders embed.
            if PruneOrder::ALL.contains(&config.order) {
                let indexed = CombinedKnn::build(&db, e, config).with_index();
                let label = format!("{} t={threads}", indexed.name());
                assert_batch_equals_per_query(&indexed, &queries, 5, &label);
            }
        }
    }
}

#[test]
fn combined_batch_equals_per_query_with_coarse_grids_and_varied_k() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trajsim_parallel::set_num_threads(4);
    let _guard = ResetThreads;
    let db = random_db(31, 50, 16);
    let queries: Vec<Trajectory2> = random_db(55, 6, 16).trajectories().to_vec();
    let e = eps(0.5);
    let config = CombinedConfig {
        order: PruneOrder::HQN,
        histogram: HistogramVariant::Grid { delta: 2 },
        qgram_q: 2,
        max_triangle: 12,
        scan: ScanMode::Sorted,
    };
    let engine = CombinedKnn::build(&db, e, config);
    for k in [1, 4, 10, 60] {
        assert_batch_equals_per_query(&engine, &queries, k, "grid");
    }
}

#[test]
fn batched_edge_cases_degrade_gracefully() {
    let db = random_db(41, 12, 10);
    let e = eps(0.5);
    let scan = SequentialScan::new(&db, e).with_early_abandon();
    // Empty batch and singleton batch take the per-query fallback.
    assert!(scan.knn_batch(&[], 3).is_empty());
    let one = vec![db.trajectories()[0].clone()];
    let r = scan.knn_batch(&one, 3);
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].distances(), scan.knn(&one[0], 3).distances());
    // k larger than the database returns everything for every query.
    let queries: Vec<Trajectory2> = random_db(42, 3, 10).trajectories().to_vec();
    for res in scan.knn_batch(&queries, 50) {
        assert_eq!(res.neighbors.len(), db.len());
    }
    let combined = CombinedKnn::build(&db, e, CombinedConfig::default());
    assert_batch_equals_per_query(&combined, &queries, 50, "k > N");
}

/// Batch accounting of the sequential scan's shared pass: accumulating
/// the per-query stats of one batch must reproduce the batch totals
/// exactly once — amortized wall-time shares sum back to the batch
/// measurement, dp_cells are exact sums, and `database_size` adds up to
/// `N × batch size`.
#[test]
fn batched_stats_amortize_without_double_counting() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trajsim_parallel::set_num_threads(2);
    let _guard = ResetThreads;
    let db = random_db(61, 40, 14);
    let queries: Vec<Trajectory2> = random_db(62, 5, 14).trajectories().to_vec();
    let e = eps(0.6);
    let engine = SequentialScan::new(&db, e).with_early_abandon();
    let results = engine.knn_batch(&queries, 4);
    let mut acc = QueryStats::default();
    for r in &results {
        acc.accumulate(&r.stats);
    }
    assert_eq!(acc.database_size, db.len() * queries.len());
    assert!(acc.edr_computed <= acc.database_size);
    // Amortized shares differ by at most one nanosecond per query.
    let totals: Vec<u64> = results.iter().map(|r| r.stats.timings.total_ns).collect();
    let (lo, hi) = (*totals.iter().min().unwrap(), *totals.iter().max().unwrap());
    assert!(hi - lo <= 1, "amortized totals uneven: {totals:?}");
    assert!(acc.timings.total_ns > 0);
    let setups: Vec<u64> = results.iter().map(|r| r.stats.timings.setup_ns).collect();
    let (slo, shi) = (*setups.iter().min().unwrap(), *setups.iter().max().unwrap());
    assert!(shi - slo <= 1, "amortized setups uneven: {setups:?}");
}
