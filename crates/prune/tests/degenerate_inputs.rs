//! Degenerate inputs to the filter cascade — an empty database, k ≥ N,
//! an empty query and a length-1 query — answered per query and through
//! `knn_batch`, must give the sequential scan's distances.

use trajsim_core::{Dataset, MatchThreshold, Trajectory2};
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, ScanMode, SequentialScan,
};

fn eps(v: f64) -> MatchThreshold {
    MatchThreshold::new(v).unwrap()
}

fn configs() -> [CombinedConfig; 2] {
    [
        CombinedConfig::default(),
        CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sequential),
    ]
}

/// Six trajectories of lengths 1 to 6.
fn walks() -> Dataset<2> {
    (0..6)
        .map(|i| {
            let points: Vec<(f64, f64)> = (0..=i)
                .map(|j| (0.3 * f64::from(i + j), 0.2 * f64::from(j)))
                .collect();
            Trajectory2::from_xy(&points)
        })
        .collect()
}

fn queries() -> Vec<Trajectory2> {
    vec![
        Trajectory2::from_xy(&[]),
        Trajectory2::from_xy(&[(0.4, 0.1)]),
        Trajectory2::from_xy(&[(0.0, 0.0), (0.6, 0.1), (1.2, 0.3)]),
    ]
}

/// Every configuration answers every query — per query and as one batch
/// — with the scan's distances.
fn assert_matches_scan(db: &Dataset<2>, k: usize) {
    let e = eps(0.25);
    let scan = SequentialScan::new(db, e);
    let queries = queries();
    let expected: Vec<Vec<usize>> = queries.iter().map(|q| scan.knn(q, k).distances()).collect();
    for config in configs() {
        let engine = CombinedKnn::build(db, e, config);
        let name = engine.name();
        for (q, want) in queries.iter().zip(&expected) {
            assert_eq!(
                &engine.knn(q, k).distances(),
                want,
                "{name}, query len {}",
                q.len()
            );
        }
        let batched: Vec<Vec<usize>> = engine
            .knn_batch(&queries, k)
            .iter()
            .map(|r| r.distances())
            .collect();
        assert_eq!(batched, expected, "{name} batched");
    }
}

#[test]
fn empty_database_answers_nothing() {
    let db = Dataset::new(Vec::new());
    assert_matches_scan(&db, 3);
    for want in queries()
        .iter()
        .map(|q| SequentialScan::new(&db, eps(0.25)).knn(q, 3))
    {
        assert!(want.neighbors.is_empty());
    }
}

#[test]
fn k_at_least_n_returns_the_whole_database() {
    let db = walks();
    for k in [db.len(), db.len() + 4] {
        assert_matches_scan(&db, k);
    }
}

#[test]
fn empty_and_length_one_queries_match_the_scan() {
    let db = walks();
    for k in [1, 3] {
        assert_matches_scan(&db, k);
    }
}
