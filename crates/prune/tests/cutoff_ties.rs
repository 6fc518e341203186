//! The strict admission cutoff on tie-heavy databases: once the top-k is
//! full, `CombinedKnn` dismisses a candidate whose lower bound *reaches*
//! the k-th best and refines under `k-th best − 1`. Ties at the k-th best
//! are where that differs from the `> best` test, so these databases are
//! built from exact copies, with k cutting through a tie group.

use trajsim_core::{Dataset, MatchThreshold, Trajectory2};
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, ScanMode, SequentialScan, Stage,
    FILTER_ORDERS,
};

fn eps(v: f64) -> MatchThreshold {
    MatchThreshold::new(v).unwrap()
}

/// A short walk from `(x, y)` whose steps are drawn from `seed`.
fn walk(seed: u64, x: f64, y: f64, len: usize) -> Trajectory2 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 1000.0 - 0.5
    };
    let (mut x, mut y) = (x, y);
    let points: Vec<(f64, f64)> = (0..len)
        .map(|_| {
            x += step();
            y += step();
            (x, y)
        })
        .collect();
    Trajectory2::from_xy(&points)
}

/// Every configuration the cutoff runs in: each filter order (the six of
/// Fig. 11, histogram alone and near-triangle alone) × HSE/HSR ×
/// grid/per-dimension histograms.
fn configs() -> Vec<CombinedConfig> {
    let orders = FILTER_ORDERS
        .into_iter()
        .chain([&[Stage::Histogram] as &[Stage], &[Stage::Triangle]]);
    let mut out = Vec::new();
    for stages in orders {
        for scan in [ScanMode::Sequential, ScanMode::Sorted] {
            for histogram in [
                HistogramVariant::Grid { delta: 1 },
                HistogramVariant::PerDimension,
            ] {
                out.push(CombinedConfig {
                    stages,
                    histogram,
                    qgram_q: 1,
                    max_triangle: 6,
                    scan,
                });
            }
        }
    }
    out
}

#[test]
fn ties_at_the_kth_best_keep_the_scans_answers() {
    // Twelve base walks of varying length, each stored three times in
    // interleaved order, so every distance comes in groups of at least
    // three equal values spread over the ids. Base 3 is base 4 without
    // its last point: with base 4 as the query, a cutoff of 1 is reached
    // before the exact copies are.
    let mut bases: Vec<Trajectory2> = (0..12)
        .map(|i| walk(i, (i % 3) as f64, (i % 4) as f64, 6 + (i as usize * 5) % 11))
        .collect();
    let shorter = bases[4].points()[..bases[4].len() - 1].to_vec();
    bases[3] = Trajectory2::new(shorter);
    let db: Dataset<2> = (0..3).flat_map(|_| bases.iter().cloned()).collect();
    let queries = [
        bases[4].clone(),
        walk(101, 1.0, 2.0, 9),
        walk(102, 0.5, 0.5, 14),
    ];
    for e in [eps(0.4), eps(1.5)] {
        let scan = SequentialScan::new(&db, e);
        for config in configs() {
            let engine = CombinedKnn::build(&db, e, config);
            for (qi, query) in queries.iter().enumerate() {
                for k in 1..=8 {
                    let got = engine.knn(query, k);
                    let want = scan.knn(query, k);
                    let label = format!("{} eps {} query {qi} k {k}", engine.name(), e.value());
                    assert_eq!(got.distances(), want.distances(), "{label}");
                    if config.scan == ScanMode::Sequential {
                        assert_eq!(got.neighbors, want.neighbors, "{label}: ids");
                    }
                }
            }
        }
    }
}

#[test]
fn hsr_stops_right_after_the_kth_exact_copy() {
    let query = walk(7, 0.0, 0.0, 12);
    // Far-away walks first and last, and five exact copies of the query
    // in between: only the copies have a zero histogram bound.
    let mut trajs: Vec<Trajectory2> = (0..10).map(|i| walk(200 + i, 50.0, 50.0, 12)).collect();
    trajs.extend((0..5).map(|_| query.clone()));
    trajs.extend((0..10).map(|i| walk(300 + i, -50.0, 50.0, 8)));
    let db = Dataset::new(trajs);
    let e = eps(0.5);
    let k = 3;
    for config in configs() {
        let engine = CombinedKnn::build(&db, e, config);
        let r = engine.knn(&query, k);
        let label = engine.name();
        let ids: Vec<usize> = r.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![10, 11, 12], "{label}");
        assert!(r.neighbors.iter().all(|n| n.dist == 0), "{label}");
        if config.scan == ScanMode::Sorted {
            // Three full DPs, then a zero cutoff settles the rest.
            assert_eq!(r.stats.edr_computed, k, "{label}");
            assert_eq!(r.stats.pruned_by_histogram, db.len() - k, "{label}");
        }
        if !config.builds_histograms() {
            // The placeholder bound 0 never dismisses anything.
            assert_eq!(r.stats.pruned_by_histogram, 0, "{label}");
        }
    }
}
