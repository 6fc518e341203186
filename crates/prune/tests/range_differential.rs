//! `CombinedKnn::range` against a naive EDR pass over the whole data set:
//! the same `(id, dist)` list, sorted by `(dist, id)`, for every filter
//! order, HSE and HSR, 2-D grids (δ = 1, 2) and per-dimension
//! histograms, the signature-indexed engine, ε = 0, radius 0, a middle
//! radius and radii at or past the longest length, on variable-length
//! data with length-1 trajectories. A radius cutoff `r + 1` can be below
//! the `|Q| − L` that the capped pmatrix's argument assumes; the answer
//! must stay exact there on the capped matrix and the exact one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajsim_core::{Dataset, MatchThreshold, Trajectory2, TrajectoryArena};
use trajsim_distance::edr_naive;
use trajsim_prune::{
    build_pmatrix, CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, KnnResult, ScanMode,
    Stage, FILTER_ORDERS,
};

fn eps(v: f64) -> MatchThreshold {
    MatchThreshold::new(v).unwrap()
}

/// Uniform random points, lengths 1..=max_len.
fn random_db(seed: u64, n: usize, max_len: usize) -> Dataset<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            Trajectory2::from_xy(
                &(0..len)
                    .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// A walk of `len` points from `(x, y)`.
fn walk(rng: &mut StdRng, x: f64, y: f64, len: usize) -> Trajectory2 {
    let (mut x, mut y) = (x, y);
    Trajectory2::from_xy(
        &(0..len)
            .map(|_| {
                x += rng.gen_range(-0.4..0.4);
                y += rng.gen_range(-0.4..0.4);
                (x, y)
            })
            .collect::<Vec<_>>(),
    )
}

/// Walks of every length from 1 to 20, four of them length 1.
fn walks(seed: u64) -> Dataset<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trajs: Vec<Trajectory2> = (0..4).map(|_| walk(&mut rng, 0.0, 0.0, 1)).collect();
    for _ in 0..36 {
        let (x, len) = (rng.gen_range(-2.0..2.0), rng.gen_range(1..=20));
        trajs.push(walk(&mut rng, x, 0.0, len));
    }
    Dataset::new(trajs)
}

/// Every trajectory within `radius` of `query`, by `edr_naive`.
fn naive(
    db: &Dataset<2>,
    e: MatchThreshold,
    query: &Trajectory2,
    radius: usize,
) -> Vec<(usize, usize)> {
    let mut want: Vec<(usize, usize)> = db
        .iter()
        .map(|(id, s)| (id, edr_naive(query, s, e)))
        .filter(|&(_, d)| d <= radius)
        .collect();
    want.sort_by_key(|&(id, d)| (d, id));
    want
}

/// The engine's range answer as `(id, dist)` pairs, after checking that
/// every id leaves the funnel exactly once: pruned by one filter or
/// refined.
fn range(engine: &CombinedKnn<'_, 2>, query: &Trajectory2, radius: usize) -> Vec<(usize, usize)> {
    let KnnResult { neighbors, stats } = engine.range(query, radius);
    let pruned = stats.pruned_by_histogram + stats.pruned_by_qgram + stats.pruned_by_triangle;
    assert_eq!(pruned + stats.edr_computed, stats.database_size);
    neighbors.iter().map(|n| (n.id, n.dist)).collect()
}

/// Checks `engine` against the naive pass at radius 0, a middle radius,
/// the longest length and `usize::MAX`, for each query.
fn assert_exact(
    engine: &CombinedKnn<'_, 2>,
    db: &Dataset<2>,
    e: MatchThreshold,
    queries: &[Trajectory2],
) {
    let longest = db.iter().map(|(_, t)| t.len()).max().unwrap();
    for (qi, q) in queries.iter().enumerate() {
        for radius in [
            0,
            1,
            longest / 3,
            longest / 2,
            longest,
            q.len().max(longest),
            usize::MAX,
        ] {
            let want = naive(db, e, q, radius);
            if radius >= q.len().max(longest) {
                assert_eq!(want.len(), db.len());
            }
            let label = format!(
                "{}: query {qi} (len {}), radius {radius}",
                engine.name(),
                q.len()
            );
            assert_eq!(range(engine, q, radius), want, "{label}");
        }
    }
}

/// The six orders of all three filters, plus histogram, near-triangle
/// and q-gram pruning alone.
fn every_order() -> Vec<&'static [Stage]> {
    let mut orders = FILTER_ORDERS.to_vec();
    orders.extend([
        &[Stage::Histogram] as &[Stage],
        &[Stage::Triangle],
        &[Stage::Qgram],
    ]);
    orders
}

fn queries(db: &Dataset<2>, seed: u64) -> Vec<Trajectory2> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        db.trajectories()[0].clone(),
        db.trajectories()[7].clone(),
        walk(&mut rng, 0.5, 0.0, 12),
        walk(&mut rng, 0.0, 0.0, 26),
        walk(&mut rng, 30.0, 30.0, 5),
    ]
}

#[test]
fn range_matches_the_naive_pass_for_every_configuration() {
    let db = walks(1);
    let qs = queries(&db, 2);
    let e = eps(0.3);
    for stages in every_order() {
        for scan in [ScanMode::Sequential, ScanMode::Sorted] {
            for histogram in [
                HistogramVariant::Grid { delta: 1 },
                HistogramVariant::Grid { delta: 2 },
                HistogramVariant::PerDimension,
            ] {
                let config = CombinedConfig {
                    stages,
                    histogram,
                    qgram_q: 1,
                    max_triangle: 8,
                    scan,
                };
                assert_exact(&CombinedKnn::build(&db, e, config), &db, e, &qs);
            }
        }
    }
}

#[test]
fn range_is_exact_on_the_indexed_engine() {
    let db = walks(3);
    let mut qs = queries(&db, 4);
    // Far from every trajectory: the index settles them all untouched.
    qs.push(Trajectory2::from_xy(&[(900.0, 900.0), (901.0, 901.0)]));
    let e = eps(0.3);
    for histogram in [
        HistogramVariant::PerDimension,
        HistogramVariant::Grid { delta: 2 },
    ] {
        let config = CombinedConfig {
            histogram,
            max_triangle: 8,
            ..CombinedConfig::default()
        };
        let engine = CombinedKnn::build(&db, e, config).with_index();
        assert!(engine.has_index());
        assert_exact(&engine, &db, e, &qs);
    }
}

#[test]
fn range_at_zero_epsilon_uses_the_histogram_free_cascade() {
    // ε = 0 matches only identical points: the copy of walk 9 is its
    // one radius-0 hit besides itself.
    let mut trajs = walks(5).trajectories().to_vec();
    trajs.push(trajs[9].clone());
    trajs.push(Trajectory2::from_xy(&[(0.0, 0.0)]));
    let db = Dataset::new(trajs);
    let qs = queries(&db, 6);
    let e = eps(0.0);
    // The q-gram filter alone over an HSE scan: Theorem 1 needs no
    // histogram, so it prunes at ε = 0 too.
    let qgram_only = CombinedConfig {
        stages: &[Stage::Qgram],
        scan: ScanMode::Sequential,
        ..CombinedConfig::default()
    };
    // No filter at all, as `trajsim range` runs at ε = 0.
    let no_filter = CombinedConfig {
        stages: &[],
        ..qgram_only
    };
    let mut configs = vec![qgram_only, no_filter];
    configs.extend([0, 8].map(CombinedConfig::near_triangle_only));
    for config in configs {
        assert_exact(&CombinedKnn::build(&db, e, config), &db, e, &qs);
    }
    let engine = CombinedKnn::build(&db, e, qgram_only);
    let q = &db.trajectories()[9];
    let hits = engine.range(q, 0);
    let ids: Vec<usize> = hits.neighbors.iter().map(|n| n.id).collect();
    assert_eq!(ids, vec![9, db.len() - 2]);
    assert!(hits.stats.pruned_by_qgram > 0, "{:?}", hits.stats);
}

#[test]
fn range_below_the_length_gap_is_exact_on_the_capped_pmatrix() {
    // L = 20 and |Q| = 45: for every radius up to |Q| − L − 2 = 23 a
    // capped entry can pass the triangle test, yet no trajectory is
    // within the radius, so the answer is still the naive (empty) one.
    let db = walks(7);
    let longest = db.iter().map(|(_, t)| t.len()).max().unwrap();
    assert_eq!(longest, 20);
    let e = eps(0.3);
    let t = db.trajectories();
    let references = 8;
    let exact: Vec<Vec<usize>> = (0..references)
        .map(|r| t.iter().map(|s| edr_naive(&t[r], s, e)).collect())
        .collect();
    let capped = build_pmatrix(&TrajectoryArena::from_dataset(&db), e, references);
    assert_ne!(capped, exact, "some entries must be capped");
    let mut rng = StdRng::seed_from_u64(8);
    let qs = [walk(&mut rng, 0.0, 0.0, 45), walk(&mut rng, 30.0, 30.0, 45)];
    let mut credit_differs = 0;
    let triangle = |stages: &&[Stage]| stages.contains(&Stage::Triangle);
    for stages in every_order().into_iter().filter(triangle) {
        for scan in [ScanMode::Sequential, ScanMode::Sorted] {
            let config = CombinedConfig {
                stages,
                histogram: HistogramVariant::PerDimension,
                qgram_q: 1,
                max_triangle: references,
                scan,
            };
            let built = CombinedKnn::build(&db, e, config);
            let fed = CombinedKnn::with_pmatrix(&db, e, config, exact.clone());
            for q in &qs {
                for radius in [0, 5, q.len() - longest - 2] {
                    let want = naive(&db, e, q, radius);
                    assert!(want.is_empty());
                    let label = format!("{}: radius {radius}", built.name());
                    assert_eq!(range(&built, q, radius), want, "{label} (capped)");
                    assert_eq!(range(&fed, q, radius), want, "{label} (exact)");
                    let credit = |engine: &CombinedKnn<'_, 2>| {
                        engine.range(q, radius).stats.pruned_by_triangle
                    };
                    if credit(&built) != credit(&fed) {
                        credit_differs += 1;
                    }
                }
                // Every radius, past the gap too.
                assert_exact(&built, &db, e, std::slice::from_ref(q));
            }
        }
    }
    // Capped entries did pass the triangle test somewhere.
    assert!(
        credit_differs > 0,
        "the capped matrix never changed the credit"
    );
}

#[test]
fn finds_exactly_the_in_range_trajectories() {
    let db = Dataset::new(vec![
        Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]), // dist 0
        Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (9.0, 9.0)]), // dist 1
        Trajectory2::from_xy(&[(50.0, 50.0), (51.0, 51.0), (52.0, 52.0)]), // dist 3
    ]);
    let q = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
    let e = eps(0.25);
    for stages in every_order() {
        let config = CombinedConfig {
            stages,
            max_triangle: 2,
            ..CombinedConfig::default()
        };
        let engine = CombinedKnn::build(&db, e, config);
        assert_eq!(range(&engine, &q, 1), vec![(0, 0), (1, 1)]);
        assert_exact(&engine, &db, e, std::slice::from_ref(&q));
    }
}

#[test]
fn zero_range_returns_only_matching_equals() {
    let db = random_db(1, 10, 6);
    let q = db.trajectories()[3].clone();
    let e = eps(0.5);
    for config in [
        CombinedConfig::default(),
        CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sorted),
        CombinedConfig::near_triangle_only(4),
    ] {
        let hits = range(&CombinedKnn::build(&db, e, config), &q, 0);
        assert!(hits.iter().any(|&(id, _)| id == 3));
        assert!(hits.iter().all(|&(_, d)| d == 0));
        assert_eq!(hits, naive(&db, e, &q, 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Range results agree with brute force for every (seed, radius, q)
    /// and every filter order.
    #[test]
    fn agrees_with_brute_force(
        seed in 0u64..500,
        radius in 0usize..10,
        q in 1usize..4,
        e in 0.1..1.5f64,
    ) {
        let db = random_db(seed, 25, 12);
        let query = random_db(seed + 123, 1, 12).trajectories()[0].clone();
        let e = eps(e);
        let want = naive(&db, e, &query, radius);
        for stages in every_order() {
            let config = CombinedConfig {
                stages,
                qgram_q: q,
                max_triangle: 6,
                ..CombinedConfig::default()
            };
            let engine = CombinedKnn::build(&db, e, config);
            prop_assert_eq!(range(&engine, &query, radius), want.clone(), "{:?}", stages);
        }
    }
}
