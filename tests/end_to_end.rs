//! Cross-crate integration tests: data generation → normalization →
//! every retrieval engine → identical answers, plus the range query and
//! efficacy pipelines, all through the public facade API.

use trajsim::data;
use trajsim::distance::Measure;
use trajsim::eval;
use trajsim::prelude::*;
use trajsim::prune::{CombinedConfig, HistogramVariant, QgramVariant, ScanMode, Stage};

fn small_nhl() -> Dataset<2> {
    data::nhl_like(11, 150).normalize()
}

fn eps_for(db: &Dataset<2>) -> MatchThreshold {
    MatchThreshold::new(trajsim::core::max_std_dev(db.trajectories()).unwrap()).unwrap()
}

#[test]
fn every_engine_agrees_with_sequential_scan() {
    let db = small_nhl();
    let eps = eps_for(&db);
    let k = 7;
    let queries: Vec<Trajectory2> = (0..5).map(|i| db.trajectories()[i * 29].clone()).collect();
    let scan = SequentialScan::new(&db, eps);
    let truth: Vec<Vec<usize>> = queries.iter().map(|q| scan.knn(q, k).distances()).collect();

    let engines: Vec<Box<dyn KnnEngine<2>>> = vec![
        Box::new(SequentialScan::new(&db, eps).with_early_abandon()),
        Box::new(QgramKnn::build(&db, eps, 1, QgramVariant::IndexedRtree)),
        Box::new(QgramKnn::build(
            &db,
            eps,
            2,
            QgramVariant::IndexedBtree { dim: 1 },
        )),
        Box::new(QgramKnn::build(&db, eps, 1, QgramVariant::MergeJoin2d)),
        Box::new(QgramKnn::build(
            &db,
            eps,
            3,
            QgramVariant::MergeJoin1d { dim: 0 },
        )),
        Box::new(CombinedKnn::build(
            &db,
            eps,
            CombinedConfig::histogram_only(HistogramVariant::Grid { delta: 1 }, ScanMode::Sorted),
        )),
        Box::new(CombinedKnn::build(
            &db,
            eps,
            CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sequential),
        )),
        Box::new(CombinedKnn::build(
            &db,
            eps,
            CombinedConfig::near_triangle_only(30),
        )),
        Box::new(CombinedKnn::build(
            &db,
            eps,
            CombinedConfig {
                max_triangle: 30,
                ..Default::default()
            },
        )),
        Box::new(CombinedKnn::build(
            &db,
            eps,
            CombinedConfig {
                stages: &[Stage::Triangle, Stage::Qgram, Stage::Histogram],
                histogram: HistogramVariant::Grid { delta: 2 },
                qgram_q: 2,
                max_triangle: 10,
                scan: ScanMode::Sorted,
            },
        )),
    ];
    for engine in &engines {
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(
                engine.knn(q, k).distances(),
                truth[qi],
                "{} diverged on query {qi}",
                engine.name()
            );
        }
    }
}

#[test]
fn range_query_is_consistent_with_knn() {
    let db = small_nhl();
    let eps = eps_for(&db);
    let q = db.trajectories()[42].clone();
    let scan = SequentialScan::new(&db, eps);
    let nn = scan.knn(&q, 10);
    // A range query at the 10th distance must return at least those 10.
    let radius = nn.neighbors.last().unwrap().dist;
    let hits = CombinedKnn::build(
        &db,
        eps,
        CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sorted),
    )
    .range(&q, radius)
    .neighbors;
    assert!(hits.len() >= 10);
    assert!(hits.iter().all(|h| h.dist <= radius));
    // And the nearest hit is the k-NN winner.
    assert_eq!(hits[0].dist, nn.neighbors[0].dist);
}

#[test]
fn efficacy_pipeline_runs_end_to_end() {
    let herds = data::cm_like(5).normalize();
    let eps = MatchThreshold::quarter_of_max_std(
        trajsim::core::max_std_dev(herds.dataset().trajectories()).unwrap(),
    )
    .unwrap();
    // Clustering (Table 1 machinery).
    let (correct, total) = eval::correct_pair_partitions(&herds, &Measure::Edr { eps });
    assert_eq!(total, 10);
    assert!(
        correct >= 8,
        "EDR should separate nearly all CM pairs, got {correct}"
    );
    // Classification (Table 2 machinery) on a corrupted copy.
    let noisy = data::corrupt_dataset(
        &mut data::seeded_rng(123),
        &herds,
        &data::CorruptionConfig::default(),
    )
    .normalize();
    let err = eval::loo_error_rate(&noisy, &Measure::Edr { eps });
    assert!(err <= 0.4, "EDR error rate under noise too high: {err}");
}

#[test]
fn normalization_makes_search_translation_invariant() {
    let db = small_nhl();
    let eps = eps_for(&db);
    let scan = SequentialScan::new(&db, eps);
    let q = db.trajectories()[7].clone();
    // Shift and scale the query arbitrarily; after normalization the
    // answer is identical.
    let shifted = Trajectory2::from_xy(
        &q.points()
            .iter()
            .map(|p| (p.x() * 37.0 + 1000.0, p.y() * 0.01 - 5.0))
            .collect::<Vec<_>>(),
    )
    .normalize();
    assert_eq!(
        scan.knn(&q, 5).distances(),
        scan.knn(&shifted, 5).distances()
    );
}

#[test]
fn higher_dimensional_trajectories_work_through_the_stack() {
    use trajsim::core::{Point, Trajectory};
    // 3-d trajectories through EDR and the histogram lower bound.
    let a: Trajectory<3> = (0..30)
        .map(|i| Point::new([i as f64, (i * 2) as f64, -(i as f64)]))
        .collect();
    let mut pts: Vec<Point<3>> = a.points().to_vec();
    pts[10] = Point::new([999.0, 999.0, 999.0]);
    let b = Trajectory::new(pts);
    let eps = MatchThreshold::new(0.5).unwrap();
    assert_eq!(trajsim::distance::edr(&a, &b, eps), 1);
    let ha = trajsim::histogram::TrajectoryHistogram::build(&a, eps);
    let hb = trajsim::histogram::TrajectoryHistogram::build(&b, eps);
    assert!(trajsim::histogram::histogram_distance(&ha, &hb) <= 1);
}
