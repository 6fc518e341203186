//! Integration tests for the adoption-surface features: CSV/binary
//! persistence and trajectory preprocessing, driven through the facade
//! and combined with retrieval (what a downstream user actually does:
//! load, clean, search).

use trajsim::io::{read_binary, read_csv, write_binary, write_csv};
use trajsim::prelude::*;

fn sample_db() -> Dataset<2> {
    trajsim::data::nhl_like(3, 40)
}

#[test]
fn csv_roundtrip_preserves_search_results() {
    let db = sample_db();
    let mut buf = Vec::new();
    write_csv(&mut buf, &db).unwrap();
    let back: Dataset<2> = read_csv(&buf[..]).unwrap();
    assert_eq!(back.len(), db.len());

    // Identical search results on the roundtripped data.
    let (a, b) = (db.normalize(), back.normalize());
    let eps = MatchThreshold::new(0.5).unwrap();
    let q = a.trajectories()[7].clone();
    assert_eq!(
        SequentialScan::new(&a, eps).knn(&q, 5).distances(),
        SequentialScan::new(&b, eps).knn(&q, 5).distances()
    );
}

#[test]
fn binary_roundtrip_is_bit_exact_at_scale() {
    let db = trajsim::data::mixed_like(9, 60);
    let mut buf = Vec::new();
    write_binary(&mut buf, &db).unwrap();
    let back: Dataset<2> = read_binary(&buf[..]).unwrap();
    assert_eq!(back, db);
    // The binary form is much denser than CSV.
    let mut csv = Vec::new();
    write_csv(&mut csv, &db).unwrap();
    assert!(buf.len() < csv.len());
}

#[test]
fn preprocessing_pipeline_before_search() {
    // Load -> smooth sensor jitter -> resample to a common length ->
    // normalize -> search. The pipeline must preserve neighbour structure
    // for clean data.
    let raw = sample_db();
    let cleaned: Dataset<2> = raw
        .trajectories()
        .iter()
        .map(|t| t.smooth(1).resample(64).expect("non-empty"))
        .collect();
    assert!(cleaned.iter().all(|(_, t)| t.len() == 64));
    let cleaned = cleaned.normalize();
    let eps = MatchThreshold::new(0.5).unwrap();
    let q = cleaned.trajectories()[0].clone();
    let r = SequentialScan::new(&cleaned, eps).knn(&q, 3);
    assert_eq!(r.neighbors[0].id, 0);
    assert_eq!(r.neighbors[0].dist, 0);
}

#[test]
fn simplification_shrinks_storage_but_keeps_shape() {
    let db = sample_db();
    let t = &db.trajectories()[0];
    let simplified = t.simplify(0.5);
    assert!(simplified.len() <= t.len());
    // The simplified trajectory stays EDR-close to the original after
    // resampling both *by arc length* to a common length (index-based
    // resampling would re-parameterize the sparser polyline differently
    // and mask the comparison).
    let eps = MatchThreshold::new(1.0).unwrap();
    let a = t.resample_by_arc_length(50).unwrap();
    let b = simplified.resample_by_arc_length(50).unwrap();
    let d = edr(&a, &b, eps);
    assert!(
        d <= 10,
        "simplification changed the shape too much: EDR {d}"
    );
}

#[test]
fn subtrajectory_search_through_facade() {
    // Splice a known pattern into a longer track and find it.
    let pattern = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]);
    let mut points: Vec<trajsim::core::Point2> = (0..30)
        .map(|i| trajsim::core::Point2::xy(100.0 + i as f64, -50.0))
        .collect();
    for (j, p) in pattern.iter().enumerate() {
        points[12 + j] = *p;
    }
    let track = Trajectory2::new(points);
    let eps = MatchThreshold::new(0.25).unwrap();
    let matches = trajsim::distance::edr_find_matches(&track, &pattern, eps, 0);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].start, 12);
    assert_eq!(matches[0].end, 16);
}
