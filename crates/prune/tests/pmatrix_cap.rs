//! The capped pmatrix against the exact one. `build_pmatrix` stores
//! `min(EDR(R, S), L − |S| + 1)`, with `L` the longest trajectory: no
//! entry above `L − |S|` can pass the near-triangle test, because a full
//! top-k's cutoff is at least `max(0, |Q| − L)` and `EDR(Q, R)` is at
//! most `max(|Q|, L)`. So every configuration with the triangle filter
//! must answer and count exactly alike on either matrix: same neighbour
//! ids and distances, EDR calls, DP cells, per-filter prune credit and
//! each stage's candidate flow — on variable-length data, for queries
//! longer than `L`, and for `k ≥ N`, where the top-k never fills.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajsim_core::{Dataset, MatchThreshold, Trajectory2, TrajectoryArena};
use trajsim_distance::edr_naive;
use trajsim_prune::{
    build_pmatrix, CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, KnnResult, Neighbor,
    ScanMode, Stage, FILTER_ORDERS,
};

const REFERENCES: usize = 12;

fn eps(v: f64) -> MatchThreshold {
    MatchThreshold::new(v).unwrap()
}

/// A walk of `len` points from `(x, y)`.
fn walk(rng: &mut StdRng, x: f64, y: f64, len: usize) -> Trajectory2 {
    let (mut x, mut y) = (x, y);
    Trajectory2::from_xy(
        &(0..len)
            .map(|_| {
                x += rng.gen_range(-0.3..0.3);
                y += rng.gen_range(-0.3..0.3);
                (x, y)
            })
            .collect::<Vec<_>>(),
    )
}

/// The first `len` points of one fixed walk from the origin: the
/// database holds its 30-point prefix, so the 45-point query built from
/// it has a neighbour at exactly `|Q| − L` = 15, the smallest cutoff the
/// cap's argument allows.
fn long_walk(len: usize) -> Trajectory2 {
    walk(&mut StdRng::seed_from_u64(7), 0.0, 0.0, len)
}

/// Short references and candidates clustered far from the queries, long
/// true neighbours near them (the shape under which the triangle filter
/// prunes), and random walks of every length from 1 to `L` = 30.
fn database(rng: &mut StdRng) -> Dataset<2> {
    let mut trajs = Vec::new();
    for _ in 0..REFERENCES {
        let len = rng.gen_range(3..=6);
        trajs.push(walk(rng, 40.0, 40.0, len));
    }
    trajs.push(long_walk(30));
    for len in [28, 25, 22, 30] {
        trajs.push(walk(rng, 0.0, 0.0, len));
    }
    for _ in 0..30 {
        let len = rng.gen_range(1..=6);
        trajs.push(walk(rng, 40.0, 40.0, len));
    }
    for _ in 0..25 {
        let (x, len) = (rng.gen_range(-5.0..5.0), rng.gen_range(1..=30));
        trajs.push(walk(rng, x, 0.0, len));
    }
    Dataset::new(trajs)
}

/// Neighbours, EDR calls, DP cells, the three prune counters (histogram,
/// q-gram, triangle) and each stage's candidates in and out.
type Footprint = (Vec<Neighbor>, usize, u64, [usize; 3], [(usize, usize); 3]);

/// The answer and every work counter of one query.
fn footprint(engine: &CombinedKnn<'_, 2>, query: &Trajectory2, k: usize) -> Footprint {
    let KnnResult { neighbors, stats } = engine.knn(query, k);
    let t = stats.timings;
    (
        neighbors,
        stats.edr_computed,
        stats.dp_cells,
        [
            stats.pruned_by_histogram,
            stats.pruned_by_qgram,
            stats.pruned_by_triangle,
        ],
        [t.histogram, t.qgram, t.triangle].map(|st| (st.candidates_in, st.candidates_out)),
    )
}

#[test]
fn capped_pmatrix_gives_the_exact_matrix_answers_and_counters() {
    let mut rng = StdRng::seed_from_u64(19);
    let db = database(&mut rng);
    let longest = db.iter().map(|(_, t)| t.len()).max().unwrap();
    assert_eq!(longest, 30);
    let e = eps(0.25);
    let t = db.trajectories();
    let exact: Vec<Vec<usize>> = (0..REFERENCES)
        .map(|r| t.iter().map(|s| edr_naive(&t[r], s, e)).collect())
        .collect();
    let capped = build_pmatrix(&TrajectoryArena::from_dataset(&db), e, REFERENCES);
    assert_ne!(capped, exact, "some entries must be capped");

    // Near the long neighbours, at and past L, plus three more.
    let mut queries: Vec<Trajectory2> = [24, 30, 36, 45]
        .into_iter()
        .map(|len| walk(&mut rng, 0.0, 0.0, len))
        .collect();
    queries.push(long_walk(45));
    queries.push(walk(&mut rng, 40.0, 40.0, 5));
    queries.push(walk(&mut rng, 2.0, 0.0, 1));
    assert!(queries.iter().any(|q| q.len() > longest));

    let mut triangle_prunes = 0;
    for stages in [&[Stage::Triangle] as &[Stage]]
        .into_iter()
        .chain(FILTER_ORDERS)
    {
        for scan in [ScanMode::Sequential, ScanMode::Sorted] {
            let config = CombinedConfig {
                stages,
                histogram: HistogramVariant::PerDimension,
                qgram_q: 1,
                max_triangle: REFERENCES,
                scan,
            };
            let built = CombinedKnn::build(&db, e, config);
            let fed = CombinedKnn::with_pmatrix(&db, e, config, exact.clone());
            for (qi, q) in queries.iter().enumerate() {
                for k in [1, 4, db.len(), db.len() + 3] {
                    let label = format!("{}: query {qi} (len {}), k = {k}", built.name(), q.len());
                    let capped = footprint(&built, q, k);
                    assert_eq!(capped, footprint(&fed, q, k), "{label}");
                    triangle_prunes += capped.3[2];
                }
            }
        }
    }
    assert!(triangle_prunes > 0, "the triangle filter never pruned");
}
