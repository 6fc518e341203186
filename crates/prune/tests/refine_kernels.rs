//! Which DP each refine runs, and what the engines' clocks add up to.
//!
//! - The plain `SequentialScan` — the denominator of every speed-up the
//!   benchmarks report — runs the compare-built full DP on every
//!   candidate, on its serial, parallel and batched paths alike.
//! - The pruning engines run every refine on the band kernel, the exact
//!   ones (before the top-k fills, reference-pool ids) under
//!   `usize::MAX`.
//! - A query longer than the rank masks' 1 024-point limit refines on
//!   compare-built band words and still answers exactly.
//! - A query's timed parts never exceed its wall time, on every path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajsim_core::{Dataset, MatchThreshold, Trajectory2};
use trajsim_distance::{edr_counted, edr_naive, EdrWorkspace, QueryContext};
use trajsim_prune::cse::CseKnn;
use trajsim_prune::{
    CombinedConfig, CombinedKnn, KnnEngine, KnnResult, QgramKnn, QgramVariant, SequentialScan,
    Stage, StageTimings, FILTER_ORDERS,
};

fn eps(v: f64) -> MatchThreshold {
    MatchThreshold::new(v).unwrap()
}

/// Serializes the tests that set the process-global thread count.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A random walk of `len` points from `(x, 0)`.
fn walk(rng: &mut StdRng, x: f64, len: usize) -> Trajectory2 {
    let (mut x, mut y) = (x, 0.0);
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

/// `n` walks of lengths in `lens`, none a multiple of 64, so the
/// bit-parallel kernels' padded lane counts differ from `m·n`.
fn walks(seed: u64, n: usize, lens: std::ops::RangeInclusive<usize>) -> Dataset<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = loop {
                let len = rng.gen_range(lens.clone());
                if len % 64 != 0 {
                    break len;
                }
            };
            let x = rng.gen_range(-1.0..1.0);
            walk(&mut rng, x, len)
        })
        .collect()
}

fn queries(seed: u64, count: usize, lens: std::ops::RangeInclusive<usize>) -> Vec<Trajectory2> {
    walks(seed, count, lens).into_trajectories()
}

/// The free full DP's lanes for `q` against every trajectory: what the
/// plain scan must report.
fn full_dp_cells(db: &Dataset<2>, q: &Trajectory2, e: MatchThreshold) -> u64 {
    db.iter().map(|(_, s)| edr_counted(q, s, e).1).sum()
}

/// The band kernel's lanes under `usize::MAX` through a query context:
/// what an engine's exact refines must report.
fn band_cells(db: &Dataset<2>, q: &Trajectory2, e: MatchThreshold) -> u64 {
    let ctx = QueryContext::new(q.points(), e);
    let mut ws = EdrWorkspace::new();
    db.iter()
        .map(|(_, s)| ctx.edr_within_counted(s.points(), usize::MAX, &mut ws).1)
        .sum()
}

/// Whether the lanes above come from the naive kernel (the
/// `naive-kernel` feature of `trajsim-distance`), which counts `m·n`.
fn naive_kernel(db: &Dataset<2>, q: &Trajectory2, e: MatchThreshold) -> bool {
    let cells: u64 = db.iter().map(|(_, s)| (q.len() * s.len()) as u64).sum();
    full_dp_cells(db, q, e) == cells
}

#[test]
fn the_plain_scan_runs_the_full_dp_on_every_candidate() {
    let db = walks(1, 40, 5..=150);
    let qs = queries(2, 4, 5..=150);
    let e = eps(0.3);
    let n = db.len();
    let want: Vec<u64> = qs.iter().map(|q| full_dp_cells(&db, q, e)).collect();
    let check = |r: &KnnResult, qi: usize, label: &str| {
        assert_eq!(r.stats.edr_computed, n, "{label}: query {qi}");
        assert_eq!(r.stats.dp_cells, want[qi], "{label}: query {qi}");
    };
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trajsim_parallel::set_num_threads(2);
    for k in [1, 5, n + 3] {
        let serial = SequentialScan::new(&db, e);
        let parallel = SequentialScan::new(&db, e).with_parallel();
        for (qi, q) in qs.iter().enumerate() {
            check(&serial.knn(q, k), qi, &format!("serial, k = {k}"));
            check(&parallel.knn(q, k), qi, &format!("parallel, k = {k}"));
        }
        for (qi, r) in serial.knn_batch(&qs, k).iter().enumerate() {
            check(r, qi, &format!("batched, k = {k}"));
        }
    }
    trajsim_parallel::set_num_threads(0);
}

/// One engine's answer to a query, as a boxed call.
type Query<'a> = Box<dyn Fn(&Trajectory2) -> KnnResult + 'a>;

#[test]
fn the_engines_exact_refines_run_the_band_kernel() {
    // With k above N the top-k never fills: every refine is exact, and
    // nothing is pruned. Queries longer than most candidates tell the
    // kernels apart: the band's pattern is the query, the full DP's the
    // shorter side.
    let db = walks(3, 30, 5..=150);
    let qs = queries(4, 3, 129..=150);
    let e = eps(0.3);
    let k = db.len() + 1;
    let mut engines: Vec<(String, Query<'_>)> = Vec::new();
    let mut lists: Vec<&'static [Stage]> = FILTER_ORDERS.to_vec();
    lists.extend([&[] as &[Stage], &[Stage::Histogram], &[Stage::Triangle]]);
    for stages in lists {
        let config = CombinedConfig {
            stages,
            max_triangle: 6,
            ..CombinedConfig::default()
        };
        let engine = CombinedKnn::build(&db, e, config);
        engines.push((engine.name(), Box::new(move |q| engine.knn(q, k))));
    }
    let range = CombinedKnn::build(&db, e, CombinedConfig::default());
    engines.push((
        "range".into(),
        Box::new(move |q| range.range(q, usize::MAX)),
    ));
    let cse = CseKnn::build(&db, e, 6);
    engines.push((cse.name(), Box::new(move |q| cse.knn(q, k))));
    for variant in [QgramVariant::MergeJoin2d, QgramVariant::IndexedRtree] {
        let qgram = QgramKnn::build(&db, e, 1, variant);
        engines.push((qgram.name(), Box::new(move |q| qgram.knn(q, k))));
    }
    for (qi, q) in qs.iter().enumerate() {
        let band = band_cells(&db, q, e);
        if !naive_kernel(&db, q, e) {
            assert_ne!(band, full_dp_cells(&db, q, e), "query {qi}: kernels agree");
        }
        for (name, run) in &engines {
            let r = run(q);
            assert_eq!(r.stats.edr_computed, db.len(), "{name}: query {qi}");
            assert_eq!(r.stats.dp_cells, band, "{name}: query {qi}");
        }
    }
}

#[test]
fn the_first_refine_of_a_cascade_is_the_band_kernels() {
    let db = walks(5, 1, 70..=120);
    let q = &queries(6, 1, 129..=150)[0];
    let e = eps(0.3);
    let r = CombinedKnn::build(&db, e, CombinedConfig::default()).knn(q, 1);
    assert_eq!(r.stats.edr_computed, 1);
    assert_eq!(r.stats.dp_cells, band_cells(&db, q, e));
    if !naive_kernel(&db, q, e) {
        assert_ne!(r.stats.dp_cells, full_dp_cells(&db, q, e));
    }
}

#[test]
fn queries_past_the_rank_mask_limit_answer_exactly() {
    // Longer than the 1 024 points that rank masks cover: every refine
    // builds its band words by compares.
    let mut db = walks(7, 7, 1_025..=1_150).into_trajectories();
    db.extend(walks(8, 3, 20..=300).into_trajectories());
    let mut qs = queries(9, 2, 1_030..=1_120);
    // A near-copy of a stored walk, so some distances are small.
    let mut rng = StdRng::seed_from_u64(10);
    let near: Vec<(f64, f64)> = db[2]
        .points()
        .iter()
        .map(|p| (p.x() + rng.gen_range(-0.1..0.1), p.y()))
        .collect();
    qs.push(Trajectory2::from_xy(&near));
    let db = Dataset::new(db);
    let e = eps(0.3);
    let naive: Vec<Vec<usize>> = qs
        .iter()
        .map(|q| db.iter().map(|(_, s)| edr_naive(q, s, e)).collect())
        .collect();
    let k = 3;
    let mut lists: Vec<&'static [Stage]> = FILTER_ORDERS.to_vec();
    lists.extend([&[] as &[Stage], &[Stage::Histogram]]);
    for stages in lists {
        let config = CombinedConfig {
            stages,
            max_triangle: 4,
            ..CombinedConfig::default()
        };
        let engine = CombinedKnn::build(&db, e, config);
        for (qi, q) in qs.iter().enumerate() {
            let mut want = naive[qi].clone();
            want.sort_unstable();
            want.truncate(k);
            let got = engine.knn(q, k);
            assert_eq!(got.distances(), want, "{}: query {qi}", engine.name());
            for nb in &got.neighbors {
                assert_eq!(nb.dist, naive[qi][nb.id], "{}: query {qi}", engine.name());
            }
        }
    }
    let engine = CombinedKnn::build(&db, e, CombinedConfig::default());
    for (qi, q) in qs.iter().enumerate() {
        let mut sorted = naive[qi].clone();
        sorted.sort_unstable();
        for radius in [0, sorted[0], sorted[sorted.len() / 2], usize::MAX] {
            let mut want: Vec<(usize, usize)> = naive[qi]
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d <= radius)
                .map(|(id, &d)| (id, d))
                .collect();
            want.sort_by_key(|&(id, d)| (d, id));
            let got: Vec<(usize, usize)> = engine
                .range(q, radius)
                .neighbors
                .iter()
                .map(|nb| (nb.id, nb.dist))
                .collect();
            assert_eq!(got, want, "range: query {qi}, radius {radius}");
        }
    }
}

/// The named parts of one query's time must fit inside its wall time, or
/// `other_ns` would saturate at zero and hide the overlap.
fn assert_conserves_time(t: &StageTimings, label: &str) {
    let parts: u64 = t.parts().iter().map(|&(_, ns)| ns).sum();
    assert!(
        parts <= t.total_ns,
        "{label}: parts {:?} sum to {parts} ns, above the total {} ns",
        t.parts(),
        t.total_ns
    );
    assert_eq!(t.other_ns(), t.total_ns - parts, "{label}");
}

#[test]
fn per_query_stage_times_never_exceed_the_total() {
    // Two workers, so the parallel scan and every batch run on a pool.
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trajsim_parallel::set_num_threads(2);
    let db = walks(11, 60, 5..=120);
    let qs = queries(12, 6, 5..=120);
    let e = eps(0.3);
    let mut engines: Vec<Box<dyn KnnEngine<2> + Sync + '_>> = vec![
        Box::new(SequentialScan::new(&db, e)),
        Box::new(SequentialScan::new(&db, e).with_parallel()),
        Box::new(QgramKnn::build(&db, e, 1, QgramVariant::MergeJoin2d)),
        Box::new(CseKnn::build(&db, e, 8)),
    ];
    let mut lists: Vec<&'static [Stage]> = FILTER_ORDERS.to_vec();
    lists.extend([&[] as &[Stage], &[Stage::Histogram], &[Stage::Triangle]]);
    for stages in lists {
        let config = CombinedConfig {
            stages,
            max_triangle: 8,
            ..CombinedConfig::default()
        };
        engines.push(Box::new(CombinedKnn::build(&db, e, config)));
    }
    for engine in &engines {
        let name = engine.name();
        for k in [1, 5] {
            for (qi, q) in qs.iter().enumerate() {
                let r = engine.knn(q, k);
                assert_conserves_time(&r.stats.timings, &format!("{name}: query {qi}"));
            }
            for (qi, r) in engine.knn_batch(&qs, k).iter().enumerate() {
                assert_conserves_time(&r.stats.timings, &format!("{name}: batch query {qi}"));
            }
        }
    }
    let range = CombinedKnn::build(&db, e, CombinedConfig::default());
    for (qi, q) in qs.iter().enumerate() {
        for radius in [0, 10, 60] {
            let r = range.range(q, radius);
            assert_conserves_time(&r.stats.timings, &format!("range: query {qi}, r {radius}"));
        }
    }
    trajsim_parallel::set_num_threads(0);
}
