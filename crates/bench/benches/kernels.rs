//! Criterion micro-benchmarks of the hot kernels: the distance dynamic
//! programs (Figure 2's cost column), q-gram extraction and joining, the
//! histogram embedding and lower bounds, and the index substrates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trajsim_core::MatchThreshold;
use trajsim_data::{random_walk, seeded_rng};
use trajsim_distance::{
    dtw, dtw_banded, edr, edr_bitparallel, edr_naive, edr_within, edr_within_naive, erp, euclidean,
    lcss,
};
use trajsim_histogram::{histogram_distance, histogram_distance_quick, TrajectoryHistogram};
use trajsim_index::{Aabb, BPlusTree, RStarTree};
use trajsim_qgram::{mean_value_qgrams, SortedMeans};

fn eps() -> MatchThreshold {
    MatchThreshold::new(0.5).unwrap()
}

/// The O(m·n) distance DPs across trajectory lengths.
fn bench_distance_dps(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_dp");
    for len in [64usize, 256, 1024] {
        let mut rng = seeded_rng(7);
        let a = random_walk(&mut rng, len, 1.0).normalize();
        let b = random_walk(&mut rng, len, 1.0).normalize();
        group.bench_with_input(BenchmarkId::new("edr", len), &len, |bch, _| {
            bch.iter(|| black_box(edr(&a, &b, eps())))
        });
        group.bench_with_input(BenchmarkId::new("edr_within_tight", len), &len, |bch, _| {
            bch.iter(|| black_box(edr_within(&a, &b, eps(), len / 8)))
        });
        group.bench_with_input(BenchmarkId::new("dtw", len), &len, |bch, _| {
            bch.iter(|| black_box(dtw(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("dtw_band32", len), &len, |bch, _| {
            bch.iter(|| black_box(dtw_banded(&a, &b, 32)))
        });
        group.bench_with_input(BenchmarkId::new("erp", len), &len, |bch, _| {
            bch.iter(|| black_box(erp(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("lcss", len), &len, |bch, _| {
            bch.iter(|| black_box(lcss(&a, &b, eps())))
        });
        group.bench_with_input(BenchmarkId::new("euclidean", len), &len, |bch, _| {
            bch.iter(|| black_box(euclidean(&a, &b).unwrap()))
        });
    }
    group.finish();
}

/// The EDR kernel hierarchy head-to-head: naive rolling-row vs the
/// bit-parallel full DP, and naive early-abandon vs the sliding-band
/// bit-parallel kernel behind `edr_within`, at bounds of 1%, 5%, and 25%
/// of the trajectory length (the regimes where the band is respectively
/// one word, a few words, and most of the pattern).
fn bench_edr_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("edr_kernels");
    for len in [64usize, 256, 1024] {
        let mut rng = seeded_rng(11);
        let a = random_walk(&mut rng, len, 1.0).normalize();
        let b = random_walk(&mut rng, len, 1.0).normalize();
        group.bench_with_input(BenchmarkId::new("full_naive", len), &len, |bch, _| {
            bch.iter(|| black_box(edr_naive(&a, &b, eps())))
        });
        group.bench_with_input(BenchmarkId::new("full_bitparallel", len), &len, |bch, _| {
            bch.iter(|| black_box(edr_bitparallel(&a, &b, eps())))
        });
        for pct in [1usize, 5, 25] {
            let bound = (len * pct / 100).max(1);
            group.bench_with_input(
                BenchmarkId::new(format!("within_naive_b{pct}pct"), len),
                &len,
                |bch, _| bch.iter(|| black_box(edr_within_naive(&a, &b, eps(), bound))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("within_dispatch_b{pct}pct"), len),
                &len,
                |bch, _| bch.iter(|| black_box(edr_within(&a, &b, eps(), bound))),
            );
        }
    }
    group.finish();
}

/// Q-gram machinery: extraction and the sort-merge ε-join.
fn bench_qgrams(c: &mut Criterion) {
    let mut group = c.benchmark_group("qgram");
    let mut rng = seeded_rng(8);
    let a = random_walk(&mut rng, 512, 1.0).normalize();
    let b = random_walk(&mut rng, 512, 1.0).normalize();
    for q in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("extract_means", q), &q, |bch, &q| {
            bch.iter(|| black_box(mean_value_qgrams(&a, q)))
        });
        let (sa, sb) = (SortedMeans::build(&a, q), SortedMeans::build(&b, q));
        group.bench_with_input(BenchmarkId::new("merge_join", q), &q, |bch, _| {
            bch.iter(|| black_box(sa.match_count(&sb, eps())))
        });
    }
    group.finish();
}

/// Histogram embedding, the exact max-flow HD, and the quick bound.
fn bench_histograms(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    for len in [128usize, 512] {
        let mut rng = seeded_rng(9);
        let a = random_walk(&mut rng, len, 1.0).normalize();
        let b = random_walk(&mut rng, len, 1.0).normalize();
        group.bench_with_input(BenchmarkId::new("build", len), &len, |bch, _| {
            bch.iter(|| black_box(TrajectoryHistogram::build(&a, eps())))
        });
        let (ha, hb) = (
            TrajectoryHistogram::build(&a, eps()),
            TrajectoryHistogram::build(&b, eps()),
        );
        group.bench_with_input(BenchmarkId::new("hd_exact", len), &len, |bch, _| {
            bch.iter(|| black_box(histogram_distance(&ha, &hb)))
        });
        group.bench_with_input(BenchmarkId::new("hd_quick", len), &len, |bch, _| {
            bch.iter(|| black_box(histogram_distance_quick(&ha, &hb)))
        });
    }
    group.finish();
}

/// The index substrates: R*-tree and B+-tree build + range query.
fn bench_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("index");
    let mut rng = seeded_rng(10);
    let points: Vec<[f64; 2]> = (0..10_000)
        .map(|_| {
            use rand::Rng;
            [rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)]
        })
        .collect();
    group.bench_function("rstar_build_10k", |bch| {
        bch.iter(|| {
            let mut t = RStarTree::<2, usize>::new();
            for (i, p) in points.iter().enumerate() {
                t.insert(*p, i);
            }
            black_box(t.len())
        })
    });
    group.bench_function("rstar_bulk_load_10k", |bch| {
        bch.iter(|| {
            let items: Vec<([f64; 2], usize)> =
                points.iter().enumerate().map(|(i, p)| (*p, i)).collect();
            black_box(RStarTree::bulk_load(items).len())
        })
    });
    let mut tree = RStarTree::<2, usize>::new();
    for (i, p) in points.iter().enumerate() {
        tree.insert(*p, i);
    }
    group.bench_function("rstar_range_10k", |bch| {
        bch.iter(|| {
            let mut hits = 0usize;
            tree.for_each_in(&Aabb::around([0.0, 0.0], 10.0), |_, _| hits += 1);
            black_box(hits)
        })
    });
    group.bench_function("bplus_build_10k", |bch| {
        bch.iter(|| {
            let mut t = BPlusTree::new();
            for (i, p) in points.iter().enumerate() {
                t.insert(p[0], i);
            }
            black_box(t.len())
        })
    });
    let mut btree = BPlusTree::new();
    for (i, p) in points.iter().enumerate() {
        btree.insert(p[0], i);
    }
    group.bench_function("bplus_range_10k", |bch| {
        bch.iter(|| black_box(btree.count_range(-10.0, 10.0)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_distance_dps,
    bench_edr_kernels,
    bench_qgrams,
    bench_histograms,
    bench_indexes
);
criterion_main!(benches);
