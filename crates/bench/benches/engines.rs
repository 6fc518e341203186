//! Criterion benchmarks of whole k-NN queries: the sequential-scan
//! baseline against each pruning engine and the paper's best combination,
//! on a small NHL-like database — the per-query costs behind the Figure
//! 11–13 speedup ratios, plus the early-abandon ablation the paper does
//! not explore.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use trajsim_data::nhl_like;
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, QgramKnn, QgramVariant, ScanMode,
    SequentialScan,
};

fn bench_engines(c: &mut Criterion) {
    let data = nhl_like(42, 400).normalize();
    let sigma = trajsim_core::max_std_dev(data.trajectories()).unwrap();
    let eps = trajsim_core::MatchThreshold::new(2.0 * sigma).unwrap();
    let query = data.trajectories()[17].clone();
    let k = 20;

    let mut group = c.benchmark_group("knn_nhl400");
    group.sample_size(10);

    let seq = SequentialScan::new(&data, eps);
    group.bench_function("seq_scan", |b| b.iter(|| black_box(seq.knn(&query, k))));

    // The observability acceptance budget: with a sink installed and the
    // debug level on (every query emits its knn.query event), the scan may
    // not run more than ~5% slower than the default-off path above.
    struct NullSink;
    impl trajsim_obs::Sink for NullSink {
        fn emit(&self, record: &trajsim_obs::Record) {
            black_box(record.name);
        }
    }
    trajsim_obs::set_sink(Some(std::sync::Arc::new(NullSink)));
    trajsim_obs::set_level(trajsim_obs::Level::Debug);
    group.bench_function("seq_scan_traced", |b| {
        b.iter(|| black_box(seq.knn(&query, k)))
    });
    trajsim_obs::set_level(trajsim_obs::Level::Off);
    trajsim_obs::set_sink(None);

    // Same budget for the flight recorder: every query serialized to a
    // JSONL line (here into `io::sink()`, so the cost measured is
    // formatting + locking, not disk).
    let recorder = trajsim_profile::FlightRecorder::to_writer(Box::new(std::io::sink()));
    trajsim_obs::set_sink(Some(recorder));
    trajsim_obs::set_level(trajsim_obs::Level::Debug);
    group.bench_function("seq_scan_recorded", |b| {
        b.iter(|| black_box(seq.knn(&query, k)))
    });
    trajsim_obs::set_level(trajsim_obs::Level::Off);
    trajsim_obs::set_sink(None);

    let seq_ea = SequentialScan::new(&data, eps).with_early_abandon();
    group.bench_function("seq_scan_early_abandon", |b| {
        b.iter(|| black_box(seq_ea.knn(&query, k)))
    });

    let qgram = QgramKnn::build(&data, eps, 1, QgramVariant::MergeJoin2d);
    group.bench_function("qgram_ps2", |b| b.iter(|| black_box(qgram.knn(&query, k))));

    let hist = CombinedKnn::build(
        &data,
        eps,
        CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sorted),
    );
    group.bench_function("histogram_1he_hsr", |b| {
        b.iter(|| black_box(hist.knn(&query, k)))
    });

    let ntr = CombinedKnn::build(&data, eps, CombinedConfig::near_triangle_only(100));
    group.bench_function("near_triangle", |b| {
        b.iter(|| black_box(ntr.knn(&query, k)))
    });

    let combined = CombinedKnn::build(
        &data,
        eps,
        CombinedConfig {
            max_triangle: 100,
            ..CombinedConfig::default()
        },
    );
    group.bench_function("combined_1hpn", |b| {
        b.iter(|| black_box(combined.knn(&query, k)))
    });

    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
