//! The continuous-benchmark regression guard: a pinned micro-suite of
//! EDR kernels and pruning engines, timestamped result files, and a
//! noise-aware comparison against a committed baseline.
//!
//! Raw wall times are useless across machines, so every case is scored
//! relative to a per-suite *anchor* case measured in the same process:
//! `score = median(case) / median(anchor)`. Anchor-normalized scores are
//! ratios of similar work and transfer across hardware far better than
//! seconds do. The comparison tolerance widens with the measured
//! dispersion of both sides (median absolute deviation relative to the
//! median), so noisy environments do not produce false alarms — and a
//! genuine 2x slowdown still always trips the guard (the tolerance is
//! capped well below 100%). The model is documented in `DESIGN.md` §9.
//!
//! Engine cases also carry their accumulated work counters (EDR
//! computations, DP cells, prunes per filter). Those are deterministic at
//! a fixed thread count, so `--check` compares them exactly: a counter
//! that moves fails the check until the baseline is rewritten.

use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trajsim_art::{ArtScratch, HistCandidate, HistogramArtIndex, QgramArtIndex, QuerySignature};
use trajsim_core::{Dataset, MatchThreshold, Point2, Trajectory2, TrajectoryArena};
use trajsim_data::{random_walk_from, random_walk_set, seeded_rng, LengthDistribution};
use trajsim_distance::{edr, edr_counted_with, edr_within, EdrWorkspace, QueryContext};
use trajsim_histogram::{histogram_distance_quick, TrajectoryHistogram};
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, QgramKnn, QgramVariant, QueryStats,
    ScanMode, SequentialScan, Stage,
};
use trajsim_qgram::SortedMeans;

/// Median of a sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation: `median(|x - median(xs)|)` — the robust
/// dispersion measure the guard's noise model is built on.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The machine identity recorded in every result file, so a baseline
/// measured elsewhere is recognizable as such.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Resolved worker-thread count.
    pub threads: usize,
}

impl Fingerprint {
    /// The fingerprint of the current process.
    pub fn current() -> Fingerprint {
        let (threads, _) = trajsim_parallel::num_threads_with_source();
        Fingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads,
        }
    }
}

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case name (`edr_128`, `filter_qgram`, ...).
    pub name: String,
    /// Every run's wall time, seconds, in measurement order.
    pub runs_s: Vec<f64>,
    /// Median wall time, seconds.
    pub median_s: f64,
    /// Median absolute deviation of the runs, seconds.
    pub mad_s: f64,
    /// `median_s / anchor median_s` — the machine-portable number the
    /// guard compares. The anchor case scores exactly 1.
    pub score: f64,
    /// Accumulated query statistics, for engine cases (kernel cases have
    /// none). Counters are deterministic; only timings vary run to run.
    pub stats: Option<QueryStats>,
}

impl CaseResult {
    /// `mad_s / median_s`: the case's relative dispersion, the input of
    /// the noise-aware tolerance.
    pub fn rel_dispersion(&self) -> f64 {
        if self.median_s > 0.0 {
            self.mad_s / self.median_s
        } else {
            0.0
        }
    }
}

/// One full suite measurement: what `BENCH_<suite>.json` holds.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Suite name (`kernels`, `filters`, `refine`, `obs` or `art`).
    pub suite: String,
    /// Name of the anchor case every score is normalized by.
    pub anchor: String,
    /// Seconds since the Unix epoch when the suite ran.
    pub timestamp_unix_s: u64,
    /// Runs measured per case.
    pub runs_per_case: usize,
    /// Machine identity of the measurement.
    pub fingerprint: Fingerprint,
    /// Every case, anchor first.
    pub cases: Vec<CaseResult>,
}

/// How to run a suite.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Timed repetitions per case (median over these). Default 5.
    pub runs: usize,
    /// `(case name, factor)` pairs: multiply the measured times of the
    /// named case by the factor. A self-test knob — `--inject edr_128:2.0`
    /// demonstrates that the guard catches a 2x slowdown without having
    /// to plant one in the kernel.
    pub inject: Vec<(String, f64)>,
    /// Shrink data sizes to test scale (for the guard's own tests and
    /// smoke runs; baselines must use `quick: false`).
    pub quick: bool,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            runs: 5,
            inject: Vec::new(),
            quick: false,
        }
    }
}

/// The five pinned suites.
pub const SUITES: [&str; 5] = ["kernels", "filters", "refine", "obs", "art"];

struct Case<'a> {
    name: String,
    work: Box<dyn FnMut() -> Option<QueryStats> + 'a>,
}

fn measure(cases: Vec<Case<'_>>, anchor: &str, suite: &str, cfg: &GuardConfig) -> SuiteRun {
    let mut results: Vec<CaseResult> = Vec::new();
    for mut case in cases {
        let mut runs_s = Vec::with_capacity(cfg.runs);
        let mut stats: Option<QueryStats> = None;
        for _ in 0..cfg.runs {
            let t = Instant::now();
            let s = (case.work)();
            runs_s.push(t.elapsed().as_secs_f64());
            stats = s.or(stats);
        }
        if let Some((_, factor)) = cfg.inject.iter().find(|(n, _)| *n == case.name) {
            for r in &mut runs_s {
                *r *= factor;
            }
        }
        let median_s = median(&runs_s);
        results.push(CaseResult {
            name: std::mem::take(&mut case.name),
            median_s,
            mad_s: mad(&runs_s),
            runs_s,
            score: 0.0, // filled below once the anchor median is known
            stats,
        });
    }
    let anchor_median = results
        .iter()
        .find(|c| c.name == anchor)
        .map(|c| c.median_s)
        .expect("anchor case is part of the suite");
    for c in &mut results {
        c.score = if anchor_median > 0.0 {
            c.median_s / anchor_median
        } else {
            1.0
        };
    }
    SuiteRun {
        suite: suite.to_string(),
        anchor: anchor.to_string(),
        timestamp_unix_s: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        runs_per_case: cfg.runs,
        fingerprint: Fingerprint::current(),
        cases: results,
    }
}

/// Runs the named suite.
///
/// - `kernels` times the EDR kernels on pinned random-walk pairs:
///   full-matrix EDR at three lengths (anchor: the longest) and the
///   early-abandoning `edr_within` at a tight bound.
/// - `filters` times each pruning engine answering a pinned k-NN
///   workload (anchor: the sequential scan), so a regression in any
///   single filter is attributable.
/// - `refine` times the refine stage both ways: per-call scratch
///   allocation (the pre-workspace behaviour) against the reused
///   query-scoped workspace over arena views (anchor: the allocating
///   path at the longest length), so the allocation-free path's
///   advantage is itself guarded; `refine_exact_*` times the pruning
///   engines' exact refine on the same pairs
///   (`QueryContext::edr_within_counted` under `usize::MAX`, its lanes
///   the work counter), and `refine_bounded_*` the bounded refine (the
///   same call at a k-th best bound on normalized walks), both the
///   sliding-band kernel with rank-mask words.
/// - `obs` times the telemetry overhead: the same sequential-scan
///   workload with tracing off (the anchor), with a null sink at debug
///   level, and with the flight recorder serializing every query — the
///   scores *are* the relative overheads, so the recorder's <5% budget
///   is a guarded number, not a claim.
/// - `art` times candidate generation both ways at 1x/10x/100x dataset
///   scale on a clustered workload (anchor: the 1x signature scan):
///   `probe_seq_*` scans every trajectory's signatures the way the plain
///   combined engine does, `probe_art_*` walks the ART signature
///   indexes — so the index's sublinear scaling is itself a guarded
///   number (`probe_art_100x` must stay far below 100x the 1x cost while
///   `probe_seq_100x` grows with the dataset).
///
/// # Errors
///
/// Fails on an unknown suite name.
pub fn run_suite(suite: &str, cfg: &GuardConfig) -> Result<SuiteRun, String> {
    match suite {
        "kernels" => Ok(run_kernels(cfg)),
        "filters" => Ok(run_filters(cfg)),
        "refine" => Ok(run_refine(cfg)),
        "obs" => Ok(run_obs(cfg)),
        "art" => Ok(run_art(cfg)),
        other => Err(format!(
            "unknown suite {other:?} (kernels|filters|refine|obs|art)"
        )),
    }
}

fn run_kernels(cfg: &GuardConfig) -> SuiteRun {
    let (lens, reps): (&[usize], usize) = if cfg.quick {
        (&[16, 32, 64], 1)
    } else {
        (&[64, 128, 256], 3)
    };
    let mut rng = seeded_rng(0xBEEF);
    let pairs: Vec<_> = lens
        .iter()
        .map(|&len| {
            let ds = random_walk_set(
                &mut rng,
                2,
                LengthDistribution::Uniform { min: len, max: len },
            );
            let eps = crate::pick_eps(&ds);
            (ds, eps)
        })
        .collect();
    let anchor = format!("edr_{}", lens[2]);
    let mut cases: Vec<Case<'_>> = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let (ds, eps) = &pairs[i];
        let (r, s) = (&ds.trajectories()[0], &ds.trajectories()[1]);
        cases.push(Case {
            name: format!("edr_{len}"),
            work: Box::new(move || {
                for _ in 0..reps {
                    std::hint::black_box(edr(r, s, *eps));
                }
                None
            }),
        });
    }
    // Early-abandoning kernel under a tight bound, on the longest pair.
    let (ds, eps) = &pairs[2];
    let (r, s) = (&ds.trajectories()[0], &ds.trajectories()[1]);
    let bound = r.len() / 8;
    cases.push(Case {
        name: format!("edr_within_{}", lens[2]),
        work: Box::new(move || {
            for _ in 0..reps {
                std::hint::black_box(edr_within(r, s, *eps, bound));
            }
            None
        }),
    });
    measure(cases, &anchor, "kernels", cfg)
}

fn run_filters(cfg: &GuardConfig) -> SuiteRun {
    let (n, lens, queries, k, pool) = if cfg.quick {
        (16, (16, 48), 3, 3, 8)
    } else {
        (96, (30, 192), 5, 5, 48)
    };
    let ds = random_walk_set(
        &mut seeded_rng(0xF00D),
        n,
        LengthDistribution::Uniform {
            min: lens.0,
            max: lens.1,
        },
    );
    let eps = crate::retrieval_eps(&ds);
    let qs = crate::probing_queries(&ds, queries);
    let scan = SequentialScan::new(&ds, eps);
    let qgram = QgramKnn::build(&ds, eps, 1, QgramVariant::MergeJoin2d);
    let histogram = CombinedKnn::build(
        &ds,
        eps,
        CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sorted),
    );
    let triangle = CombinedKnn::build(&ds, eps, CombinedConfig::near_triangle_only(pool));
    let combined = CombinedKnn::build(
        &ds,
        eps,
        CombinedConfig {
            max_triangle: pool,
            ..Default::default()
        },
    );
    let workload = |engine: &dyn Fn(usize) -> QueryStats| -> QueryStats {
        let mut acc = QueryStats::default();
        for qi in 0..qs.len() {
            acc.accumulate(&engine(qi));
        }
        acc
    };
    let cases: Vec<Case<'_>> = vec![
        Case {
            name: "seqscan".into(),
            work: Box::new(|| Some(workload(&|qi| scan.knn(&qs[qi], k).stats))),
        },
        Case {
            name: "filter_qgram".into(),
            work: Box::new(|| Some(workload(&|qi| qgram.knn(&qs[qi], k).stats))),
        },
        Case {
            name: "filter_histogram".into(),
            work: Box::new(|| Some(workload(&|qi| histogram.knn(&qs[qi], k).stats))),
        },
        Case {
            name: "filter_triangle".into(),
            work: Box::new(|| Some(workload(&|qi| triangle.knn(&qs[qi], k).stats))),
        },
        Case {
            name: "filter_combined".into(),
            work: Box::new(|| Some(workload(&|qi| combined.knn(&qs[qi], k).stats))),
        },
    ];
    measure(cases, "seqscan", "filters", cfg)
}

fn run_refine(cfg: &GuardConfig) -> SuiteRun {
    let (lens, n, reps): (&[usize], usize, usize) = if cfg.quick {
        (&[32, 64], 8, 1)
    } else {
        (&[256, 1024], 24, 2)
    };
    let mut rng = seeded_rng(0xA110C);
    let workloads: Vec<_> = lens
        .iter()
        .map(|&len| {
            let ds = random_walk_set(
                &mut rng,
                n,
                LengthDistribution::Uniform { min: len, max: len },
            );
            let eps = crate::pick_eps(&ds);
            let arena = TrajectoryArena::from_dataset(&ds);
            (ds, arena, eps)
        })
        .collect();
    let anchor = format!("refine_alloc_{}", lens[1]);
    let mut cases: Vec<Case<'_>> = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let (ds, arena, eps) = &workloads[i];
        // EDR cost is quadratic in length; scale repetitions so every
        // case burns comparable wall time and the short-length medians
        // are as jitter-resistant as the long ones.
        let reps = reps * (lens[1] / len) * (lens[1] / len);
        let query = &ds.trajectories()[0];
        cases.push(Case {
            name: format!("refine_alloc_{len}"),
            // The pre-workspace refine loop: a fresh scratch per EDR
            // call, candidates read through their interleaved point
            // slices — the bit-parallel kernel rebuilds its ε-match
            // bit-vector from AoS coordinate pairs every row.
            work: Box::new(move || {
                for _ in 0..reps {
                    for (_, s) in ds.iter() {
                        let mut ws = EdrWorkspace::new();
                        std::hint::black_box(edr_counted_with(
                            query.points(),
                            s.points(),
                            *eps,
                            &mut ws,
                        ));
                    }
                }
                None
            }),
        });
        let mut ws = EdrWorkspace::with_capacity(arena.max_len());
        let ctx = QueryContext::new(arena.view(0), *eps);
        // The bounded refine every engine runs once its top-k is full, on
        // the walks normalized as the CLI does, at the retrieval ε and a
        // k-th best bound (k = 5, the query itself included). Each
        // repetition is a fresh query: a new context, whose rank masks
        // the first bounded call builds. A bounded pass is ~10x cheaper
        // than a full one, so it runs 10x the repetitions.
        let normalized = ds.normalize();
        let retrieval = crate::retrieval_eps(&normalized);
        let normalized = TrajectoryArena::from_dataset(&normalized);
        let bound = {
            let kth = QueryContext::new(normalized.view(0), retrieval);
            let mut d: Vec<usize> = normalized
                .views()
                .map(|(_, s)| kth.edr(s, &mut ws))
                .collect();
            d.sort_unstable();
            d[4]
        };
        cases.push(Case {
            name: format!("refine_ws_{len}"),
            // The allocation-free refine loop: one query context, one
            // grow-only workspace, candidates in arena layout order —
            // the ε-match bit-vector build becomes branch-free strided
            // compares over the SoA columns.
            work: Box::new(move || {
                for _ in 0..reps {
                    for (_, s) in arena.views() {
                        std::hint::black_box(ctx.edr_counted(s, &mut ws));
                    }
                }
                None
            }),
        });
        let mut exact_ws = EdrWorkspace::with_capacity(arena.max_len());
        let exact_ctx = QueryContext::new(arena.view(0), *eps);
        cases.push(Case {
            name: format!("refine_exact_{len}"),
            // The pruning engines' exact refine (before the top-k fills,
            // and for reference-pool ids): the same pairs as
            // `refine_ws_*`, on the band kernel under an unbounded bound.
            // Its summed lanes are the work counter `--check` holds
            // exactly (on these equal-length pairs they equal the full
            // DP's; `refine_kernels.rs` tells the kernels apart).
            work: Box::new(move || {
                let mut stats = QueryStats::default();
                for _ in 0..reps {
                    for (_, s) in arena.views() {
                        let (d, cells) = exact_ctx.edr_within_counted(s, usize::MAX, &mut exact_ws);
                        std::hint::black_box(d);
                        stats.database_size += 1;
                        stats.edr_computed += 1;
                        stats.dp_cells += cells;
                    }
                }
                Some(stats)
            }),
        });
        let mut bounded_ws = EdrWorkspace::with_capacity(arena.max_len());
        cases.push(Case {
            name: format!("refine_bounded_{len}"),
            work: Box::new(move || {
                for _ in 0..10 * reps {
                    let ctx = QueryContext::new(normalized.view(0), retrieval);
                    for (_, s) in normalized.views() {
                        std::hint::black_box(ctx.edr_within_counted(s, bound, &mut bounded_ws));
                    }
                }
                None
            }),
        });
    }
    measure(cases, &anchor, "refine", cfg)
}

fn run_obs(cfg: &GuardConfig) -> SuiteRun {
    // Three passes over one pinned serial-scan workload, differing only
    // in what the telemetry globals are set to. Scores are ratios to the
    // telemetry-off anchor, so `seqscan_recorded`'s score is directly
    // the flight recorder's relative overhead (1.05 = the 5% budget).
    // The sink swaps happen inside the timed closures; they are a few
    // atomics against a multi-query scan workload.
    let (n, lens, nq, k) = if cfg.quick {
        (16, (16, 48), 3, 3)
    } else {
        (96, (30, 192), 5, 5)
    };
    let ds = random_walk_set(
        &mut seeded_rng(0x0B5),
        n,
        LengthDistribution::Uniform {
            min: lens.0,
            max: lens.1,
        },
    );
    let eps = crate::retrieval_eps(&ds);
    let qs = crate::probing_queries(&ds, nq);
    let scan = SequentialScan::new(&ds, eps);
    let workload = || {
        let mut acc = QueryStats::default();
        for q in &qs {
            acc.accumulate(&scan.knn(q, k).stats);
        }
        acc
    };
    struct NullSink;
    impl trajsim_obs::Sink for NullSink {
        fn emit(&self, record: &trajsim_obs::Record) {
            std::hint::black_box(record.name);
        }
    }
    // The live telemetry endpoint, for the endpoint-under-scrape-load
    // case: one server on an ephemeral port plus a scraper thread that
    // GETs /metrics on a 10ms cadence — but only while the flag is up,
    // so the anchor and the other cases run unloaded. 100 scrapes/s is
    // ~1500x a default Prometheus interval; a sleepless hammer loop is
    // deliberately not used because on a single-core box it measures
    // CPU contention with the scraper *client*, not the endpoint.
    // Serving failures (no loopback in some sandboxes) degrade the
    // case to bare workload rather than failing the suite.
    use std::sync::atomic::{AtomicBool, Ordering};
    let server = trajsim_obs::serve("127.0.0.1:0", trajsim_obs::metrics::global()).ok();
    let scrape_active = std::sync::Arc::new(AtomicBool::new(false));
    let scraper_stop = std::sync::Arc::new(AtomicBool::new(false));
    let scraper = server.as_ref().map(|s| {
        let addr = s.addr().to_string();
        let active = std::sync::Arc::clone(&scrape_active);
        let stop = std::sync::Arc::clone(&scraper_stop);
        std::thread::spawn(move || {
            let timeout = std::time::Duration::from_secs(1);
            while !stop.load(Ordering::Relaxed) {
                if active.load(Ordering::Relaxed) {
                    let _ = std::hint::black_box(trajsim_obs::http_get(&addr, "/metrics", timeout));
                    std::thread::sleep(std::time::Duration::from_millis(10));
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        })
    });
    let cases: Vec<Case<'_>> = vec![
        Case {
            name: "seqscan_plain".into(),
            work: Box::new(|| Some(workload())),
        },
        Case {
            name: "seqscan_traced".into(),
            work: Box::new(|| {
                trajsim_obs::set_sink(Some(std::sync::Arc::new(NullSink)));
                trajsim_obs::set_level(trajsim_obs::Level::Debug);
                let acc = workload();
                trajsim_obs::set_level(trajsim_obs::Level::Off);
                trajsim_obs::set_sink(None);
                Some(acc)
            }),
        },
        Case {
            name: "seqscan_recorded".into(),
            work: Box::new(|| {
                let recorder =
                    trajsim_profile::FlightRecorder::to_writer(Box::new(std::io::sink()));
                trajsim_obs::set_sink(Some(recorder));
                trajsim_obs::set_level(trajsim_obs::Level::Debug);
                let acc = workload();
                trajsim_obs::set_level(trajsim_obs::Level::Off);
                trajsim_obs::set_sink(None);
                Some(acc)
            }),
        },
        Case {
            name: "seqscan_sampled".into(),
            work: Box::new(|| {
                // Tail-sampled recorder: the keep/drop decision runs per
                // query, but dropped records skip serialization entirely,
                // so this configuration must not cost more than the full
                // recorder (the ≤2% always-on budget).
                let recorder = trajsim_profile::FlightRecorder::sampled_to_writer(
                    Box::new(std::io::sink()),
                    trajsim_profile::SamplerConfig::every(4),
                );
                trajsim_obs::set_sink(Some(recorder));
                trajsim_obs::set_level(trajsim_obs::Level::Debug);
                let acc = workload();
                trajsim_obs::set_level(trajsim_obs::Level::Off);
                trajsim_obs::set_sink(None);
                Some(acc)
            }),
        },
        Case {
            name: "seqscan_scraped".into(),
            work: Box::new(|| {
                // Telemetry endpoint under scrape load: the scraper
                // thread hits GET /metrics continuously while the
                // workload runs (the ≤2% endpoint budget). If the
                // server failed to bind, the flag flips but nobody
                // reads it and the case degenerates to bare workload.
                scrape_active.store(true, Ordering::Relaxed);
                let acc = workload();
                scrape_active.store(false, Ordering::Relaxed);
                Some(acc)
            }),
        },
    ];
    let run = measure(cases, "seqscan_plain", "obs", cfg);
    scraper_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = scraper {
        let _ = handle.join();
    }
    if let Some(server) = server {
        server.shutdown();
    }
    run
}

/// Per-scale state of the `art` suite: one clustered dataset with its
/// signatures built both ways (the flat per-trajectory arrays the
/// signature scan reads, and the two trie indexes the probe walks).
/// Signature and index construction happen here, outside the timed
/// closures — the suite measures candidate *generation*, not build time.
struct ArtScale {
    label: &'static str,
    means: Vec<SortedMeans<2>>,
    hists: Vec<Vec<TrajectoryHistogram<1>>>,
    qgram_index: QgramArtIndex<2>,
    hist_index: HistogramArtIndex<2>,
}

fn run_art(cfg: &GuardConfig) -> SuiteRun {
    // Sublinearity of ART candidate generation, measured at three
    // dataset scales of one clustered workload. Scaling multiplies the
    // number of *sites* (fresh clusters elsewhere on the grid), not the
    // density near the queries: the first `base_sites` cluster centres
    // are identical at every scale, and the queries walk around those
    // first centres. The per-candidate signature scan — exactly the
    // quick-bound + merge-join work the plain combined engine spends on
    // every trajectory — therefore grows ~linearly with the dataset,
    // while the trie probe's cost tracks what the query touches (its
    // own grams/cells plus the postings of nearby sites, which scaling
    // leaves unchanged). ε is pinned rather than derived from the data:
    // the dataset's σ grows with the grid, and a σ-derived ε would
    // dilate the cells until every site matched every query.
    let (base_sites, per_site, len, nq, reps) = if cfg.quick {
        (4usize, 3usize, 8usize, 2usize, 1usize)
    } else {
        (12, 4, 12, 4, 12)
    };
    let eps = MatchThreshold::new(0.25).expect("pinned bench epsilon");
    let q = 2usize;
    // Site centres on a fixed-width grid, 100 units apart — far beyond
    // any walk's reach, so clusters never overlap. Fixed row width keeps
    // centre `i` at the same coordinates at every scale.
    let centre = |site: usize| Point2::xy(100.0 * (site % 8) as f64, 100.0 * (site / 8) as f64);
    let queries: Vec<Trajectory2> = {
        let mut rng = seeded_rng(0xA970);
        (0..nq)
            .map(|i| random_walk_from(&mut rng, centre(i), len, 1.0))
            .collect()
    };
    let query_means: Vec<SortedMeans<2>> =
        queries.iter().map(|t| SortedMeans::build(t, q)).collect();
    let query_hists: Vec<Vec<TrajectoryHistogram<1>>> = queries
        .iter()
        .map(|t| {
            (0..2)
                .map(|dim| TrajectoryHistogram::<2>::build_projected(t, eps, dim))
                .collect()
        })
        .collect();
    let scales: Vec<ArtScale> = [("1x", 1usize), ("10x", 10), ("100x", 100)]
        .into_iter()
        .map(|(label, scale)| {
            // One rng per scale, same seed: the 1x dataset is literally
            // the prefix of the 100x one.
            let mut rng = seeded_rng(0xA971);
            let ds: Dataset<2> = (0..base_sites * scale)
                .flat_map(|site| {
                    (0..per_site)
                        .map(|_| random_walk_from(&mut rng, centre(site), len, 1.0))
                        .collect::<Vec<_>>()
                })
                .collect();
            let means: Vec<SortedMeans<2>> =
                ds.iter().map(|(_, t)| SortedMeans::build(t, q)).collect();
            let hists: Vec<Vec<TrajectoryHistogram<1>>> = ds
                .iter()
                .map(|(_, t)| {
                    (0..2)
                        .map(|dim| TrajectoryHistogram::<2>::build_projected(t, eps, dim))
                        .collect()
                })
                .collect();
            let qgram_index = QgramArtIndex::build(&means, eps);
            let hist_index = HistogramArtIndex::build_per_dim(&hists);
            ArtScale {
                label,
                means,
                hists,
                qgram_index,
                hist_index,
            }
        })
        .collect();
    let mut cases: Vec<Case<'_>> = Vec::new();
    for sd in &scales {
        let (query_means, query_hists, queries) = (&query_means, &query_hists, &queries);
        cases.push(Case {
            name: format!("probe_seq_{}", sd.label),
            // The scan path: every trajectory pays a per-dimension quick
            // histogram bound plus a mean-value merge join per query.
            work: Box::new(move || {
                for _ in 0..reps {
                    for (qm, qh) in query_means.iter().zip(query_hists) {
                        for (sm, sh) in sd.means.iter().zip(&sd.hists) {
                            let quick = qh
                                .iter()
                                .zip(sh)
                                .map(|(a, b)| histogram_distance_quick(a, b))
                                .max()
                                .unwrap_or(0);
                            std::hint::black_box(quick);
                            std::hint::black_box(qm.match_count(sm, eps));
                        }
                    }
                }
                None
            }),
        });
        let mut scratch = ArtScratch::new();
        let mut grams: Vec<(u32, u32)> = Vec::new();
        let mut cands: Vec<HistCandidate> = Vec::new();
        cases.push(Case {
            name: format!("probe_art_{}", sd.label),
            // The indexed path: the same candidate quantities from two
            // trie walks per query, touching only ε-neighbouring cells.
            work: Box::new(move || {
                for _ in 0..reps {
                    for (qi, qm) in query_means.iter().enumerate() {
                        cands.clear();
                        sd.hist_index.probe(
                            QuerySignature::PerDim(&query_hists[qi]),
                            queries[qi].len() as u32,
                            &mut scratch,
                            &mut cands,
                        );
                        grams.clear();
                        sd.qgram_index.probe(qm, &mut scratch, &mut grams);
                        std::hint::black_box((cands.len(), grams.len()));
                    }
                }
                None
            }),
        });
    }
    measure(cases, "probe_seq_1x", "art", cfg)
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

impl SuiteRun {
    /// The `BENCH_<suite>.json` document.
    pub fn to_json(&self) -> serde_json::Value {
        let cases: Vec<serde_json::Value> = self
            .cases
            .iter()
            .map(|c| {
                let runs: Vec<serde_json::Value> = c
                    .runs_s
                    .iter()
                    .map(|&r| serde_json::Value::from(r))
                    .collect();
                serde_json::json!({
                    "name": c.name.as_str(),
                    "runs_s": serde_json::Value::Array(runs),
                    "median_s": c.median_s,
                    "mad_s": c.mad_s,
                    "score": c.score,
                    "stats": match &c.stats {
                        Some(s) => s.to_json(),
                        None => serde_json::Value::Null,
                    },
                })
            })
            .collect();
        serde_json::json!({
            "suite": self.suite.as_str(),
            "anchor": self.anchor.as_str(),
            "timestamp_unix_s": self.timestamp_unix_s,
            "runs_per_case": self.runs_per_case,
            "fingerprint": {
                "os": self.fingerprint.os.as_str(),
                "arch": self.fingerprint.arch.as_str(),
                "threads": self.fingerprint.threads,
            },
            "cases": serde_json::Value::Array(cases),
        })
    }

    /// Parses a `BENCH_<suite>.json` document. Only the fields the
    /// comparison needs are required; of a case's `stats`, the work
    /// counters are read back (timings stay zero).
    ///
    /// # Errors
    ///
    /// Fails on missing or mistyped fields.
    pub fn from_json(v: &serde_json::Value) -> Result<SuiteRun, String> {
        let str_field = |v: &serde_json::Value, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let f64_field = |v: &serde_json::Value, k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let fp = v.get("fingerprint").ok_or("missing fingerprint")?;
        let cases_json = v
            .get("cases")
            .and_then(|x| x.as_array())
            .ok_or("missing cases array")?;
        let mut cases = Vec::with_capacity(cases_json.len());
        for c in cases_json {
            let runs_s: Vec<f64> = c
                .get("runs_s")
                .and_then(|x| x.as_array())
                .map(|a| a.iter().filter_map(|x| x.as_f64()).collect())
                .unwrap_or_default();
            cases.push(CaseResult {
                name: str_field(c, "name")?,
                runs_s,
                median_s: f64_field(c, "median_s")?,
                mad_s: f64_field(c, "mad_s")?,
                score: f64_field(c, "score")?,
                stats: c.get("stats").and_then(counters_from_json),
            });
        }
        Ok(SuiteRun {
            suite: str_field(v, "suite")?,
            anchor: str_field(v, "anchor")?,
            timestamp_unix_s: v
                .get("timestamp_unix_s")
                .and_then(|x| x.as_u64())
                .unwrap_or(0),
            runs_per_case: v.get("runs_per_case").and_then(|x| x.as_u64()).unwrap_or(0) as usize,
            fingerprint: Fingerprint {
                os: str_field(fp, "os")?,
                arch: str_field(fp, "arch")?,
                threads: fp.get("threads").and_then(|x| x.as_u64()).unwrap_or(0) as usize,
            },
            cases,
        })
    }
}

/// The work counters of a serialized [`QueryStats`], or `None` for a
/// case without stats (`null`).
fn counters_from_json(v: &serde_json::Value) -> Option<QueryStats> {
    v.as_object()?;
    let count = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let mut stats = QueryStats {
        database_size: count("database_size") as usize,
        edr_computed: count("edr_computed") as usize,
        dp_cells: count("dp_cells"),
        ..QueryStats::default()
    };
    for stage in Stage::ALL {
        *stats.pruned_by_mut(stage) = count(stage.keys().pruned_by) as usize;
    }
    Some(stats)
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// One case's baseline-vs-current verdict.
#[derive(Debug, Clone)]
pub struct CaseCompare {
    /// Case name.
    pub name: String,
    /// Baseline anchor-normalized score.
    pub base_score: f64,
    /// Current anchor-normalized score.
    pub cur_score: f64,
    /// `(cur − base) / base`: positive means slower than baseline.
    pub rel_change: f64,
    /// The noise-aware threshold `rel_change` was held against.
    pub tolerance: f64,
    /// Whether this case regressed (`rel_change > tolerance`).
    pub regressed: bool,
    /// Work counters that differ from the baseline, one
    /// `"counter base → current"` entry each; empty when they all match
    /// (or neither side has any).
    pub moved: Vec<String>,
}

impl CaseCompare {
    /// Whether this case fails the guard: slower beyond its tolerance,
    /// or any work counter moved.
    pub fn failed(&self) -> bool {
        self.regressed || !self.moved.is_empty()
    }
}

/// The work counters [`compare`] holds exactly equal.
fn counters(s: &QueryStats) -> Vec<(&'static str, u64)> {
    let mut counters = vec![
        ("edr_computed", s.edr_computed as u64),
        ("dp_cells", s.dp_cells),
    ];
    counters.extend(Stage::ALL.map(|stage| (stage.keys().pruned_by, s.pruned_by(stage) as u64)));
    counters
}

/// The counters of `cur` that differ from `base`.
fn moved_counters(base: Option<&QueryStats>, cur: Option<&QueryStats>) -> Vec<String> {
    match (base, cur) {
        (None, None) => Vec::new(),
        (Some(_), None) => vec!["stats missing from the current run".to_string()],
        (None, Some(_)) => vec!["stats missing from the baseline".to_string()],
        (Some(b), Some(c)) => counters(b)
            .into_iter()
            .zip(counters(c))
            .filter(|((_, b), (_, c))| b != c)
            .map(|((name, b), (_, c))| format!("{name} {b} → {c}"))
            .collect(),
    }
}

/// Floor of the regression tolerance: changes under 35% are never flagged
/// (micro-benchmarks on shared CI runners jitter this much).
pub const TOLERANCE_FLOOR: f64 = 0.35;
/// Ceiling of the regression tolerance: a 2x slowdown (rel change 1.0)
/// always trips the guard no matter how noisy the environment claims to
/// be.
pub const TOLERANCE_CEIL: f64 = 0.80;
/// Weight of the measured relative dispersion in the tolerance.
pub const DISPERSION_WEIGHT: f64 = 4.0;

/// The noise-aware threshold for one case: the floor widened by the
/// measured dispersion of both measurements, capped at the ceiling.
pub fn tolerance(base: &CaseResult, cur: &CaseResult) -> f64 {
    let spread = base.rel_dispersion() + cur.rel_dispersion();
    (TOLERANCE_FLOOR + DISPERSION_WEIGHT * spread).min(TOLERANCE_CEIL)
}

/// Compares a current suite run against the committed baseline, case by
/// case: anchor-normalized scores within the noise-aware tolerance, and
/// work counters exactly. The anchor's score (1 on both sides by
/// construction) carries no signal, so the anchor gets a row only when
/// it has counters to check. A case present in the baseline but missing
/// from the current run is an error — silently dropping a benchmark must
/// not pass the guard.
///
/// # Errors
///
/// Fails on mismatched suite names, a missing case, or a thread count
/// other than the baseline's (the counters of a parallel case, and every
/// score, depend on it).
pub fn compare(base: &SuiteRun, cur: &SuiteRun) -> Result<Vec<CaseCompare>, String> {
    if base.suite != cur.suite {
        return Err(format!(
            "suite mismatch: baseline {:?} vs current {:?}",
            base.suite, cur.suite
        ));
    }
    if base.fingerprint.threads != cur.fingerprint.threads {
        return Err(format!(
            "suite {:?} ran at {} thread(s), its baseline at {}: rerun with \
             TRAJSIM_THREADS={}",
            cur.suite, cur.fingerprint.threads, base.fingerprint.threads, base.fingerprint.threads
        ));
    }
    let mut out = Vec::new();
    for b in &base.cases {
        let c = cur
            .cases
            .iter()
            .find(|c| c.name == b.name)
            .ok_or_else(|| format!("case {:?} missing from the current run", b.name))?;
        let moved = moved_counters(b.stats.as_ref(), c.stats.as_ref());
        if b.name == base.anchor {
            if b.stats.is_some() || c.stats.is_some() {
                out.push(CaseCompare {
                    name: b.name.clone(),
                    base_score: b.score,
                    cur_score: c.score,
                    rel_change: 0.0,
                    tolerance: 0.0,
                    regressed: false,
                    moved,
                });
            }
            continue;
        }
        let rel_change = if b.score > 0.0 {
            (c.score - b.score) / b.score
        } else {
            0.0
        };
        let tol = tolerance(b, c);
        out.push(CaseCompare {
            name: b.name.clone(),
            base_score: b.score,
            cur_score: c.score,
            rel_change,
            tolerance: tol,
            regressed: rel_change > tol,
            moved,
        });
    }
    Ok(out)
}

/// Renders the comparison as an aligned table (one row per case), then
/// one line per moved work counter.
pub fn render_compare(cmps: &[CaseCompare]) -> String {
    let header: Vec<String> = ["case", "base", "current", "change", "tolerance", "verdict"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = cmps
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.3}", c.base_score),
                format!("{:.3}", c.cur_score),
                format!("{:+.1}%", c.rel_change * 100.0),
                format!("{:.1}%", c.tolerance * 100.0),
                if !c.moved.is_empty() {
                    "MOVED"
                } else if c.regressed {
                    "REGRESSED"
                } else {
                    "ok"
                }
                .to_string(),
            ]
        })
        .collect();
    let mut text = crate::render_table(&header, &rows);
    for c in cmps {
        for m in &c.moved {
            text.push_str(&format!("  {}: {m}\n", c.name));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that measure real wall time take this lock so they never
    /// run concurrently with each other inside the test binary —
    /// otherwise they are each other's CPU noise and the score-ratio
    /// assertions flake.
    static MEASURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn quick() -> GuardConfig {
        GuardConfig {
            runs: 3,
            inject: Vec::new(),
            quick: true,
        }
    }

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        // One wild outlier barely moves either statistic.
        assert_eq!(median(&[1.0, 1.0, 1.0, 100.0]), 1.0);
        assert_eq!(mad(&[1.0, 1.0, 1.0, 100.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn suites_run_and_score_against_their_anchor() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for suite in SUITES {
            let run = run_suite(suite, &quick()).unwrap();
            assert_eq!(run.suite, suite);
            assert_eq!(run.runs_per_case, 3);
            let anchor = run.cases.iter().find(|c| c.name == run.anchor).unwrap();
            assert!((anchor.score - 1.0).abs() < 1e-12, "anchor scores 1");
            for c in &run.cases {
                assert_eq!(c.runs_s.len(), 3);
                assert!(c.median_s > 0.0, "{}: zero median", c.name);
                assert!(c.score > 0.0);
            }
        }
        assert!(run_suite("nope", &quick()).is_err());
    }

    #[test]
    fn filters_suite_carries_deterministic_stage_stats() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let run = run_suite("filters", &quick()).unwrap();
        let combined = run
            .cases
            .iter()
            .find(|c| c.name == "filter_combined")
            .unwrap();
        let stats = combined.stats.as_ref().expect("engine cases carry stats");
        assert!(stats.database_size > 0);
        // And the scan case refines everything (no pruning).
        let scan = run.cases.iter().find(|c| c.name == "seqscan").unwrap();
        let scan_stats = scan.stats.as_ref().unwrap();
        assert_eq!(scan_stats.edr_computed, scan_stats.database_size);
    }

    #[test]
    fn refine_suite_workspace_path_is_not_slower() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Full-size workload: the reused-workspace refine loop must not
        // lose outright to the per-call-allocation loop it replaced. The
        // margin is generous because this runs unoptimized and alongside
        // other tests; the committed BENCH_refine.json baseline
        // (measured in release mode) records the real advantage and the
        // `--check` gate guards it with the noise-aware tolerance.
        let run = run_suite(
            "refine",
            &GuardConfig {
                runs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let median_of = |name: &str| {
            run.cases
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("case {name} missing"))
                .median_s
        };
        for len in [256, 1024] {
            let alloc = median_of(&format!("refine_alloc_{len}"));
            let ws = median_of(&format!("refine_ws_{len}"));
            assert!(
                ws <= alloc * 1.5,
                "workspace path ({ws:.6}s) much slower than allocating \
                 path ({alloc:.6}s) at len {len}"
            );
            let exact = run
                .cases
                .iter()
                .find(|c| c.name == format!("refine_exact_{len}"))
                .and_then(|c| c.stats.as_ref())
                .expect("the exact refine carries its lanes");
            assert!(exact.dp_cells > 0);
            assert_eq!(exact.edr_computed, exact.database_size);
        }
    }

    #[test]
    fn obs_suite_measures_telemetry_overhead_and_restores_globals() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let run = run_suite("obs", &quick()).unwrap();
        assert_eq!(run.anchor, "seqscan_plain");
        let names: Vec<&str> = run.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "seqscan_plain",
                "seqscan_traced",
                "seqscan_recorded",
                "seqscan_sampled",
                "seqscan_scraped"
            ]
        );
        // All five cases answered the same workload: the counters are
        // deterministic and must agree regardless of telemetry state
        // or concurrent scrape load.
        let plain = run.cases[0].stats.as_ref().unwrap();
        let recorded = run.cases[2].stats.as_ref().unwrap();
        let sampled = run.cases[3].stats.as_ref().unwrap();
        let scraped = run.cases[4].stats.as_ref().unwrap();
        assert_eq!(plain.edr_computed, recorded.edr_computed);
        assert_eq!(plain.database_size, recorded.database_size);
        assert_eq!(plain.edr_computed, sampled.edr_computed);
        assert_eq!(plain.edr_computed, scraped.edr_computed);
        // And the timed closures put the globals back.
        assert_eq!(trajsim_obs::level(), trajsim_obs::Level::Off);
    }

    #[test]
    fn art_suite_probe_cost_is_sublinear_in_dataset_size() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Full-size workload in debug mode. The margins are generous —
        // the committed BENCH_art.json release baseline records the
        // real ratios and the `--check` gate guards them — but the
        // structural claim must hold even unoptimized: a 100x larger
        // dataset makes the signature scan pay ~100x (at least 10x
        // under any amount of noise) while the indexed probe, whose
        // work tracks the query's neighbourhood rather than the
        // dataset, stays within 25x of its 1x cost and strictly below
        // the scan it replaces.
        let run = run_suite(
            "art",
            &GuardConfig {
                runs: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(run.anchor, "probe_seq_1x");
        let median_of = |name: &str| {
            run.cases
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("case {name} missing"))
                .median_s
        };
        let (art1, art100) = (median_of("probe_art_1x"), median_of("probe_art_100x"));
        let (seq1, seq100) = (median_of("probe_seq_1x"), median_of("probe_seq_100x"));
        assert!(
            art100 <= art1 * 25.0,
            "indexed probe grew {:.1}x from 1x to 100x (art_1x {art1:.6}s, \
             art_100x {art100:.6}s) — not sublinear",
            art100 / art1
        );
        assert!(
            seq100 >= seq1 * 10.0,
            "signature scan grew only {:.1}x from 1x to 100x (seq_1x {seq1:.6}s, \
             seq_100x {seq100:.6}s) — the workload is not scaling",
            seq100 / seq1
        );
        assert!(
            art100 < seq100,
            "indexed probe ({art100:.6}s) not faster than the signature \
             scan ({seq100:.6}s) at 100x"
        );
    }

    #[test]
    fn suite_json_round_trips() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let run = run_suite("kernels", &quick()).unwrap();
        let text = serde_json::to_string_pretty(&run.to_json()).unwrap();
        let back = SuiteRun::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.suite, run.suite);
        assert_eq!(back.anchor, run.anchor);
        assert_eq!(back.fingerprint, run.fingerprint);
        assert_eq!(back.cases.len(), run.cases.len());
        for (a, b) in run.cases.iter().zip(&back.cases) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.runs_s, b.runs_s);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn identical_runs_pass_the_guard() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let run = run_suite("kernels", &quick()).unwrap();
        let cmps = compare(&run, &run).unwrap();
        assert!(!cmps.is_empty());
        assert!(cmps.iter().all(|c| !c.regressed), "{cmps:?}");
        // The anchor is skipped.
        assert!(cmps.iter().all(|c| c.name != run.anchor));
    }

    #[test]
    fn injected_2x_slowdown_fails_and_small_jitter_passes() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Both comparisons are built from ONE real measurement: quick-mode
        // debug cases are microseconds each, so a second independent
        // measurement is mostly scheduler noise and the ratio assertion
        // flakes. The live `--inject` plumbing is exercised end-to-end by
        // the CI self-test against the full-size release suite.
        let base = run_suite("kernels", &quick()).unwrap();
        let mut slow = base.clone();
        for c in &mut slow.cases {
            if c.name == "edr_16" {
                for r in &mut c.runs_s {
                    *r *= 2.0;
                }
                c.median_s *= 2.0;
                c.mad_s *= 2.0;
                c.score *= 2.0;
            }
        }
        let cmps = compare(&base, &slow).unwrap();
        let hit = cmps.iter().find(|c| c.name == "edr_16").unwrap();
        assert!(hit.regressed, "2x slowdown must trip the guard: {hit:?}");
        // A few percent of injected jitter stays under the floor.
        let mut jitter = base.clone();
        for c in &mut jitter.cases {
            c.score *= 1.05;
        }
        let cmps = compare(&base, &jitter).unwrap();
        assert!(cmps.iter().all(|c| !c.regressed), "{cmps:?}");
    }

    #[test]
    fn moved_work_counters_fail_the_guard() {
        let _measure = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // The baseline goes through its JSON form, so the counters are
        // the ones read back from a file.
        let run = run_suite("filters", &quick()).unwrap();
        let base = SuiteRun::from_json(&run.to_json()).unwrap();
        let cmps = compare(&base, &run).unwrap();
        assert!(cmps.iter().all(|c| !c.failed()), "{cmps:?}");
        // The anchor has counters, so it gets a row.
        assert!(cmps.iter().any(|c| c.name == run.anchor));
        for (case, bump) in [("seqscan", 0), ("filter_combined", 2)] {
            let mut moved = run.clone();
            let c = moved.cases.iter_mut().find(|c| c.name == case).unwrap();
            let stats = c.stats.as_mut().unwrap();
            match bump {
                0 => stats.dp_cells += 1,
                _ => stats.pruned_by_histogram += bump,
            }
            let cmps = compare(&base, &moved).unwrap();
            let hit = cmps.iter().find(|c| c.name == case).unwrap();
            assert!(hit.failed() && hit.moved.len() == 1, "{hit:?}");
            assert!(render_compare(&cmps).contains("MOVED"));
        }
        let mut dropped = run.clone();
        dropped.cases[1].stats = None;
        let cmps = compare(&base, &dropped).unwrap();
        assert!(cmps.iter().any(|c| c.failed()));
    }

    #[test]
    fn a_thread_count_other_than_the_baselines_is_an_error() {
        let base = run_suite("kernels", &quick()).unwrap();
        let mut other = base.clone();
        other.fingerprint.threads = base.fingerprint.threads + 1;
        let err = compare(&base, &other).unwrap_err();
        assert!(err.contains("TRAJSIM_THREADS"), "{err}");
    }

    #[test]
    fn tolerance_is_floored_and_capped() {
        let case = |median_s: f64, mad_s: f64| CaseResult {
            name: "x".into(),
            runs_s: vec![],
            median_s,
            mad_s,
            score: 1.0,
            stats: None,
        };
        // Perfectly stable measurements: the floor.
        assert!((tolerance(&case(1.0, 0.0), &case(1.0, 0.0)) - TOLERANCE_FLOOR).abs() < 1e-12);
        // Wildly noisy measurements: the cap, below a 2x change.
        let t = tolerance(&case(1.0, 0.5), &case(1.0, 0.5));
        assert!((t - TOLERANCE_CEIL).abs() < 1e-12);
        const { assert!(TOLERANCE_CEIL < 1.0, "a 2x slowdown must always fail") };
    }

    #[test]
    fn dropped_cases_and_suite_mismatch_are_errors() {
        let base = run_suite("kernels", &quick()).unwrap();
        let mut dropped = base.clone();
        dropped.cases.retain(|c| c.name != "edr_16");
        assert!(compare(&base, &dropped).unwrap_err().contains("edr_16"));
        let other = run_suite("filters", &quick()).unwrap();
        assert!(compare(&base, &other).unwrap_err().contains("mismatch"));
    }

    #[test]
    fn render_compare_lists_every_case() {
        let run = run_suite("kernels", &quick()).unwrap();
        let cmps = compare(&run, &run).unwrap();
        let text = render_compare(&cmps);
        for c in &cmps {
            assert!(text.contains(&c.name));
        }
        assert!(text.contains("ok"));
    }
}
