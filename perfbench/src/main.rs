//! End-to-end k-NN benchmark for trajsim, broken down by layer.
//!
//! One run drives the library calls `trajsim knn` makes, in the same
//! order — read the binary file, `Dataset::normalize`, ε,
//! `CombinedKnn::build` (plus `with_index` where the workload names it),
//! then `knn` or `knn_batch` in a closed loop — over data generated from
//! `--seed`, checks every answer, and prints one JSON result line last.
//!
//! ```text
//! perfbench --workload <nhl|walk|walk-batch|walk-art> --seed N --seconds S --trace <0|1> [--quick]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, its times as ratios to
//! the paper's sequential scan timed in the same run; `--trace 1` repeats
//! the run with spans around each layer call and reports the per-layer
//! ones. See `perfbench/README.md`.

mod alloc;
mod check;
mod trace;
mod workload;

use check::Ledger;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use trajsim_core::{Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_histogram::TrajectoryHistogram;
use trajsim_prune::{
    CombinedConfig, CombinedKnn, KnnEngine, KnnResult, Neighbor, QueryStats, SequentialScan,
};
use trajsim_qgram::SortedMeans;
use workload::{Spec, K};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Worker threads: the machine's cores, at most two.
const MAX_THREADS: usize = 2;
/// Queries whose answers are always compared with `SequentialScan`.
const SCAN_SAMPLE: usize = 4;
/// The reference scans' time, as a share of the engine's calls' time.
const SCAN_SHARE: f64 = 0.25;
/// Where runs keep their inputs (removed at exit) and trace files.
const OUT_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload <nhl|walk|walk-batch|walk-art> --seed N \
                     --seconds S --trace <0|1> [--quick]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} ({value:?})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("not a whole number"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("perfbench: {failed} queries failed the answer check");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The run's private input directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store(path: &Path, ds: &Dataset<2>) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    trajsim_io::write_binary(&mut w, ds).map_err(|e| e.to_string())?;
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// `trajsim knn`'s loader for `.bin` files.
fn load(path: &Path) -> Result<Dataset<2>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let ds = trajsim_io::read_binary(BufReader::new(file)).map_err(|e| e.to_string())?;
    if ds.is_empty() {
        return Err(format!("{}: empty data set", path.display()));
    }
    Ok(ds)
}

/// What one set-up measured.
struct Setup {
    secs: f64,
    engine_bytes: usize,
    /// Worker busy share of the set-up's parallel work (pmatrix rows).
    busy_share: f64,
    /// Tasks the worker pool ran inside `CombinedKnn::build`.
    build_tasks: u64,
}

fn config(max_triangle: usize) -> CombinedConfig {
    CombinedConfig {
        max_triangle,
        ..Default::default()
    }
}

/// The engine `trajsim knn --engine combined` builds, through the same
/// library calls, traced or not.
fn build_engine<'a>(
    ds: &'a Dataset<2>,
    eps: MatchThreshold,
    spec: &Spec,
    tracer: &mut Tracer,
) -> (CombinedKnn<'a, 2>, u64) {
    let tasks = Counters::now();
    let engine = tracer.span("prune.build", None, || {
        CombinedKnn::build(ds, eps, config(spec.max_triangle))
    });
    let build_tasks = Counters::now().since(tasks).tasks;
    let engine = if spec.index {
        tracer.span("art.build", None, || engine.with_index())
    } else {
        engine
    };
    (engine, build_tasks)
}

/// Splits `CombinedKnn::build` by timing, on the same data, the public
/// constructors it calls: the arena, the per-dimension histograms and
/// the q-gram means (`CombinedConfig`'s defaults, as the build uses
/// them), and — where the workload has a pmatrix — the same build with
/// `max_triangle` 0, whose difference from the full build is the
/// pmatrix. Each structure is dropped before the next is built.
fn split_build(ds: &Dataset<2>, eps: MatchThreshold, spec: &Spec, tracer: &mut Tracer) -> u64 {
    drop(tracer.span("core.arena", None, || TrajectoryArena::from_dataset(ds)));
    drop(tracer.span("histogram.build", None, || {
        ds.iter()
            .map(|(_, t)| {
                (0..2)
                    .map(|dim| TrajectoryHistogram::<2>::build_projected(t, eps, dim))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    }));
    let q = CombinedConfig::default().qgram_q;
    drop(tracer.span("qgram.build", None, || {
        ds.iter()
            .map(|(_, t)| SortedMeans::build(t, q))
            .collect::<Vec<_>>()
    }));
    if spec.max_triangle == 0 {
        return 0;
    }
    let tasks = Counters::now();
    drop(tracer.span("prune.build_bare", None, || {
        CombinedKnn::build(ds, eps, config(0))
    }));
    Counters::now().since(tasks).tasks
}

/// Cumulative values of the library's always-on counters.
#[derive(Clone, Copy, Default)]
struct Counters {
    busy_ns: u64,
    idle_ns: u64,
    tasks: u64,
    art_nodes: u64,
    art_postings: u64,
    art_candidates: u64,
    batch_shared: u64,
}

impl Counters {
    fn now() -> Counters {
        let c = trajsim_obs::metrics::global().counter_values();
        let get = |name: &str| c.get(name).copied().unwrap_or(0);
        Counters {
            busy_ns: get("parallel.worker_busy_ns"),
            idle_ns: get("parallel.worker_idle_ns"),
            tasks: get("parallel.tasks"),
            art_nodes: get(trajsim_art::NODES_VISITED),
            art_postings: get(trajsim_art::POSTINGS_SCANNED),
            art_candidates: get(trajsim_art::CANDIDATES),
            batch_shared: get(trajsim_prune::BATCH_SHARED_SIGNATURE_EVALS),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            busy_ns: self.busy_ns - before.busy_ns,
            idle_ns: self.idle_ns - before.idle_ns,
            tasks: self.tasks - before.tasks,
            art_nodes: self.art_nodes - before.art_nodes,
            art_postings: self.art_postings - before.art_postings,
            art_candidates: self.art_candidates - before.art_candidates,
            batch_shared: self.batch_shared - before.batch_shared,
        }
    }

    fn busy_share(&self) -> f64 {
        ratio(self.busy_ns as f64, (self.busy_ns + self.idle_ns) as f64)
    }
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Linear interpolation between the closest ranks of sorted `xs`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The Harrell–Davis estimate of the `p` quantile of sorted `xs`: a
/// weighted mean of every order statistic, weighted by the
/// Beta(p(n+1), (1-p)(n+1)) density (evaluated at each rank's midpoint
/// and normalized). It estimates the same quantile as [`quantile`] with
/// less sampling noise, which matters for a tail percentile read from a
/// few hundred queries.
fn quantile_hd(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return quantile(sorted, p);
    }
    let a = p * (n + 1) as f64 - 1.0;
    let b = (1.0 - p) * (n + 1) as f64 - 1.0;
    let log_w: Vec<f64> = (0..n)
        .map(|i| {
            let m = (i as f64 + 0.5) / n as f64;
            a * m.ln() + b * (1.0 - m).ln()
        })
        .collect();
    let top = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut total) = (0.0, 0.0);
    for (x, lw) in sorted.iter().zip(&log_w) {
        let w = (lw - top).exp();
        sum += w * x;
        total += w;
    }
    sum / total
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// One call into the engine: a query, or a batch starting at `first`.
fn execute(
    engine: &CombinedKnn<'_, 2>,
    spec: &Spec,
    queries: &[Trajectory<2>],
    first: usize,
) -> Result<Vec<KnnResult>, String> {
    catch_unwind(AssertUnwindSafe(|| match spec.batch {
        None => vec![engine.knn(&queries[first], K)],
        Some(b) => engine.knn_batch(&queries[first..first + b], K),
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

fn record(
    ledger: &mut Ledger,
    first: usize,
    width: usize,
    outcome: &Result<Vec<KnnResult>, String>,
) {
    for j in 0..width {
        match outcome {
            Ok(results) => match results.get(j) {
                Some(r) => ledger.record(first + j, Ok(&r.neighbors)),
                None => ledger.record(first + j, Err("missing from the batch's results")),
            },
            Err(why) => ledger.record(first + j, Err(why)),
        }
    }
}

/// Stages the engine reported, summed over a call's results.
fn engine_stats(outcome: &Result<Vec<KnnResult>, String>) -> QueryStats {
    let mut acc = QueryStats::default();
    if let Ok(results) = outcome {
        for r in results {
            acc.accumulate(&r.stats);
        }
    }
    acc
}

fn stage_ns(s: &QueryStats) -> u64 {
    let t = &s.timings;
    t.setup_ns + t.histogram.filter_ns + t.qgram.filter_ns + t.triangle.filter_ns + t.refine_ns
}

/// What the timed query phase measured.
struct Phase {
    wall_s: f64,
    /// Summed wall time of the engine's calls (untraced runs).
    engine_ns: u64,
    /// Summed wall time of the reference scans, and how many ran.
    scan_ns: u64,
    scans: usize,
    /// The reference scans' answers, by query slot from 0.
    scan_answers: Vec<Vec<Neighbor>>,
    /// Traced runs: summed wall time of the paired untraced calls.
    plain_ns: u64,
    counters: Counters,
}

/// The closed loop: one client sends the next call when the previous
/// answer has returned, cycling through the query slots, for `seconds`.
///
/// Untraced, the loop also runs the reference: the paper's sequential
/// scan over the same data, on query slots 0, 1, 2, …, one scan after an
/// engine call whenever the scans' summed time is below `SCAN_SHARE` of
/// the engine's. Both are timed in the same seconds, so the ratios
/// between them do not depend on how fast the machine runs that minute.
///
/// With tracing on, every call is made twice, once inside a span and
/// once bare, alternating which goes first, to measure the tracing
/// overhead on identical work.
#[allow(clippy::too_many_arguments)]
fn run_queries(
    engine: &CombinedKnn<'_, 2>,
    reference: Option<&SequentialScan<'_, 2>>,
    spec: &Spec,
    queries: &[Trajectory<2>],
    seconds: f64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    latencies_ms: &mut Vec<f64>,
) -> Phase {
    let width = spec.batch.unwrap_or(1);
    let calls_per_cycle = queries.len() / width;
    let (mut plain_ns, mut engine_ns, mut scan_ns) = (0u64, 0u64, 0u64);
    let mut scan_answers: Vec<Vec<Neighbor>> = Vec::with_capacity(queries.len());
    let mut scans = 0usize;
    let before = Counters::now();
    let limit = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut call = 0usize;
    while start.elapsed() < limit {
        let first = (call % calls_per_cycle) * width;
        let plain = |ledger: &mut Ledger| {
            let t = Instant::now();
            let outcome = execute(engine, spec, queries, first);
            let dt = t.elapsed();
            record(ledger, first, width, &outcome);
            dt
        };
        if tracer.enabled() {
            let name = if spec.batch.is_some() {
                "prune.knn_batch"
            } else {
                "prune.knn"
            };
            let traced = |ledger: &mut Ledger, tracer: &mut Tracer| {
                let outcome =
                    tracer.span(name, Some(first), || execute(engine, spec, queries, first));
                tracer.annotate(width, engine_stats(&outcome));
                record(ledger, first, width, &outcome);
            };
            if call.is_multiple_of(2) {
                plain_ns += plain(ledger).as_nanos() as u64;
                traced(ledger, tracer);
            } else {
                traced(ledger, tracer);
                plain_ns += plain(ledger).as_nanos() as u64;
            }
        } else {
            let dt = plain(ledger);
            engine_ns += dt.as_nanos() as u64;
            latencies_ms.push(dt.as_secs_f64() * 1e3);
        }
        if let Some(scan) = reference {
            if (scan_ns as f64) < SCAN_SHARE * engine_ns as f64 {
                let slot = scans % queries.len();
                let t = Instant::now();
                let answer = scan.knn(&queries[slot], K);
                scan_ns += t.elapsed().as_nanos() as u64;
                scans += 1;
                if scan_answers.len() < queries.len() {
                    scan_answers.push(answer.neighbors);
                }
            }
        }
        call += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    Phase {
        wall_s,
        engine_ns,
        scan_ns,
        scans,
        scan_answers,
        plain_ns,
        counters: Counters::now().since(before),
    }
}

fn git_commit() -> String {
    // Look for a repository at the working directory only, never above it.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Runs one workload; returns the number of failed queries.
fn run(args: &Args) -> Result<u64, String> {
    let spec = Spec::named(&args.workload, args.quick).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {:?})",
            args.workload,
            workload::NAMES
        )
    })?;
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    trajsim_parallel::set_num_threads(available.min(MAX_THREADS));
    let (threads, source) = trajsim_parallel::num_threads_with_source();

    // Inputs: generated from the seed and written out before any timing;
    // the timed code reads only these files.
    let work = WorkDir(Path::new(OUT_DIR).join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let db_path = work.0.join("db.bin");
    let queries_path = work.0.join("queries.bin");
    {
        let (db, queries) = workload::generate(&spec, args.seed)?;
        store(&db_path, &db)?;
        store(&queries_path, &Dataset::new(queries))?;
    }
    let file_mb = alloc::mib(
        std::fs::metadata(&db_path)
            .map_err(|e| e.to_string())?
            .len() as usize,
    );
    // Queries are normalized like the database.
    let queries = load(&queries_path)?.normalize().into_trajectories();
    if spec.batch.is_some_and(|b| queries.len() % b != 0) {
        return Err("the query set must be a whole number of batches".into());
    }

    // The reference scan of untraced runs gets its own copy of the data,
    // loaded before the set-ups so that neither is timed or counted in
    // them.
    let reference_ds = if args.trace {
        None
    } else {
        Some(load(&db_path)?.normalize())
    };
    let reference = reference_ds
        .as_ref()
        .map(|d| SequentialScan::new(d, trajsim_bench::retrieval_eps(d)));

    let mut tracer = Tracer::new(args.trace);
    let mut ledger = Ledger::new(queries.len(), K);
    // Wall time per call, in ms: per query, or per batch.
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(1 << 18);
    let reps = spec.setup_reps;
    let mut setups: Vec<Setup> = Vec::with_capacity(reps);
    let mut bare_tasks = 0;
    let mark = tracer.mark();
    for rep in 0..reps {
        let counters = Counters::now();
        let heap0 = alloc::reset_peak();
        let t0 = Instant::now();
        let raw = tracer.span("io.read", None, || load(&db_path))?;
        let ds = tracer.span("core.normalize", None, || raw.normalize());
        drop(raw);
        let eps = trajsim_bench::retrieval_eps(&ds);
        let before_engine = alloc::live();
        let (engine, build_tasks) = build_engine(&ds, eps, &spec, &mut tracer);
        setups.push(Setup {
            secs: t0.elapsed().as_secs_f64(),
            engine_bytes: alloc::live() - before_engine,
            busy_share: Counters::now().since(counters).busy_share(),
            build_tasks,
        });
        if tracer.enabled() {
            // Right after each set-up, so that the split is timed under
            // the same conditions as the build it splits.
            bare_tasks = split_build(&ds, eps, &spec, &mut tracer);
        }
        if rep + 1 < reps {
            continue;
        }

        let phase = run_queries(
            &engine,
            reference.as_ref(),
            &spec,
            &queries,
            args.seconds,
            &mut tracer,
            &mut ledger,
            &mut latencies_ms,
        );
        let peak_bytes = alloc::peak() - heap0;

        // Answer checks, outside the timed region. Slots the reference
        // scanned are compared with its answers; the first few slots
        // always are.
        let scan = SequentialScan::new(&ds, eps).with_parallel();
        let scanned = phase.scan_answers.len().max(SCAN_SAMPLE);
        ledger.verify(|slot, answer| {
            check::check_answer(&ds, eps, K, &queries[slot], answer)?;
            match phase.scan_answers.get(slot) {
                Some(want) if !check::same_distances(want, answer) => {
                    Err("distances differ from SequentialScan's".to_string())
                }
                Some(_) => Ok(()),
                None if slot < SCAN_SAMPLE => {
                    check::check_against_scan(&scan, K, &queries[slot], answer)
                }
                None => Ok(()),
            }
        });
        let sampled = ledger
            .answered()
            .filter(|(slot, _)| *slot < scanned)
            .count();
        if sampled == 0 {
            return Err(
                "no sampled query was answered; nothing was checked against the scan".into(),
            );
        }

        let attempted = ledger.attempted();
        let failed = ledger.failed();
        println!(
            "perfbench {} seed={} N={} queries={} eps={:.6} k={K} batch={} threads={threads} ({}; available_parallelism={available}) setup_reps={reps} run_seconds={} commit={}",
            spec.name,
            args.seed,
            spec.n,
            spec.queries,
            eps.value(),
            spec.batch.map_or("none".to_string(), |b| b.to_string()),
            source.as_str(),
            args.seconds,
            git_commit(),
        );
        println!(
            "answers: {attempted} attempted, {failed} failed, error_rate {}; every neighbour re-derived with the naive EDR, {sampled} sampled queries compared with SequentialScan",
            ratio(failed as f64, attempted as f64)
        );
        for e in &ledger.errors {
            println!("  FAILED {e}");
        }

        let metrics = if tracer.enabled() {
            per_layer(&spec, &tracer, mark, &setups, bare_tasks, &phase, file_mb)?
        } else {
            end_to_end(&spec, &setups, &phase, &latencies_ms, peak_bytes)
        };
        if tracer.enabled() {
            let path =
                Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
            tracer
                .write(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("spans written to {}", path.display());
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            failed == 0,
            body.join(",")
        );
        return Ok(failed);
    }
    unreachable!("the last set-up runs the queries")
}

/// `(name, unit, value)` in output order; the names and units are the
/// ones `BENCHMARK.json` lists.
type Metrics = Vec<(&'static str, &'static str, f64)>;

fn end_to_end(
    spec: &Spec,
    setups: &[Setup],
    phase: &Phase,
    latencies_ms: &[f64],
    peak_bytes: usize,
) -> Metrics {
    let mut lat = latencies_ms.to_vec();
    lat.sort_by(f64::total_cmp);
    let width = spec.batch.unwrap_or(1);
    let answered = lat.len() * width;
    let secs: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let last = setups.last().expect("at least one set-up");
    let beyond = lat.len() - (0.95 * lat.len() as f64).ceil() as usize;
    let setups_list: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
    let (per, pers) = if width > 1 {
        ("batch", "batches")
    } else {
        ("query", "queries")
    };
    let (p50, p95) = (quantile_hd(&lat, 0.5), quantile_hd(&lat, 0.95));
    let engine_ms = phase.engine_ns as f64 / 1e6 / answered as f64;
    let scan_ms = phase.scan_ns as f64 / 1e6 / phase.scans as f64;
    let metrics: Vec<(&str, &str, f64, String)> = vec![
        (
            "setup_s",
            "s",
            median(&secs),
            format!(
                "median of {} set-ups [{}]",
                secs.len(),
                setups_list.join(", ")
            ),
        ),
        (
            "speedup_vs_scan",
            "ratio",
            scan_ms / engine_ms,
            format!(
                "scan {scan_ms:.4} ms per query over {} scans, engine {engine_ms:.4} ms per query",
                phase.scans
            ),
        ),
        (
            "latency_p50_vs_scan",
            "ratio",
            p50 / scan_ms,
            format!("latency_p50_ms {p50:.4} (wall time per {per})"),
        ),
        (
            "latency_p95_vs_scan",
            "ratio",
            p95 / scan_ms,
            format!("latency_p95_ms {p95:.4}; {beyond} {pers} beyond it"),
        ),
        (
            "peak_heap_mb",
            "MiB",
            alloc::mib(peak_bytes),
            "file read to last answer".to_string(),
        ),
        (
            "engine_heap_mb",
            "MiB",
            alloc::mib(last.engine_bytes),
            "retained by the built engine".to_string(),
        ),
    ];
    let calls = if width > 1 {
        format!(" in {} batches", lat.len())
    } else {
        String::new()
    };
    println!(
        "end-to-end ({answered} queries{calls}; query phase {:.3} s, of which the engine {:.3} s):",
        phase.wall_s,
        phase.engine_ns as f64 / 1e9
    );
    for (name, unit, v, note) in &metrics {
        println!("  {name:<20}{v:>12.4} {unit:<5} {note}");
    }
    println!("as measured on this machine in this run (not gated; see README.md, \"Noise\"):");
    for (name, unit, v) in [
        ("throughput_qps", "1/s", 1e3 / engine_ms),
        ("latency_p50_ms", "ms", p50),
        ("latency_p95_ms", "ms", p95),
        ("scan_ms", "ms", scan_ms),
    ] {
        println!("  {name:<20}{v:>12.4} {unit}");
    }
    metrics.into_iter().map(|(n, u, v, _)| (n, u, v)).collect()
}

/// `setup.other_s` — what the set-up layers leave of `setup_s`: ε, freeing
/// the raw data, the engine's second arena and its assembly — as shares
/// of `setup_s`. It must lie within `[LOW, HIGH]`, or the split is wrong.
/// Below 0 is allowed down to `LOW` because the split parts are timed
/// apart from the set-up they split and carry the machine's noise; a
/// layer counted twice or left out lands outside the band on every
/// workload where it is more than a few per cent of the set-up.
const OTHER_TOLERANCE: (f64, f64) = (-0.10, 0.25);

fn check_other(other: f64, setup_s: f64) -> Result<(), String> {
    let (low, high) = (OTHER_TOLERANCE.0 * setup_s, OTHER_TOLERANCE.1 * setup_s);
    if (low..=high).contains(&other) {
        Ok(())
    } else {
        Err(format!(
            "setup reconciliation failed: setup.other_s = {other:.4} s is outside \
             [{low:.4}, {high:.4}] s ({:?} of setup_s)",
            OTHER_TOLERANCE
        ))
    }
}

fn per_layer(
    spec: &Spec,
    tracer: &Tracer,
    mark: usize,
    setups: &[Setup],
    bare_tasks: u64,
    phase: &Phase,
    file_mb: f64,
) -> Result<Metrics, String> {
    // Set-up layers: each span's mean over the run's set-ups, so that the
    // layers and `setup.other_s` add up to the mean set-up exactly (medians
    // taken from different set-ups would not); sizes from the last.
    let reps = setups.len() as f64;
    let secs = |name: &str| {
        tracer
            .since(mark)
            .iter()
            .filter(|s| s.name == name)
            .map(trace::Span::secs)
            .fold(0.0, |a, b| a + b)
            / reps
    };
    let mib = |name: &str| tracer.last(mark, name).map_or(0.0, trace::Span::mib);
    let last = setups.last().expect("at least one set-up");
    let setup_s = setups.iter().map(|s| s.secs).sum::<f64>() / reps;
    let build_s = secs("prune.build");
    let has_pmatrix = spec.max_triangle > 0;
    let (pmatrix_s, pmatrix_mb) = if has_pmatrix {
        (
            build_s - secs("prune.build_bare"),
            mib("prune.build") - mib("prune.build_bare"),
        )
    } else {
        (0.0, 0.0)
    };
    // Each pool task of the pmatrix computes one reference's row of N EDRs.
    let pmatrix_edrs = (last.build_tasks - bare_tasks) as f64 * spec.n as f64;
    let build_parts = [
        ("core.arena_s", secs("core.arena")),
        ("histogram.build_s", secs("histogram.build")),
        ("qgram.build_s", secs("qgram.build")),
        ("prune.pmatrix_s", pmatrix_s),
    ];
    let layers = [
        ("io.read_s", secs("io.read")),
        ("core.normalize_s", secs("core.normalize")),
    ]
    .into_iter()
    .chain(build_parts)
    .chain([("art.build_s", secs("art.build"))]);
    let mut covered = 0.0;
    println!(
        "setup reconciliation (means over {} set-ups, s):",
        setups.len()
    );
    for (name, v) in layers {
        covered += v;
        println!(
            "  {name:<20} {v:>10.4}  {:>5.1}%",
            100.0 * ratio(v, setup_s)
        );
    }
    let other = setup_s - covered;
    println!(
        "  {:<20} {other:>10.4}  {:>5.1}%  (eps, freeing the raw data, the engine's second arena, assembly; \
         must lie within {:.0}%..{:.0}%)",
        "setup.other_s",
        100.0 * ratio(other, setup_s),
        100.0 * OTHER_TOLERANCE.0,
        100.0 * OTHER_TOLERANCE.1
    );
    println!("  {:<20} {:>10.4}  (mean)", "= setup_s", setup_s);
    let parts: f64 = build_parts.iter().map(|p| p.1).sum();
    println!(
        "  CombinedKnn::build {build_s:.4} s in the set-up; its split parts {parts:.4} s \
         (arena, histograms and q-grams timed on their own; pmatrix = build − build with max_triangle 0), \
         rest {:.4} s",
        build_s - parts
    );
    check_other(other, setup_s)?;

    // Queries: the traced calls' spans and what the engine reported.
    let mut st = QueryStats::default();
    let (mut outside_ns, mut queries) = (0u64, 0usize);
    for s in tracer
        .since(mark)
        .iter()
        .filter(|s| s.name.starts_with("prune.knn"))
    {
        if let Some(stats) = &s.stats {
            st.accumulate(stats);
        }
        outside_ns += s.dur_ns;
        queries += s.queries;
    }
    let q = queries as f64;
    let executions = 2.0 * q;
    let n = st.database_size as f64;
    let t = &st.timings;
    let ms = |ns: u64| ns as f64 / 1e6 / q.max(1.0);
    let unattributed_ns = outside_ns as f64 - stage_ns(&st) as f64;
    println!("knn reconciliation ({queries} traced queries, ms per query):");
    for (name, ns) in [
        ("engine setup", t.setup_ns),
        ("histogram.filter", t.histogram.filter_ns),
        ("qgram.filter", t.qgram.filter_ns),
        ("prune.triangle", t.triangle.filter_ns),
        ("distance.refine", t.refine_ns),
    ] {
        println!(
            "  {name:<20} {:>10.4}  {:>5.1}%",
            ms(ns),
            100.0 * ratio(ns as f64, outside_ns as f64)
        );
    }
    println!(
        "  {:<20} {:>10.4}  {:>5.1}%",
        "knn.unattributed",
        unattributed_ns / 1e6 / q.max(1.0),
        100.0 * ratio(unattributed_ns, outside_ns as f64)
    );
    println!("  {:<20} {:>10.4}", "= measured outside", ms(outside_ns));
    if spec.batch.is_some() {
        println!(
            "  (batched path: stage times are summed over worker threads, so they can exceed the wall \
             time and knn.unattributed goes negative; it reports no q-gram or triangle time)"
        );
    }
    let c = &phase.counters;
    let triangle_pruned = ratio(st.pruned_by_triangle as f64, q);
    println!(
        "pmatrix: {pmatrix_s:.4} s to build; the triangle filter prunes {triangle_pruned:.3} candidates per query ({:.4} ms per query)",
        ms(t.triangle.filter_ns)
    );
    Ok(vec![
        ("io.read_s", "s", secs("io.read")),
        ("io.file_mb", "MiB", file_mb),
        ("core.normalize_s", "s", secs("core.normalize")),
        ("core.arena_s", "s", secs("core.arena")),
        ("core.arena_mb", "MiB", mib("core.arena")),
        ("histogram.build_s", "s", secs("histogram.build")),
        ("histogram.mb", "MiB", mib("histogram.build")),
        ("qgram.build_s", "s", secs("qgram.build")),
        ("qgram.mb", "MiB", mib("qgram.build")),
        ("prune.pmatrix_s", "s", pmatrix_s),
        ("prune.pmatrix_mb", "MiB", pmatrix_mb),
        ("prune.pmatrix_edrs", "count", pmatrix_edrs),
        ("parallel.setup_busy_share", "ratio", last.busy_share),
        ("art.build_s", "s", secs("art.build")),
        ("art.mb", "MiB", mib("art.build")),
        ("setup.other_s", "s", other),
        ("histogram.filter_ms", "ms", ms(t.histogram.filter_ns)),
        (
            "prune.candidates",
            "count",
            ratio(t.histogram.candidates_in as f64, q),
        ),
        (
            "histogram.pruned",
            "count",
            ratio(st.pruned_by_histogram as f64, q),
        ),
        (
            "histogram.prune_ratio",
            "ratio",
            ratio(st.pruned_by_histogram as f64, n),
        ),
        ("qgram.filter_ms", "ms", ms(t.qgram.filter_ns)),
        ("qgram.pruned", "count", ratio(st.pruned_by_qgram as f64, q)),
        (
            "qgram.prune_ratio",
            "ratio",
            ratio(st.pruned_by_qgram as f64, n),
        ),
        ("prune.triangle_ms", "ms", ms(t.triangle.filter_ns)),
        ("prune.triangle_pruned", "count", triangle_pruned),
        (
            "prune.triangle_prune_ratio",
            "ratio",
            ratio(st.pruned_by_triangle as f64, n),
        ),
        ("prune.pruning_power", "ratio", st.pruning_power()),
        ("distance.refine_ms", "ms", ms(t.refine_ns)),
        (
            "distance.edr_calls",
            "count",
            ratio(st.edr_computed as f64, q),
        ),
        ("distance.dp_cells", "count", ratio(st.dp_cells as f64, q)),
        (
            "distance.useful_ratio",
            "ratio",
            ratio((K.min(spec.n) * queries) as f64, st.edr_computed as f64),
        ),
        (
            "art.nodes_visited",
            "count",
            ratio(c.art_nodes as f64, executions),
        ),
        (
            "art.postings_scanned",
            "count",
            ratio(c.art_postings as f64, executions),
        ),
        (
            "art.candidates",
            "count",
            ratio(c.art_candidates as f64, executions),
        ),
        (
            "art.touched_ratio",
            "ratio",
            ratio(c.art_candidates as f64, executions * spec.n as f64),
        ),
        (
            "prune.batch_shared_evals",
            "count",
            ratio(c.batch_shared as f64, executions),
        ),
        ("parallel.query_busy_share", "ratio", c.busy_share()),
        (
            "knn.unattributed_ms",
            "ms",
            unattributed_ns / 1e6 / q.max(1.0),
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            ratio(outside_ns as f64, phase.plain_ns as f64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.95), 4.8);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn harrell_davis_tracks_the_quantile_it_estimates() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((quantile_hd(&xs, 0.5) - 499.5).abs() < 1e-6);
        let p95 = quantile_hd(&xs, 0.95);
        assert!((p95 - quantile(&xs, 0.95)).abs() < 2.0, "{p95}");
        // One wild sample moves the estimate far less than the raw order
        // statistic it replaces.
        let mut spiked = xs.clone();
        spiked[949] += 10.0;
        let raw_move = quantile(&spiked, 0.95) - quantile(&xs, 0.95);
        let hd_move = quantile_hd(&spiked, 0.95) - p95;
        assert!(
            raw_move > 9.0 && hd_move > 0.0 && hd_move < raw_move / 4.0,
            "{raw_move} {hd_move}"
        );
        assert_eq!(quantile_hd(&[4.0], 0.95), 4.0);
    }

    #[test]
    fn an_unreconciled_setup_is_a_failure() {
        assert!(check_other(0.01, 1.0).is_ok());
        assert!(check_other(-0.05, 1.0).is_ok());
        // A layer counted twice, or one left out.
        assert!(check_other(-0.2, 1.0).is_err());
        assert!(check_other(0.3, 1.0).is_err());
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload walk --seed 3 --seconds 2 --trace 1 --quick",
        ))
        .unwrap();
        assert!(ok.trace && ok.quick && ok.seed == 3 && ok.seconds == 2.0);
        for bad in [
            "--workload walk --seed 3 --seconds 2",
            "--workload walk --seed -1 --seconds 2 --trace 0",
            "--workload walk --seed 3 --seconds 0 --trace 0",
            "--workload walk --seed 3 --seconds 2 --trace 2",
            "--workload walk --seed 3 --seconds 2 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
