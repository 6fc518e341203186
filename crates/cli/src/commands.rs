//! Subcommand implementations.

use crate::args::Parsed;
// Every print of the command output goes through `out`.
use crate::out::{eprintln, print, println};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::sync::Arc;
use trajsim_core::{max_std_dev, Dataset, MatchThreshold, Trajectory};
use trajsim_data::{seeded_rng, LengthDistribution};
use trajsim_eval::{agglomerative, Dendrogram, DistanceMatrix, Linkage};
use trajsim_profile::{
    read_stats_input, Attribution, DiffReport, FlightRecorder, ProfileCollector, Recording,
    SamplerConfig, SlowReport, TeeSink, WorkloadStats,
};
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, KnnResult, QgramKnn, QgramVariant,
    QueryStats, ScanMode, SequentialScan, Stage, StageTimings,
};

const USAGE: &str = "\
usage: trajsim <command> [options]

commands:
  generate <nhl|mixed|walk|asl|kungfu|slip> -o FILE [--n N] [--seed S]
           [--spread W]   (walk only: scatter start points over a W x W
           square instead of starting every walk at the origin)
  convert  <in> <out>
  stats    <file>
  stats    show <recording|store>
  stats    merge <recording|store>... -o FILE
  stats    diff <a> <b> [--latency-tolerance F] [--shape-tolerance F]
           [--attribute] [--check]
  knn      <file> (--query I | --queries N [--batch B]) [--k K] [--eps E]
           [--engine ENGINE] [--index art] [--max-triangle M]
           [--metrics-out FILE]
  explain  <file> (--query I | --queries N [--batch B]) [--k K] [--eps E]
           [--engine ENGINE] [--index art] [--max-triangle M]
           [--json FILE]
  range    <file> --query I --edits K [--eps E]
  replay   <recording> [--check] [--max-drift F]
  slow     <recording> [--top N]
  slo      check <spec> <recording|store>
  watch    <addr> [--every S] [--count N]
  cluster  <file> [--k K] [--eps E] [--tree]

engines: scan|qgram|histogram|triangle|combined (default: combined)
index:   --index art generates candidates through the adaptive radix
         signature index (trie over quantized q-gram means and histogram
         bins) instead of scanning every trajectory's signatures;
         combined engine only

global options:
  --threads N           worker threads for parallel phases (default: all
                        cores; also settable via TRAJSIM_THREADS)
  --trace [LVL]         structured trace events as JSON lines on stderr
                        (bare --trace means debug;
                        LVL: error|warn|info|debug|trace)
  --profile-out FILE    collect the span stream of the whole run and write
                        it on exit as Chrome-trace JSON (Perfetto,
                        chrome://tracing, speedscope)
  --record FILE         flight-record the workload: one JSONL line per
                        query (per-stage candidates, timings, answers),
                        readable by `stats` and `replay`
  --sample N            tail-sample the recording: keep every query above
                        the rolling p99 latency plus 1 in N of the rest
                        (weighted so `stats` reweights to full-population
                        estimates); requires --record
  --serve-metrics ADDR  live telemetry endpoint while the command runs:
                        GET /metrics (Prometheus text), /healthz (JSON
                        liveness); port 0 picks an ephemeral port (printed)
  --serve-hold SECS     keep the endpoint up SECS seconds after the
                        command finishes (outputs are already written),
                        so a scraper can collect the final state

files: .csv (long format: traj_id,t,c0,c1) or .bin (trajsim binary)";

/// Every subcommand `dispatch` recognizes — the source of truth the
/// USAGE-drift test checks, so a new arm cannot land without help text.
#[cfg(test)]
const COMMANDS: &[&str] = &[
    "generate", "convert", "stats", "knn", "explain", "range", "replay", "slow", "slo", "watch",
    "cluster",
];

/// Every option any command reads (`-o` included, as `o`). `dispatch`
/// refuses any other, so a misspelt or retired flag is an error rather
/// than silently ignored; a test checks each one appears in `USAGE`.
const OPTIONS: &[&str] = &[
    "attribute",
    "batch",
    "check",
    "count",
    "edits",
    "engine",
    "eps",
    "every",
    "index",
    "json",
    "k",
    "latency-tolerance",
    "max-drift",
    "max-triangle",
    "metrics-out",
    "n",
    "o",
    "profile-out",
    "queries",
    "query",
    "record",
    "sample",
    "seed",
    "serve-hold",
    "serve-metrics",
    "shape-tolerance",
    "spread",
    "threads",
    "top",
    "trace",
    "tree",
];

/// Fails fast when an output path cannot be created, naming the flag
/// that carried it — an unwritable path is a clean error before the
/// workload runs, not a lost result after. Shared by `--profile-out`,
/// `--metrics-out`, `--record`, `--json`, and `stats merge -o`.
fn ensure_writable(flag: &str, path: &str) -> Result<(), String> {
    File::create(path)
        .map(|_| ())
        .map_err(|e| format!("{flag} {path}: {e}"))
}

/// Tracing/profiling/recording requested on the command line, resolved
/// and validated before the command runs.
struct Telemetry {
    trace_level: Option<trajsim_obs::Level>,
    profile: Option<(String, Arc<ProfileCollector>)>,
    record: Option<(String, Arc<FlightRecorder>)>,
    /// The live telemetry endpoint (`--serve-metrics ADDR`) and how many
    /// seconds to hold it open after the command finishes
    /// (`--serve-hold`). Started here in `from_args` — NOT in
    /// `install()`, which `replay` re-runs mid-command and would
    /// double-bind — and shut down gracefully at the end of `finish()`,
    /// after every output file is written, so a scraper holding the
    /// endpoint open sees the same final counters `--metrics-out` got.
    serve: Option<(trajsim_obs::ServerHandle, u64)>,
}

impl Telemetry {
    fn from_args(parsed: &Parsed) -> Result<Telemetry, String> {
        let trace_level = match parsed.get("trace") {
            // Bare `--trace` parses as the flag value "true" → debug.
            Some("true") => Some(trajsim_obs::Level::Debug),
            Some(lvl) => Some(lvl.parse().map_err(|e| format!("option --trace: {e}"))?),
            None => None,
        };
        let profile = match parsed.get("profile-out") {
            Some(path) => {
                ensure_writable("--profile-out", path)?;
                Some((path.to_string(), ProfileCollector::new()))
            }
            None => None,
        };
        let sample: Option<u64> = match parsed.get("sample") {
            Some(n) => {
                let n: u64 = n.parse().map_err(|e| format!("option --sample: {e}"))?;
                if n == 0 {
                    return Err("option --sample: must be at least 1".into());
                }
                if parsed.get("record").is_none() {
                    return Err("option --sample: requires --record FILE".into());
                }
                Some(n)
            }
            None => None,
        };
        let record = match parsed.get("record") {
            Some(path) => {
                ensure_writable("--record", path)?;
                let recorder = match sample {
                    Some(every) => {
                        FlightRecorder::create_sampled(path, SamplerConfig::every(every))
                    }
                    None => FlightRecorder::create(path),
                }
                .map_err(|e| format!("--record {path}: {e}"))?;
                Some((path.to_string(), recorder))
            }
            None => None,
        };
        let serve = match parsed.get("serve-metrics") {
            Some(addr) => {
                let hold: u64 = parsed.get_or("serve-hold", 0u64)?;
                let handle = trajsim_obs::serve(addr, trajsim_obs::metrics::global())
                    .map_err(|e| format!("option --serve-metrics: {e}"))?;
                // To stdout: under --trace, stderr must stay pure JSON
                // lines. With port 0 this is the only place the picked
                // ephemeral port is reported.
                println!("telemetry endpoint: http://{}/metrics", handle.addr())?;
                Some((handle, hold))
            }
            None => {
                if parsed.get("serve-hold").is_some() {
                    return Err("option --serve-hold: requires --serve-metrics ADDR".into());
                }
                None
            }
        };
        Ok(Telemetry {
            trace_level,
            profile,
            record,
            serve,
        })
    }

    /// Installs the global sink and level. The profile collector and the
    /// flight recorder need debug-level records, so `--profile-out` and
    /// `--record` raise the level to at least debug; a more verbose
    /// `--trace trace` wins.
    fn install(&self) {
        let mut sinks: Vec<Arc<dyn trajsim_obs::Sink>> = Vec::new();
        if self.trace_level.is_some() {
            sinks.push(Arc::new(trajsim_obs::JsonLinesSink::stderr()));
        }
        if let Some((_, collector)) = &self.profile {
            sinks.push(collector.clone());
        }
        if let Some((_, recorder)) = &self.record {
            sinks.push(recorder.clone());
        }
        match sinks.len() {
            0 => return,
            1 => trajsim_obs::set_sink(sinks.pop()),
            _ => trajsim_obs::set_sink(Some(Arc::new(TeeSink::new(sinks)))),
        }
        let mut level = self.trace_level.unwrap_or(trajsim_obs::Level::Off);
        if self.profile.is_some() || self.record.is_some() {
            level = level.max(trajsim_obs::Level::Debug);
        }
        trajsim_obs::set_level(level);
    }

    /// Writes the recording's header line once the command has resolved
    /// its configuration. No-op without `--record`; idempotent.
    fn record_header(&self, meta: serde_json::Value) -> Result<(), String> {
        if let Some((path, recorder)) = &self.record {
            recorder
                .write_header(meta)
                .map_err(|e| format!("--record {path}: {e}"))?;
        }
        Ok(())
    }

    /// Writes the collected profile and flushes the recording (if any)
    /// and, when either forced the tracing globals, puts them back the
    /// way `--trace` alone would have left them.
    fn finish(&self) -> Result<(), String> {
        let mut result = Ok(());
        if let Some((path, collector)) = &self.profile {
            let records = collector.take();
            let written = trajsim_profile::write_chrome_trace(Path::new(path), &records)
                .map_err(|e| format!("--profile-out {path}: {e}"));
            if written.is_ok() {
                eprintln!("profile: {} records -> {path}", records.len());
            }
            result = result.and(written);
        }
        if let Some((path, recorder)) = &self.record {
            let flushed = recorder
                .finish()
                .map_err(|e| format!("--record {path}: {e}"));
            if flushed.is_ok() {
                eprintln!(
                    "recording: {} queries -> {path}",
                    recorder.records_written()
                );
            }
            result = result.and(flushed);
        }
        if self.profile.is_some() || self.record.is_some() {
            match self.trace_level {
                Some(lvl) => {
                    trajsim_obs::set_sink(Some(Arc::new(trajsim_obs::JsonLinesSink::stderr())));
                    trajsim_obs::set_level(lvl);
                }
                None => {
                    trajsim_obs::set_sink(None);
                    trajsim_obs::set_level(trajsim_obs::Level::Off);
                }
            }
        }
        // Last: every output above is already on disk, so a scraper
        // using the hold window sees the run's final state. Shutdown is
        // graceful — an in-flight scrape finishes before the join.
        if let Some((server, hold)) = &self.serve {
            if *hold > 0 {
                result = result.and(println!(
                    "telemetry endpoint: holding {hold}s before shutdown"
                ));
                std::thread::sleep(std::time::Duration::from_secs(*hold));
            }
            server.shutdown();
        }
        result
    }
}

/// Dispatches the parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(argv)?;
    if let Some(key) = parsed.option_keys().find(|key| !OPTIONS.contains(key)) {
        return Err(format!("unknown option --{key}\n{USAGE}"));
    }
    let threads: usize = parsed.get_or("threads", 0usize)?;
    trajsim_parallel::set_num_threads(threads);
    let telemetry = Telemetry::from_args(&parsed)?;
    telemetry.install();
    let result = match parsed.positional(0) {
        Some("generate") => generate(&parsed),
        Some("convert") => convert(&parsed),
        Some("stats") => stats(&parsed),
        Some("knn") => knn(&parsed, &telemetry),
        Some("explain") => explain(&parsed, &telemetry),
        Some("range") => range(&parsed, &telemetry),
        Some("replay") => replay(&parsed, &telemetry),
        Some("slow") => slow(&parsed),
        Some("slo") => slo(&parsed),
        Some("watch") => watch(&parsed),
        Some("cluster") => cluster(&parsed),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        None => Err(USAGE.to_string()),
    };
    // Export whatever was collected even when the command failed — a
    // profile of the work done before the error is still useful.
    let finished = telemetry.finish();
    // A closed stdout ends the command early; an export failing after
    // it is still an error.
    match result {
        Err(e) if e == crate::out::CLOSED => finished.and(Err(e)),
        result => result.and(finished),
    }
}

fn load(path: &str) -> Result<Dataset<2>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let reader = BufReader::new(file);
    let ds = if Path::new(path).extension().is_some_and(|e| e == "bin") {
        trajsim_io::read_binary(reader).map_err(|e| e.to_string())?
    } else {
        trajsim_io::read_csv(reader).map_err(|e| e.to_string())?
    };
    if ds.is_empty() {
        return Err(format!("{path}: empty data set"));
    }
    Ok(ds)
}

fn store(path: &str, ds: &Dataset<2>) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let writer = BufWriter::new(file);
    if Path::new(path).extension().is_some_and(|e| e == "bin") {
        trajsim_io::write_binary(writer, ds).map_err(|e| e.to_string())
    } else {
        trajsim_io::write_csv(writer, ds).map_err(|e| e.to_string())
    }
}

fn pick_eps(parsed: &Parsed, ds: &Dataset<2>) -> Result<MatchThreshold, String> {
    let default = max_std_dev(ds.trajectories()).map_err(|e| e.to_string())? * 0.25;
    let eps: f64 = parsed.get_or("eps", default)?;
    MatchThreshold::new(eps).map_err(|e| e.to_string())
}

fn generate(parsed: &Parsed) -> Result<(), String> {
    let kind = parsed
        .positional(1)
        .ok_or("generate: missing data set kind")?;
    let out: String = parsed.require("o")?;
    let seed: u64 = parsed.get_or("seed", 42u64)?;
    let n: usize = parsed.get_or("n", 1000usize)?;
    let ds = match kind {
        "nhl" => trajsim_data::nhl_like(seed, n),
        "mixed" => trajsim_data::mixed_like(seed, n),
        "walk" => trajsim_data::random_walk_set_spread(
            &mut seeded_rng(seed),
            n,
            LengthDistribution::Uniform { min: 30, max: 256 },
            {
                let spread: f64 = parsed.get_or("spread", 0.0f64)?;
                if !spread.is_finite() || spread < 0.0 {
                    return Err(format!("option --spread: must be non-negative ({spread})"));
                }
                spread
            },
        ),
        "asl" => trajsim_data::asl_retrieval_like(seed),
        "kungfu" => trajsim_data::kungfu_like(seed),
        "slip" => trajsim_data::slip_like(seed),
        other => return Err(format!("unknown data set kind {other:?}")),
    };
    store(&out, &ds)?;
    println!("wrote {} trajectories to {out}", ds.len())?;
    Ok(())
}

fn convert(parsed: &Parsed) -> Result<(), String> {
    let (input, output) = match (parsed.positional(1), parsed.positional(2)) {
        (Some(i), Some(o)) => (i, o),
        _ => return Err("convert: need <in> and <out>".into()),
    };
    let ds = load(input)?;
    store(output, &ds)?;
    println!("converted {} trajectories: {input} -> {output}", ds.len())?;
    Ok(())
}

/// `trajsim stats`: dataset statistics for a data file, or — via the
/// `show`/`merge`/`diff` subcommands — the persisted workload stats
/// store built from flight recordings.
fn stats(parsed: &Parsed) -> Result<(), String> {
    match parsed.positional(1) {
        Some("show") => stats_show(parsed),
        Some("merge") => stats_merge(parsed),
        Some("diff") => stats_diff(parsed),
        Some(path) => dataset_stats(path),
        None => Err("stats: missing file (or a show/merge/diff subcommand)".into()),
    }
}

/// `trajsim stats show <recording|store>`: aggregates (if needed) and
/// renders the per-filter selectivity and latency-percentile table.
fn stats_show(parsed: &Parsed) -> Result<(), String> {
    let input = parsed
        .positional(2)
        .ok_or("stats show: missing input (a flight recording or stats store)")?;
    print!("{}", read_stats_input(input)?.render())?;
    Ok(())
}

/// `trajsim stats merge <in>... -o FILE`: folds any mix of flight
/// recordings and existing stores into one persisted store document.
fn stats_merge(parsed: &Parsed) -> Result<(), String> {
    let out: String = parsed.require("o")?;
    ensure_writable("-o", &out)?;
    if parsed.positional(2).is_none() {
        return Err("stats merge: need at least one input recording or store".into());
    }
    let mut merged = WorkloadStats::default();
    let mut inputs = 0usize;
    while let Some(input) = parsed.positional(2 + inputs) {
        merged
            .merge(&read_stats_input(input)?)
            .map_err(|e| format!("{input}: {e}"))?;
        inputs += 1;
    }
    let text = serde_json::to_string_pretty(&merged.to_json()).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "merged {inputs} inputs ({} queries over {} runs) -> {out}",
        merged.queries, merged.runs
    )?;
    Ok(())
}

/// `trajsim stats diff <a> <b>`: compares two recordings/stores.
/// Workload-shape quantities (candidate flow, selectivity, pruning
/// power) must match near-exactly; latency percentiles get the relative
/// `--latency-tolerance` (default 0.5 = ±50%). With `--check`, drift is
/// an error — the CI regression mode.
fn stats_diff(parsed: &Parsed) -> Result<(), String> {
    let (a, b) = match (parsed.positional(2), parsed.positional(3)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err("stats diff: need two inputs (recordings or stores)".into()),
    };
    let tolerance: f64 = parsed.get_or("latency-tolerance", 0.5f64)?;
    if !(0.0..=1.0).contains(&tolerance) {
        return Err("option --latency-tolerance: must be in 0..=1".into());
    }
    let shape_tolerance: f64 = parsed.get_or("shape-tolerance", 0.0f64)?;
    if !(0.0..=1.0).contains(&shape_tolerance) {
        return Err("option --shape-tolerance: must be in 0..=1".into());
    }
    let (wa, wb) = (read_stats_input(a)?, read_stats_input(b)?);
    let report = DiffReport::compare_with(&wa, &wb, tolerance, shape_tolerance);
    // As in `slo check`, the verdict outranks a closed stdout.
    let mut printed = print!("{}", report.render());
    if parsed.flag("attribute") {
        printed = printed.and(println!("attribution (per-stage share of total latency):"));
        printed = printed.and(print!("{}", Attribution::compare(&wa, &wb).render()));
    }
    if parsed.flag("check") && report.drifted() {
        return Err("stats diff: significant drift between inputs".into());
    }
    printed
}

/// `trajsim slow <recording>`: the slow-query forensics view — ranks the
/// recording's worst queries by total latency (which tail-sampled
/// recordings keep in full by construction) and attributes each one's
/// time to pipeline stages.
fn slow(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional(1).ok_or("slow: missing recording")?;
    let top: usize = parsed.get_or("top", 10usize)?;
    if top == 0 {
        return Err("option --top: must be at least 1".into());
    }
    let rec = Recording::read(path)?;
    print!("{}", SlowReport::from_recording(&rec, top).render())?;
    Ok(())
}

/// `trajsim slo ...`: service-level-objective tooling. Only `check` for
/// now; the subcommand level leaves room for `slo render`-style tools.
fn slo(parsed: &Parsed) -> Result<(), String> {
    match parsed.positional(1) {
        Some("check") => slo_check(parsed),
        Some(other) => Err(format!(
            "slo: unknown subcommand {other:?} (expected check)"
        )),
        None => Err(
            "slo: missing subcommand (usage: trajsim slo check <spec> <recording|store>)".into(),
        ),
    }
}

/// `trajsim slo check <spec> <input>`: evaluates an SLO spec against a
/// flight recording or a stats store, and exits nonzero on violation —
/// the CI gate.
fn slo_check(parsed: &Parsed) -> Result<(), String> {
    let spec_path = parsed.positional(2).ok_or("slo check: missing spec file")?;
    let input = parsed
        .positional(3)
        .ok_or("slo check: missing input (a recording or stats store)")?;
    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("slo check: open {spec_path}: {e}"))?;
    let spec =
        trajsim_profile::SloSpec::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    let report = trajsim_profile::evaluate_stats(&spec, &read_stats_input(input)?);
    // A gate's verdict outranks a closed stdout: a failed check never
    // exits 0 because its reader went away.
    let printed = print!("{}", report.render());
    if report.violated() {
        return Err(format!("slo check: {input} violates {spec_path}"));
    }
    printed
}

/// `trajsim watch ADDR`: polls a `--serve-metrics` endpoint and prints
/// one line per interval — qps, p99 latency, and the dominant stage —
/// computed by diffing successive `/metrics` scrapes (counter deltas,
/// histogram bucket deltas through the shared quantile estimator).
fn watch(parsed: &Parsed) -> Result<(), String> {
    let addr = parsed
        .positional(1)
        .ok_or("watch: missing ADDR (host:port of a --serve-metrics endpoint)")?;
    let every: f64 = parsed.get_or("every", 2.0f64)?;
    if !(every > 0.0 && every.is_finite()) {
        return Err("option --every: must be a positive number of seconds".into());
    }
    let count: u64 = parsed.get_or("count", 0u64)?; // 0 = until interrupted
    let timeout = std::time::Duration::from_secs(5);
    let scrape = || -> Result<trajsim_obs::exposition::Scrape, String> {
        let (status, body) = trajsim_obs::http_get(addr, "/metrics", timeout)?;
        if status != 200 {
            return Err(format!("watch: {addr}/metrics answered HTTP {status}"));
        }
        trajsim_obs::exposition::parse(&body).map_err(|e| format!("watch: {addr}: {e}"))
    };
    let mut prev = scrape()?;
    let mut prev_t = std::time::Instant::now();
    let mut printed = 0u64;
    while count == 0 || printed < count {
        std::thread::sleep(std::time::Duration::from_secs_f64(every));
        let cur = scrape()?;
        let now = std::time::Instant::now();
        let dt = now.duration_since(prev_t).as_secs_f64().max(1e-9);
        println!("{}", watch_line(&prev, &cur, dt))?;
        prev = cur;
        prev_t = now;
        printed += 1;
    }
    Ok(())
}

/// One `watch` rollup line from two consecutive scrapes `dt` seconds
/// apart. Pure so the interval arithmetic is unit-testable without a
/// live endpoint.
fn watch_line(
    prev: &trajsim_obs::exposition::Scrape,
    cur: &trajsim_obs::exposition::Scrape,
    dt: f64,
) -> String {
    let delta = |name: &str| -> u64 {
        cur.sample_u64(name)
            .unwrap_or(0)
            .saturating_sub(prev.sample_u64(name).unwrap_or(0))
    };
    let queries = delta("knn_queries_total");
    let total = cur.sample_u64("knn_queries_total").unwrap_or(0);
    if queries == 0 {
        return format!("idle: 0 queries this interval ({total} total)");
    }
    let qps = queries as f64 / dt;
    // p99 of this interval: the bucket deltas of knn.query_ns.
    let p99 = match (
        cur.histograms.get("knn_query_ns"),
        prev.histograms.get("knn_query_ns"),
    ) {
        (Some(c), Some(p)) if c.bounds == p.bounds && c.counts.len() == p.counts.len() => {
            let deltas: Vec<u64> = c
                .counts
                .iter()
                .zip(&p.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect();
            trajsim_obs::metrics::quantile_from_buckets(&c.bounds, &deltas, 0.99)
        }
        (Some(c), None) => trajsim_obs::metrics::quantile_from_buckets(&c.bounds, &c.counts, 0.99),
        _ => 0.0,
    };
    // Dominant stage: largest knn.stage.*_ns increment this interval.
    let mut dominant = ("none", 0u64);
    let mut stage_sum = 0u64;
    for (s, _) in StageTimings::default().parts() {
        let d = delta(&format!("knn_stage_{s}_ns_total"));
        stage_sum += d;
        if d > dominant.1 {
            dominant = (s, d);
        }
    }
    let share = if stage_sum == 0 {
        0.0
    } else {
        dominant.1 as f64 * 100.0 / stage_sum as f64
    };
    format!(
        "{qps:>8.1} q/s  p99 {:>9.3} ms  dominant {} ({share:.0}% of stage time)  [{total} queries total]",
        p99 / 1e6,
        dominant.0,
    )
}

fn dataset_stats(path: &str) -> Result<(), String> {
    let ds = load(path)?;
    let lens: Vec<usize> = ds.iter().map(|(_, t)| t.len()).collect();
    let total: usize = lens.iter().sum();
    let (mut lo, mut hi) = (
        trajsim_core::Point2::xy(f64::INFINITY, f64::INFINITY),
        trajsim_core::Point2::xy(f64::NEG_INFINITY, f64::NEG_INFINITY),
    );
    for (_, t) in ds.iter() {
        if let Ok((l, h)) = t.bounding_box() {
            lo = trajsim_core::Point2::xy(lo.x().min(l.x()), lo.y().min(l.y()));
            hi = trajsim_core::Point2::xy(hi.x().max(h.x()), hi.y().max(h.y()));
        }
    }
    println!("{path}:")?;
    println!("  trajectories: {}", ds.len())?;
    println!("  samples:      {total}")?;
    println!(
        "  lengths:      min {} / mean {:.1} / max {}",
        lens.iter().min().unwrap(),
        total as f64 / ds.len() as f64,
        lens.iter().max().unwrap()
    )?;
    println!(
        "  extent:       x [{:.2}, {:.2}], y [{:.2}, {:.2}]",
        lo.x(),
        hi.x(),
        lo.y(),
        hi.y()
    )?;
    Ok(())
}

fn report(result: &KnnResult) -> Result<(), String> {
    for n in &result.neighbors {
        println!("  id {:>6}  EDR {:>5}", n.id, n.dist)?;
    }
    let credit = Stage::ALL.map(|s| format!("{} {}", result.stats.pruned_by(s), s.name()));
    println!(
        "  [{} of {} candidates pruned ({:.1}%): {}]",
        result.stats.pruned(),
        result.stats.database_size,
        result.stats.pruning_power() * 100.0,
        credit.join(", "),
    )?;
    println!(
        "  [{} true EDR computations, {} DP cells filled]",
        result.stats.edr_computed, result.stats.dp_cells,
    )?;
    let (threads, source) = trajsim_parallel::num_threads_with_source();
    println!("  [threads: {threads} ({})]", source.as_str())?;
    report_stages(&result.stats.timings, None)
}

/// Millisecond rendering of a nanosecond stage time.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-query latency percentiles from the live `knn.query_ns` histogram
/// — the same bucket estimator `--metrics-out` snapshots and the stats
/// store persists, so all three report identical figures for identical
/// counts. Process-wide: covers every query this run answered so far.
fn report_latency_percentiles() -> Result<(), String> {
    let h = trajsim_obs::metrics::global().histogram("knn.query_ns");
    if h.count() == 0 {
        return Ok(());
    }
    println!(
        "    latency ({} queries this run): p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        h.count(),
        h.quantile(0.50) / 1e6,
        h.quantile(0.95) / 1e6,
        h.quantile(0.99) / 1e6,
    )
}

/// The per-stage timing table: one row per stage that did any work. A
/// workload (`per` = its batches and queries) sums each stage's
/// per-query time and adds the per-batch and per-query columns. Queries
/// of a batch run on several workers at once, so at more than one
/// thread the sums exceed the workload's wall time (printed above the
/// table).
fn report_stages(t: &StageTimings, per: Option<(usize, usize)>) -> Result<(), String> {
    let title = match per {
        None => "wall, per this query",
        Some(_) => "summed over queries; whole workload / per batch / per query",
    };
    let cols = |a: &str, b: &str| per.map_or(String::new(), |_| format!(" {a:>10} {b:>10}"));
    println!("  stage timings ({title}):")?;
    let head = cols("ms/batch", "ms/query");
    println!(
        "    {:<12} {:>10}{head} {:>12} {:>12}",
        "stage", "ms", "cand. in", "cand. out"
    )?;
    let row = |name: &str, ns: u64, cands: Option<(usize, usize)>| {
        let (cin, cout) = cands.map_or(("-".into(), "-".into()), |(i, o)| {
            (i.to_string(), o.to_string())
        });
        let shares = per.map_or(String::new(), |(b, q)| {
            let share = |n: usize| format!("{:.3}", ms(ns) / n.max(1) as f64);
            cols(&share(b), &share(q))
        });
        println!(
            "    {name:<12} {:>10.3}{shares} {cin:>12} {cout:>12}",
            ms(ns)
        )
    };
    if t.setup_ns > 0 || per.is_some() {
        row("setup", t.setup_ns, None)?;
    }
    for stage in Stage::ALL {
        let (name, s) = (stage.name(), t.stage(stage));
        if s.ran() {
            row(name, s.filter_ns, Some((s.candidates_in, s.candidates_out)))?;
        }
    }
    row("refine", t.refine_ns, None)?;
    row("other", t.other_ns(), None)?;
    row("total", t.total_ns, None)?;
    report_latency_percentiles()
}
/// A built k-NN engine behind two closures, so `knn` and `explain`
/// construct engines identically (build once, query many): one query at
/// a time, or a whole batch through the engine's `knn_batch` (parallel
/// per-query answers).
type QueryFn<'a> = Box<dyn Fn(&Trajectory<2>, usize) -> KnnResult + 'a>;
type BatchFn<'a> = Box<dyn Fn(&[Trajectory<2>], usize) -> Vec<KnnResult> + 'a>;

struct Engine<'a> {
    query: QueryFn<'a>,
    batch: BatchFn<'a>,
}

/// Wraps one built engine value into both calling conventions.
fn engine_pair<'a, E: KnnEngine<2> + Sync + 'a>(e: E) -> Engine<'a> {
    let e = std::rc::Rc::new(e);
    let shared = e.clone();
    Engine {
        query: Box::new(move |q, k| e.knn(q, k)),
        batch: Box::new(move |qs, k| shared.knn_batch(qs, k)),
    }
}

/// Resolves `--index`: `art` asks the combined engine to generate
/// candidates through the adaptive radix signature index.
fn pick_index(parsed: &Parsed) -> Result<bool, String> {
    match parsed.get("index") {
        None => Ok(false),
        Some("art") => Ok(true),
        Some(other) => Err(format!(
            "option --index: unknown index {other:?} (supported: art)"
        )),
    }
}

/// Builds the named engine over `ds`. `histogram`, `triangle` and
/// `combined` are configurations of the one filter cascade
/// ([`CombinedKnn`]). `max_triangle` bounds the reference pool of the
/// (near-)triangle filter where one is used; `index` additionally builds
/// the ART signature index (combined engine only — the other engines
/// have no candidate-generation stage to replace). Histograms need a
/// positive ε, so ε = 0 is an error for the engines that build them.
fn build_engine<'a>(
    ds: &'a Dataset<2>,
    eps: MatchThreshold,
    name: &str,
    max_triangle: usize,
    index: bool,
) -> Result<Engine<'a>, String> {
    if index && name != "combined" {
        return Err(format!(
            "--index art requires the combined engine (got {name:?})"
        ));
    }
    let config = match name {
        // The parallel scan degrades to the serial one on a single worker.
        "scan" => return Ok(engine_pair(SequentialScan::new(ds, eps).with_parallel())),
        "qgram" => {
            let engine = QgramKnn::build(ds, eps, 1, QgramVariant::MergeJoin2d);
            return Ok(engine_pair(engine));
        }
        "histogram" => {
            CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sorted)
        }
        "triangle" => CombinedConfig::near_triangle_only(max_triangle),
        "combined" => CombinedConfig {
            max_triangle,
            ..Default::default()
        },
        other => return Err(format!("unknown engine {other:?}")),
    };
    if eps.value() == 0.0 && config.builds_histograms() {
        return Err(format!(
            "the {name} engine's histograms need a positive epsilon, but epsilon is 0 \
             (the default is a quarter of the largest coordinate standard deviation, \
             which is 0 when every point is the same); pass --eps, or use an engine \
             that accepts epsilon 0: scan, qgram or triangle"
        ));
    }
    let engine = CombinedKnn::build(ds, eps, config);
    Ok(engine_pair(if index {
        engine.with_index()
    } else {
        engine
    }))
}

/// Rejects `k = 0` (from `--k` or a recording's header) before any engine.
fn positive_k(k: usize) -> Result<usize, String> {
    (k > 0)
        .then_some(k)
        .ok_or_else(|| "k must be at least 1".into())
}

/// Trajectory `id` of `ds`, or an error naming the data set's size.
fn query_of(ds: &Dataset<2>, id: usize) -> Result<&Trajectory<2>, String> {
    ds.get(id)
        .ok_or_else(|| format!("query id {id} out of range (N = {})", ds.len()))
}

/// Resolves the query selection shared by `knn` and `explain`: exactly
/// one of `--query I` (that trajectory) or `--queries N` (the first N),
/// with `--batch B` only meaningful for a multi-query workload.
enum Workload {
    Single(usize),
    /// The first `queries` trajectories; `batch: None` answers them one
    /// at a time (the pre-batching behaviour), `Some(b)` routes batches
    /// of `b` through the engine's `knn_batch`.
    Multi {
        queries: usize,
        batch: Option<usize>,
    },
}

fn pick_workload(parsed: &Parsed, cmd: &str, ds: &Dataset<2>) -> Result<Workload, String> {
    let batch: Option<usize> = match parsed.get("batch") {
        Some(_) => Some(parsed.require("batch")?),
        None => None,
    };
    match (parsed.get("query"), parsed.get("queries")) {
        (Some(_), None) => {
            if batch.is_some() {
                return Err(format!(
                    "{cmd}: --batch answers many queries at once; \
                     use --queries N instead of --query"
                ));
            }
            let id: usize = parsed.require("query")?;
            query_of(ds, id)?;
            Ok(Workload::Single(id))
        }
        (None, Some(_)) => {
            let n: usize = parsed.require("queries")?;
            if n == 0 || n > ds.len() {
                return Err(format!("--queries must be in 1..={}", ds.len()));
            }
            if let Some(b) = batch {
                if b == 0 {
                    return Err("option --batch: must be at least 1".into());
                }
                if b > n {
                    return Err(format!(
                        "option --batch: batch size {b} exceeds the workload of {n} queries"
                    ));
                }
            }
            Ok(Workload::Multi { queries: n, batch })
        }
        _ => Err(format!(
            "{cmd}: need exactly one of --query I or --queries N"
        )),
    }
}

/// The engine-selection knobs a recording's header must carry for
/// `trajsim replay` to rebuild the same engine.
struct EngineSel<'a> {
    name: &'a str,
    max_triangle: usize,
    index: bool,
}

/// The resolved configuration a recording's header carries — enough for
/// `trajsim replay` to rebuild the dataset, engine, and workload.
fn workload_meta(
    command: &str,
    data: &str,
    engine: &EngineSel<'_>,
    k: usize,
    eps: f64,
    workload: &Workload,
) -> serde_json::Value {
    let (threads, _) = trajsim_parallel::num_threads_with_source();
    let w = match workload {
        Workload::Single(id) => serde_json::json!({ "query": *id }),
        Workload::Multi { queries, batch } => serde_json::json!({
            "queries": *queries,
            "batch": match batch {
                Some(b) => serde_json::json!(*b),
                None => serde_json::Value::Null,
            },
        }),
    };
    serde_json::json!({
        "command": command,
        "data": data,
        "engine": engine.name,
        "k": k,
        "eps": eps,
        "max_triangle": engine.max_triangle,
        "index": if engine.index { "art" } else { "none" },
        "threads": threads,
        "workload": w,
    })
}

fn knn(parsed: &Parsed, telemetry: &Telemetry) -> Result<(), String> {
    let path = parsed.positional(1).ok_or("knn: missing file")?;
    if let Some(out) = parsed.get("metrics-out") {
        ensure_writable("--metrics-out", out)?;
    }
    let ds = load(path)?.normalize();
    let k = positive_k(parsed.get_or("k", 10usize)?)?;
    let eps = pick_eps(parsed, &ds)?;
    let engine_name: String = parsed.get_or("engine", "combined".to_string())?;
    let max_triangle: usize = parsed.get_or("max-triangle", 100usize)?;
    let index = pick_index(parsed)?;
    let engine = build_engine(&ds, eps, &engine_name, max_triangle, index)?;
    let workload = pick_workload(parsed, "knn", &ds)?;
    telemetry.record_header(workload_meta(
        "knn",
        path,
        &EngineSel {
            name: &engine_name,
            max_triangle,
            index,
        },
        k,
        eps.value(),
        &workload,
    ))?;
    match workload {
        Workload::Single(query_id) => {
            let query = ds.get(query_id).expect("checked in pick_workload");
            println!(
                "k-NN: query {query_id}, k = {k}, eps = {:.4}, engine = {engine_name}",
                eps.value()
            )?;
            let result = (engine.query)(query, k);
            report(&result)?;
            if let Some(out) = parsed.get("metrics-out") {
                write_metrics(
                    out,
                    &engine_name,
                    serde_json::json!(query_id),
                    None,
                    k,
                    eps.value(),
                    &result.stats,
                )?;
                println!("  [metrics written to {out}]")?;
            }
        }
        Workload::Multi { queries, batch } => {
            match batch {
                Some(b) => println!(
                    "k-NN: queries 0..{queries}, k = {k}, eps = {:.4}, \
                     engine = {engine_name}, batch = {b}",
                    eps.value()
                )?,
                None => println!(
                    "k-NN: queries 0..{queries}, k = {k}, eps = {:.4}, \
                     engine = {engine_name}, per-query",
                    eps.value()
                )?,
            }
            let workload: Vec<Trajectory<2>> = (0..queries)
                .map(|i| ds.get(i).expect("checked in pick_workload").clone())
                .collect();
            let step = batch.unwrap_or(1);
            let t = std::time::Instant::now();
            let mut acc = QueryStats::default();
            let mut batches = 0usize;
            let mut shown = 0usize;
            for chunk in workload.chunks(step) {
                let results = match batch {
                    Some(_) => (engine.batch)(chunk, k),
                    None => chunk.iter().map(|q| (engine.query)(q, k)).collect(),
                };
                for (qi, r) in results.iter().enumerate() {
                    // Per-query answers stay visible for small workloads;
                    // past 8 queries this is a throughput run and only the
                    // aggregate matters.
                    if shown < 8 {
                        let pairs: Vec<String> = r
                            .neighbors
                            .iter()
                            .map(|n| format!("{}:{}", n.id, n.dist))
                            .collect();
                        println!("  query {:>4}: [{}]", batches * step + qi, pairs.join(", "))?;
                        shown += 1;
                        if shown == 8 && queries > 8 {
                            println!("  ... ({} more queries)", queries - 8)?;
                        }
                    }
                    acc.accumulate(&r.stats);
                }
                batches += 1;
            }
            let wall_s = t.elapsed().as_secs_f64();
            println!(
                "  [{queries} queries in {batches} batches: {:.3} ms total, {:.3} ms/batch, \
                 {:.3} ms/query amortized, {:.1} queries/sec]",
                wall_s * 1e3,
                wall_s * 1e3 / batches as f64,
                wall_s * 1e3 / queries as f64,
                queries as f64 / wall_s.max(f64::MIN_POSITIVE),
            )?;
            println!(
                "  [{} of {} candidates pruned ({:.1}%), {} true EDR computations]",
                acc.pruned(),
                acc.database_size,
                acc.pruning_power() * 100.0,
                acc.edr_computed,
            )?;
            report_stages(&acc.timings, Some((batches, queries)))?;
            if let Some(out) = parsed.get("metrics-out") {
                write_metrics(
                    out,
                    &engine_name,
                    serde_json::json!({ "first": 0, "count": queries }),
                    batch,
                    k,
                    eps.value(),
                    &acc,
                )?;
                println!("  [metrics written to {out}]")?;
            }
        }
    }
    Ok(())
}

/// `trajsim explain`: runs k-NN through the chosen engine — one query
/// (`--query I`) or a workload of the first N trajectories (`--queries
/// N`, optionally in batches of `--batch B` through `knn_batch`) — and
/// prints the per-stage pruning-power report built from the
/// live query statistics.
fn explain(parsed: &Parsed, telemetry: &Telemetry) -> Result<(), String> {
    let path = parsed.positional(1).ok_or("explain: missing file")?;
    if let Some(out) = parsed.get("json") {
        ensure_writable("--json", out)?;
    }
    let ds = load(path)?.normalize();
    let k = positive_k(parsed.get_or("k", 10usize)?)?;
    let eps = pick_eps(parsed, &ds)?;
    let engine: String = parsed.get_or("engine", "combined".to_string())?;
    let max_triangle: usize = parsed.get_or("max-triangle", 100usize)?;
    let index = pick_index(parsed)?;
    let run = build_engine(&ds, eps, &engine, max_triangle, index)?;
    let workload = pick_workload(parsed, "explain", &ds)?;
    telemetry.record_header(workload_meta(
        "explain",
        path,
        &EngineSel {
            name: &engine,
            max_triangle,
            index,
        },
        k,
        eps.value(),
        &workload,
    ))?;
    let mut acc = QueryStats::default();
    let queries = match workload {
        Workload::Single(id) => {
            acc.accumulate(&(run.query)(ds.get(id).expect("checked"), k).stats);
            1
        }
        Workload::Multi { queries, batch } => {
            let workload: Vec<Trajectory<2>> = (0..queries)
                .map(|i| ds.get(i).expect("checked").clone())
                .collect();
            for chunk in workload.chunks(batch.unwrap_or(1)) {
                let results = match batch {
                    Some(_) => (run.batch)(chunk, k),
                    None => chunk.iter().map(|q| (run.query)(q, k)).collect(),
                };
                for r in results {
                    acc.accumulate(&r.stats);
                }
            }
            queries
        }
    };
    let report = trajsim_profile::ExplainReport::from_stats(&engine, queries, &acc);
    print!("{}", report.render())?;
    if let Some(out) = parsed.get("json") {
        let text = serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(out, text + "\n").map_err(|e| format!("write {out}: {e}"))?;
        println!("  [report written to {out}]")?;
    }
    Ok(())
}

/// Serializes the workload's stats (with stage breakdown), the resolved
/// thread configuration, and a snapshot of the global metrics registry
/// (which carries the `parallel.worker_*` series of multi-threaded
/// runs). `query` describes the workload: a single id, or a
/// `{first, count}` range; `batch` is the batch size when the run went
/// through `knn_batch`.
fn write_metrics(
    path: &str,
    engine: &str,
    query: serde_json::Value,
    batch: Option<usize>,
    k: usize,
    eps: f64,
    stats: &QueryStats,
) -> Result<(), String> {
    let (threads, source) = trajsim_parallel::num_threads_with_source();
    // Refresh the process.* gauges so the snapshot carries the same
    // liveness signals `/metrics` and `/healthz` serve.
    trajsim_obs::process::update(trajsim_obs::metrics::global());
    let doc = serde_json::json!({
        "engine": engine,
        "query": query,
        "batch": match batch {
            Some(b) => serde_json::json!(b),
            None => serde_json::Value::Null,
        },
        "k": k,
        "eps": eps,
        "threads": {
            "count": threads,
            "source": source.as_str(),
        },
        "stats": stats.to_json(),
        "metrics": trajsim_obs::metrics::global().snapshot_json(),
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {path}: {e}"))
}

/// The engine of `range` and its replay: 1HE-HSR, or at ε = 0, where no
/// histogram can be built, the cascade with no stage at all over a
/// database-order scan. The q-gram filter alone (`stages:
/// &[Stage::Qgram]`) is sound there too, but its means build and merge
/// join cost a one-shot query more than the refines it saves
/// (EXPERIMENTS.md).
fn range_engine(ds: &Dataset<2>, eps: MatchThreshold) -> CombinedKnn<'_, 2> {
    let config = if eps.value() > 0.0 {
        CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sorted)
    } else {
        CombinedConfig {
            stages: &[],
            scan: ScanMode::Sequential,
            ..CombinedConfig::default()
        }
    };
    CombinedKnn::build(ds, eps, config)
}

fn range(parsed: &Parsed, telemetry: &Telemetry) -> Result<(), String> {
    let path = parsed.positional(1).ok_or("range: missing file")?;
    let ds = load(path)?.normalize();
    let query_id: usize = parsed.require("query")?;
    let edits: usize = parsed.require("edits")?;
    let query = query_of(&ds, query_id)?;
    let eps = pick_eps(parsed, &ds)?;
    let (threads, _) = trajsim_parallel::num_threads_with_source();
    telemetry.record_header(serde_json::json!({
        "command": "range",
        "data": path,
        "engine": "range",
        "eps": eps.value(),
        "threads": threads,
        "workload": { "query": query_id, "edits": edits },
    }))?;
    let result = range_engine(&ds, eps).range(query, edits);
    println!(
        "range: query {query_id}, within {edits} edits, eps = {:.4}: {} hits",
        eps.value(),
        result.neighbors.len()
    )?;
    report(&result)
}

/// Reads the recording at `rec_path` and re-runs its workload from its
/// header, capturing the fresh flight records in memory through the same
/// `finalize_query` emission path: `(recorded, replayed)`.
fn rerun(rec_path: &str, telemetry: &Telemetry) -> Result<(Recording, Recording), String> {
    let recording = Recording::read(rec_path)?;
    let meta = &recording.meta;
    let meta_str = |key: &str| {
        meta.get(key)
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| {
                format!("replay: recording header has no meta.{key} (recorded without a header?)")
            })
    };
    let meta_u64 = |key: &str| meta.get(key).and_then(serde_json::Value::as_u64);
    let command = meta_str("command")?.to_string();
    let data = meta_str("data")?.to_string();
    let eps_v = meta
        .get("eps")
        .and_then(serde_json::Value::as_f64)
        .ok_or("replay: recording header has no meta.eps")?;
    let ds = load(&data)?.normalize();
    let eps = MatchThreshold::new(eps_v).map_err(|e| e.to_string())?;
    let workload = meta
        .get("workload")
        .cloned()
        .unwrap_or(serde_json::Value::Null);
    let w_u64 = |key: &str| workload.get(key).and_then(serde_json::Value::as_u64);
    // Capture the re-run in memory through the same emission path.
    let buf = Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("replay buffer").extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let capture = FlightRecorder::to_writer(Box::new(SharedBuf(buf.clone())));
    trajsim_obs::set_sink(Some(capture.clone() as Arc<dyn trajsim_obs::Sink>));
    trajsim_obs::set_level(trajsim_obs::Level::Debug);
    let run = (|| -> Result<(), String> {
        match command.as_str() {
            "range" => {
                let id = w_u64("query").ok_or("replay: range workload has no query id")? as usize;
                let edits = w_u64("edits").ok_or("replay: range workload has no edits")? as usize;
                range_engine(&ds, eps).range(query_of(&ds, id)?, edits);
                Ok(())
            }
            "knn" | "explain" => {
                let k = meta_u64("k").ok_or("replay: recording header has no meta.k")? as usize;
                let k = positive_k(k)?;
                let max_triangle = meta_u64("max_triangle").unwrap_or(100) as usize;
                let engine_name = meta_str("engine")?.to_string();
                // Recordings made before the index option default to none.
                let index = meta.get("index").and_then(serde_json::Value::as_str) == Some("art");
                let engine = build_engine(&ds, eps, &engine_name, max_triangle, index)?;
                if let Some(id) = w_u64("query") {
                    (engine.query)(query_of(&ds, id as usize)?, k);
                } else if let Some(n) = w_u64("queries") {
                    let n = n as usize;
                    if n == 0 || n > ds.len() {
                        return Err(format!(
                            "replay: recorded workload of {n} queries does not fit {data} (N = {})",
                            ds.len()
                        ));
                    }
                    let batch = w_u64("batch").map(|b| b as usize);
                    let queries: Vec<Trajectory<2>> = (0..n)
                        .map(|i| ds.get(i).expect("checked").clone())
                        .collect();
                    for chunk in queries.chunks(batch.unwrap_or(1)) {
                        match batch {
                            Some(_) => {
                                (engine.batch)(chunk, k);
                            }
                            None => {
                                for q in chunk {
                                    (engine.query)(q, k);
                                }
                            }
                        }
                    }
                } else {
                    return Err("replay: recording header has no workload description".into());
                }
                Ok(())
            }
            other => Err(format!("replay: cannot replay command {other:?}")),
        }
    })();
    // Put the tracing globals back the way the user's own flags ask for.
    trajsim_obs::set_sink(None);
    trajsim_obs::set_level(trajsim_obs::Level::Off);
    telemetry.install();
    run?;
    capture.finish().map_err(|e| format!("replay: {e}"))?;
    let text = String::from_utf8(buf.lock().expect("replay buffer").clone())
        .map_err(|e| format!("replay: captured recording is not UTF-8: {e}"))?;
    let replayed = Recording::parse(&text).map_err(|e| format!("replay: {e}"))?;
    Ok((recording, replayed))
}

/// `trajsim replay <recording>`: rebuilds the dataset, engine, and
/// workload from the recording's header, re-runs it while capturing a
/// fresh recording in memory through the same `finalize_query` chokepoint,
/// then checks the answers and the work, and reports stage-level drift.
///
/// Answer checking is strict: every engine breaks distance ties by
/// database id, so each query's neighbour ids and distances must match
/// exactly (as a multiset over queries, since batches record in
/// completion order). Each query's work — `edr_computed`, `dp_cells`
/// and the three `pruned_*` counters — is deterministic too, and is
/// compared exactly as a multiset. The stats diff that follows compares the
/// workload's shape (query count, pruned total, pruning power, each
/// stage's candidate flow and selectivity) exactly, and its latency
/// percentiles at the relative `--max-drift`. Under `--check` a
/// difference in the work counters or the shape fails the run, and so
/// does latency drift when `--max-drift` is given. Without it the
/// latency rows are printed at a tolerance of 1, which a relative drift
/// never exceeds: the tail percentiles of a short workload are its top
/// few samples, and one scheduler stall moves them past any tolerance
/// with the same answers and work.
fn replay(parsed: &Parsed, telemetry: &Telemetry) -> Result<(), String> {
    let rec_path = parsed
        .positional(1)
        .ok_or("replay: missing recording file")?;
    let (recording, replayed) = rerun(rec_path, telemetry)?;
    // As in `slo check`, the verdict outranks a closed stdout.
    let meta = |key| recording.meta.get(key).and_then(serde_json::Value::as_str);
    let mut printed = println!(
        "replay: {rec_path} ({} recorded queries, command {}, data {})",
        recording.records.len(),
        meta("command").unwrap_or_default(),
        meta("data").unwrap_or_default(),
    );
    let want = neighbor_sets(&recording);
    let got = neighbor_sets(&replayed);
    if want.len() != got.len() {
        return Err(format!(
            "replay: {} recorded queries but {} replayed",
            want.len(),
            got.len()
        ));
    }
    if want != got {
        let moved = want.iter().zip(&got).filter(|(a, b)| a != b).count();
        return Err(format!(
            "replay: neighbor sets differ from the recording in up to {moved} queries \
             (ids or distances changed)"
        ));
    }
    printed = printed.and(println!(
        "  neighbor sets: identical ({} queries)",
        got.len()
    ));
    let (want, got) = (work_counters(&recording), work_counters(&replayed));
    let work_moved = want != got;
    if work_moved {
        let moved = want.iter().zip(&got).filter(|(a, b)| a != b).count();
        printed = printed.and(println!("  work counters: differ in up to {moved} queries"));
    } else {
        printed = printed.and(println!(
            "  work counters: identical (edr_computed, dp_cells, per-stage pruned)"
        ));
    }

    let tolerance: f64 = parsed.get_or("max-drift", 1.0f64)?;
    if !(0.0..=1.0).contains(&tolerance) {
        return Err("option --max-drift: must be in 0..=1".into());
    }
    let report = DiffReport::compare(
        &WorkloadStats::from_recording(&recording),
        &WorkloadStats::from_recording(&replayed),
        tolerance,
    );
    printed = printed.and(print!("{}", report.render()));
    if parsed.get("max-drift").is_none() {
        printed = printed.and(println!(
            "  latency rows not gated: pass --max-drift F to gate them"
        ));
    }
    if parsed.flag("check") {
        if work_moved {
            return Err("replay: per-query work counters (edr_computed, dp_cells, \
                        per-stage pruned) differ from the recording"
                .into());
        }
        if report.drifted() {
            return Err("replay: drift vs the recording (shape rows exact, \
                        latency rows at --max-drift)"
                .into());
        }
    }
    printed
}

/// Each record's work counters — `edr_computed`, `dp_cells`, then each
/// stage's pruned count — the list sorted, so recordings compare as
/// multisets like [`neighbor_sets`].
fn work_counters(recording: &Recording) -> Vec<Vec<u64>> {
    let mut work: Vec<Vec<u64>> = recording
        .records
        .iter()
        .map(|r| {
            let mut work = vec![r.edr_computed, r.dp_cells];
            work.extend(Stage::ALL.map(|s| r.timings.stage(s).pruned() as u64));
            work
        })
        .collect();
    work.sort_unstable();
    work
}

/// Each record's answer as a `(dist, id)`-sorted list, the lists sorted:
/// records are written in completion order, so recordings compare as
/// multisets of answers.
fn neighbor_sets(recording: &Recording) -> Vec<Vec<(u64, u64)>> {
    let mut sets: Vec<Vec<(u64, u64)>> = recording
        .records
        .iter()
        .map(|r| {
            let mut v: Vec<(u64, u64)> = r.neighbors.iter().map(|&(id, d)| (d, id)).collect();
            v.sort_unstable();
            v
        })
        .collect();
    sets.sort();
    sets
}

fn cluster(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional(1).ok_or("cluster: missing file")?;
    let ds = load(path)?.normalize();
    let k: usize = parsed.get_or("k", 2usize)?;
    if k == 0 || k > ds.len() {
        return Err(format!("--k must be in 1..={}", ds.len()));
    }
    let eps = pick_eps(parsed, &ds)?;
    let measure = trajsim_distance::Measure::Edr { eps };
    let matrix = DistanceMatrix::compute(&ds, &measure);
    let assignment = agglomerative(&matrix, k, Linkage::Complete);
    println!(
        "clustering {} trajectories into {k} clusters (EDR, complete linkage):",
        ds.len()
    )?;
    for c in 0..k {
        let members: Vec<String> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .map(|(i, _)| i.to_string())
            .collect();
        println!("  cluster {c}: {}", members.join(", "))?;
    }
    if parsed.flag("tree") {
        println!("\ndendrogram:")?;
        print!("{}", Dendrogram::build(&matrix, Linkage::Complete).render())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// Tests that install or reset the process-global tracing sink hold
    /// this lock so they cannot clobber each other's captures.
    static SINK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn sink_guard() -> std::sync::MutexGuard<'static, ()> {
        SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("trajsim-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn usage_and_unknown_commands() {
        assert!(run(&[]).unwrap_err().contains("usage"));
        assert!(run(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn generate_stats_convert_roundtrip() {
        let csv = tmp("walks.csv");
        let bin = tmp("walks.bin");
        run(&["generate", "walk", "--n", "20", "--seed", "7", "-o", &csv]).unwrap();
        run(&["stats", &csv]).unwrap();
        run(&["convert", &csv, &bin]).unwrap();
        let a = load(&csv).unwrap();
        let b = load(&bin).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.trajectories().iter().zip(b.trajectories()) {
            assert_eq!(x.points(), y.points());
        }
    }

    #[test]
    fn knn_and_range_run_on_generated_data() {
        // Holds the sink lock like every query-running test: a recording
        // test in another thread must not capture this test's queries
        // through the process-global sink.
        let _g = sink_guard();
        let csv = tmp("knn.csv");
        run(&["generate", "walk", "--n", "30", "--seed", "3", "-o", &csv]).unwrap();
        for engine in ["scan", "qgram", "histogram", "combined"] {
            run(&["knn", &csv, "--query", "0", "--k", "3", "--engine", engine]).unwrap();
        }
        run(&["range", &csv, "--query", "0", "--edits", "5"]).unwrap();
        // Range answers at ε = 0 too (the q-gram filter alone), and
        // both forms replay with identical answers and work.
        for (name, eps) in [
            ("range-eps.flight.jsonl", "0.25"),
            ("range-eps0.flight.jsonl", "0"),
        ] {
            let rec = tmp(name);
            run(&[
                "range", &csv, "--query", "0", "--edits", "5", "--eps", eps, "--record", &rec,
            ])
            .unwrap();
            run(&["replay", &rec, "--check"]).unwrap();
        }
        // Bad engine and bad query id fail cleanly.
        assert!(run(&["knn", &csv, "--query", "0", "--engine", "magic"]).is_err());
        assert!(run(&["knn", &csv, "--query", "9999"]).is_err());
    }

    #[test]
    fn zero_k_is_a_clean_error() {
        let _g = sink_guard();
        let csv = tmp("k0.csv");
        run(&["generate", "walk", "--n", "20", "--seed", "3", "-o", &csv]).unwrap();
        for cmd in ["knn", "explain"] {
            let err = run(&[cmd, &csv, "--query", "7", "--k", "0"]).unwrap_err();
            assert!(err.contains("k must be at least 1"), "{cmd}: {err}");
        }
        // A k far beyond N answers with all of them, in every engine.
        for engine in ["scan", "qgram", "combined"] {
            for k in ["1000000000000", "18446744073709551615"] {
                run(&["knn", &csv, "--query", "7", "--k", k, "--engine", engine]).unwrap();
            }
        }
        // A recording whose header says k = 0 is refused on replay.
        let rec = tmp("k0.flight.jsonl");
        run(&["knn", &csv, "--query", "7", "--k", "3", "--record", &rec]).unwrap();
        let text = std::fs::read_to_string(&rec).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[0] = set_field(&lines[0], "k", 0);
        let bad = tmp("k0-header.flight.jsonl");
        std::fs::write(&bad, lines.join("\n")).unwrap();
        let err = run(&["replay", &bad]).unwrap_err();
        assert!(err.contains("k must be at least 1"), "{err}");
    }

    #[test]
    fn zero_epsilon_is_an_error_for_histogram_engines_only() {
        let _g = sink_guard();
        let csv = tmp("eps0.csv");
        run(&["generate", "walk", "--n", "20", "--seed", "5", "-o", &csv]).unwrap();
        for engine in ["combined", "histogram"] {
            let err = run(&[
                "knn", &csv, "--query", "0", "--eps", "0", "--engine", engine,
            ])
            .unwrap_err();
            assert!(
                err.contains("positive epsilon") && err.contains("triangle"),
                "{engine}: unexpected error: {err}"
            );
        }
        // The default engine is the combined one.
        assert!(run(&["knn", &csv, "--query", "0", "--eps", "0"]).is_err());
        assert!(run(&["explain", &csv, "--query", "0", "--eps", "0"]).is_err());
        for engine in ["scan", "qgram", "triangle"] {
            run(&[
                "knn", &csv, "--query", "0", "--k", "3", "--eps", "0", "--engine", engine,
            ])
            .unwrap_or_else(|e| panic!("{engine} at eps 0: {e}"));
        }
        // Identical points make the default epsilon (a quarter of σ) 0.
        let flat = tmp("eps0-flat.csv");
        let rows: Vec<String> = (0..3)
            .flat_map(|id| (0..4).map(move |t| format!("{id},{t},1.5,-2")))
            .collect();
        std::fs::write(&flat, format!("traj_id,t,c0,c1\n{}\n", rows.join("\n"))).unwrap();
        let err = run(&["knn", &flat, "--query", "0"]).unwrap_err();
        assert!(err.contains("positive epsilon"), "unexpected error: {err}");
        run(&[
            "knn", &flat, "--query", "0", "--k", "2", "--engine", "triangle",
        ])
        .unwrap();
    }

    #[test]
    fn index_flag_builds_the_art_engine_with_identical_answers() {
        let _g = sink_guard();
        let csv = tmp("index.csv");
        run(&[
            "generate", "walk", "--n", "30", "--seed", "43", "--spread", "200", "-o", &csv,
        ])
        .unwrap();
        run(&["knn", &csv, "--query", "0", "--k", "3", "--index", "art"]).unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "4",
            "--batch",
            "4",
            "--index",
            "art",
        ])
        .unwrap();
        run(&["explain", &csv, "--queries", "2", "--index", "art"]).unwrap();
        // The indexed engine the CLI builds answers exactly like the
        // plain one.
        let ds = load(&csv).unwrap().normalize();
        let eps = pick_eps(&Parsed::default(), &ds).unwrap();
        let plain = build_engine(&ds, eps, "combined", 100, false).unwrap();
        let indexed = build_engine(&ds, eps, "combined", 100, true).unwrap();
        for id in 0..3 {
            let q = ds.get(id).unwrap();
            assert_eq!(
                (indexed.query)(q, 4).distances(),
                (plain.query)(q, 4).distances(),
                "query {id}"
            );
        }
        // Only the combined engine has a candidate-generation stage the
        // index can replace; unknown index names are rejected.
        let err = run(&[
            "knn", &csv, "--query", "0", "--engine", "scan", "--index", "art",
        ])
        .unwrap_err();
        assert!(err.contains("combined"), "unexpected error: {err}");
        let err = run(&["knn", &csv, "--query", "0", "--index", "hash"]).unwrap_err();
        assert!(err.contains("--index"), "unexpected error: {err}");
    }

    #[test]
    fn spread_walks_scatter_start_points() {
        let csv = tmp("spread.csv");
        run(&[
            "generate", "walk", "--n", "40", "--seed", "3", "--spread", "100", "-o", &csv,
        ])
        .unwrap();
        let ds = load(&csv).unwrap();
        let xs: Vec<f64> = ds.trajectories().iter().map(|t| t[0].x()).collect();
        let (lo, hi) = xs
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        assert!(hi - lo > 30.0, "start spread only {}", hi - lo);
        assert!(run(&["generate", "walk", "--n", "2", "--spread", "-5", "-o", &csv]).is_err());
    }

    #[test]
    fn metrics_out_emits_parsable_stage_json() {
        let _g = sink_guard();
        let csv = tmp("metrics.csv");
        let out = tmp("metrics.json");
        run(&["generate", "walk", "--n", "25", "--seed", "9", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--query",
            "1",
            "--k",
            "3",
            "--engine",
            "combined",
            "--metrics-out",
            &out,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = serde_json::from_str(&text).expect("metrics file is valid JSON");
        assert_eq!(doc.get("engine").and_then(|v| v.as_str()), Some("combined"));
        let threads = doc.get("threads").expect("threads key");
        assert!(threads.get("count").and_then(|v| v.as_u64()).unwrap() >= 1);
        assert!(threads.get("source").and_then(|v| v.as_str()).is_some());
        let stages = doc
            .get("stats")
            .and_then(|s| s.get("stages"))
            .expect("stats.stages key");
        for key in [
            "setup_ns",
            "histogram",
            "qgram",
            "triangle",
            "refine_ns",
            "total_ns",
        ] {
            assert!(stages.get(key).is_some(), "missing stage key {key}");
        }
        assert!(
            stages.get("total_ns").and_then(|v| v.as_u64()).unwrap() > 0,
            "total stage time should be positive"
        );
        // The global registry snapshot carries the knn counters.
        let metrics = doc.get("metrics").expect("metrics key");
        let counters = metrics.get("counters").expect("counters section");
        assert!(
            counters
                .get("knn.queries")
                .and_then(|v| v.as_u64())
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn trace_flag_accepts_bare_and_leveled_forms() {
        let _g = sink_guard();
        let csv = tmp("trace.csv");
        run(&["generate", "walk", "--n", "10", "--seed", "2", "-o", &csv]).unwrap();
        run(&["knn", &csv, "--query", "0", "--k", "2", "--trace"]).unwrap();
        run(&["knn", &csv, "--query", "0", "--k", "2", "--trace", "info"]).unwrap();
        assert!(run(&["knn", &csv, "--query", "0", "--trace", "blorp"]).is_err());
        // Quiet the process-global tracing again for other tests.
        trajsim_obs::set_level(trajsim_obs::Level::Off);
        trajsim_obs::set_sink(None);
    }

    #[test]
    fn explain_report_matches_the_engine_stats_exactly() {
        let _g = sink_guard();
        let csv = tmp("explain.csv");
        let json = tmp("explain.json");
        run(&["generate", "walk", "--n", "40", "--seed", "11", "-o", &csv]).unwrap();
        run(&[
            "explain",
            &csv,
            "--queries",
            "3",
            "--k",
            "3",
            "--engine",
            "combined",
            "--json",
            &json,
        ])
        .unwrap();
        // Re-run the identical workload directly through the engine and
        // check the written report against the live stats: the counter
        // fields are deterministic and must match exactly.
        let ds = load(&csv).unwrap().normalize();
        let eps = pick_eps(&Parsed::default(), &ds).unwrap();
        let engine = build_engine(&ds, eps, "combined", 100, false).unwrap();
        let mut expected = QueryStats::default();
        for id in 0..3 {
            expected.accumulate(&(engine.query)(ds.get(id).unwrap(), 3).stats);
        }
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(doc.get("engine").and_then(|v| v.as_str()), Some("combined"));
        assert_eq!(doc.get("queries").and_then(|v| v.as_u64()), Some(3));
        for (key, want) in [
            ("database_size", expected.database_size as u64),
            ("edr_computed", expected.edr_computed as u64),
            ("pruned", expected.pruned() as u64),
            ("dp_cells", expected.dp_cells),
        ] {
            assert_eq!(doc.get(key).and_then(|v| v.as_u64()), Some(want), "{key}");
        }
        assert_eq!(
            doc.get("pruning_power").and_then(|v| v.as_f64()),
            Some(expected.pruning_power())
        );
        // Per-stage candidate flow and selectivity, stage by stage.
        let stages = doc.get("stages").unwrap().as_array().unwrap();
        let want_stages = [
            ("histogram", &expected.timings.histogram),
            ("qgram", &expected.timings.qgram),
            ("triangle", &expected.timings.triangle),
        ];
        for got in stages {
            let name = got.get("name").and_then(|v| v.as_str()).unwrap();
            let (_, want) = want_stages
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("unexpected stage {name}"));
            assert_eq!(
                got.get("candidates_in").and_then(|v| v.as_u64()),
                Some(want.candidates_in as u64),
                "{name} candidates_in"
            );
            assert_eq!(
                got.get("candidates_out").and_then(|v| v.as_u64()),
                Some(want.candidates_out as u64),
                "{name} candidates_out"
            );
            assert_eq!(
                got.get("pruned").and_then(|v| v.as_u64()),
                Some(want.pruned() as u64),
                "{name} pruned"
            );
            let want_sel = if want.candidates_in == 0 {
                0.0
            } else {
                want.candidates_out as f64 / want.candidates_in as f64
            };
            assert_eq!(
                got.get("selectivity").and_then(|v| v.as_f64()),
                Some(want_sel),
                "{name} selectivity"
            );
        }
    }

    #[test]
    fn explain_runs_every_engine_and_validates_its_arguments() {
        let _g = sink_guard();
        let csv = tmp("explain-engines.csv");
        run(&["generate", "walk", "--n", "20", "--seed", "4", "-o", &csv]).unwrap();
        for engine in ["scan", "qgram", "histogram", "triangle", "combined"] {
            run(&[
                "explain", &csv, "--query", "0", "--k", "2", "--engine", engine,
            ])
            .unwrap();
        }
        // Exactly one of --query / --queries; ranges validated.
        assert!(run(&["explain", &csv]).unwrap_err().contains("exactly one"));
        assert!(run(&["explain", &csv, "--query", "0", "--queries", "2"]).is_err());
        assert!(run(&["explain", &csv, "--queries", "0"]).is_err());
        assert!(run(&["explain", &csv, "--queries", "999"]).is_err());
        assert!(run(&["explain", &csv, "--query", "999"]).is_err());
    }

    #[test]
    fn profile_out_emits_schema_valid_chrome_trace() {
        let _g = sink_guard();
        let csv = tmp("profile.csv");
        let out = tmp("profile.json");
        run(&["generate", "walk", "--n", "25", "--seed", "8", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--query",
            "0",
            "--k",
            "3",
            "--profile-out",
            &out,
        ])
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(&std::fs::read_to_string(&out).unwrap())
            .expect("profile file is valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(|v| v.as_str()),
            Some("ms")
        );
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        let mut saw_query_slice = false;
        for e in events {
            let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
            assert!(["M", "X", "i"].contains(&ph), "unknown phase {ph:?}");
            assert!(e.get("name").and_then(|v| v.as_str()).is_some());
            assert!(e.get("pid").and_then(|v| v.as_u64()).is_some());
            assert!(e.get("tid").and_then(|v| v.as_u64()).is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
                if e.get("name").and_then(|v| v.as_str()) == Some("knn.query") {
                    saw_query_slice = true;
                    let args = e.get("args").expect("args");
                    assert!(args.get("engine").and_then(|v| v.as_str()).is_some());
                    assert!(args.get("pruned").and_then(|v| v.as_u64()).is_some());
                }
            }
        }
        assert!(saw_query_slice, "no knn.query slice in {out}");
        // The profile run restored tracing; a plain knn emits nothing.
        assert_eq!(trajsim_obs::level(), trajsim_obs::Level::Off);
    }

    #[test]
    fn unwritable_output_paths_fail_cleanly() {
        let csv = tmp("unwritable.csv");
        run(&["generate", "walk", "--n", "10", "--seed", "1", "-o", &csv]).unwrap();
        // Every output flag goes through the shared up-front check, so
        // the error names the flag and arrives before the workload runs.
        let bad = tmp("no-such-dir/out.json");
        let err = run(&["knn", &csv, "--query", "0", "--profile-out", &bad]).unwrap_err();
        assert!(err.contains("--profile-out"), "unexpected error: {err}");
        let err = run(&["knn", &csv, "--query", "0", "--metrics-out", &bad]).unwrap_err();
        assert!(err.contains("--metrics-out"), "unexpected error: {err}");
        let err = run(&["knn", &csv, "--query", "0", "--record", &bad]).unwrap_err();
        assert!(err.contains("--record"), "unexpected error: {err}");
        let err = run(&["explain", &csv, "--query", "0", "--json", &bad]).unwrap_err();
        assert!(err.contains("--json"), "unexpected error: {err}");
        let err = run(&["stats", "merge", &csv, "-o", &bad]).unwrap_err();
        assert!(err.contains(&bad), "unexpected error: {err}");
    }

    #[test]
    fn knn_batched_workload_validates_and_runs() {
        let _g = sink_guard();
        let csv = tmp("batch.csv");
        run(&["generate", "walk", "--n", "32", "--seed", "13", "-o", &csv]).unwrap();
        // --batch belongs to multi-query workloads, bounded by their size.
        let err = run(&["knn", &csv, "--query", "0", "--batch", "4"]).unwrap_err();
        assert!(err.contains("--queries"), "unexpected error: {err}");
        let err = run(&["knn", &csv, "--queries", "8", "--batch", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "unexpected error: {err}");
        let err = run(&["knn", &csv, "--queries", "8", "--batch", "9"]).unwrap_err();
        assert!(err.contains("exceeds"), "unexpected error: {err}");
        assert!(run(&["knn", &csv]).unwrap_err().contains("exactly one"));
        assert!(run(&["knn", &csv, "--queries", "0"]).is_err());
        assert!(run(&["explain", &csv, "--query", "0", "--batch", "2"]).is_err());
        // Batched and per-query multi-runs both execute, on the batch-aware
        // engines and on one that falls back to per-query delegation.
        for engine in ["scan", "combined", "qgram"] {
            run(&[
                "knn",
                &csv,
                "--queries",
                "8",
                "--batch",
                "4",
                "--k",
                "3",
                "--engine",
                engine,
            ])
            .unwrap();
        }
        run(&["knn", &csv, "--queries", "8", "--k", "3"]).unwrap();
        run(&[
            "explain",
            &csv,
            "--queries",
            "8",
            "--batch",
            "8",
            "--k",
            "3",
        ])
        .unwrap();
    }

    #[test]
    fn cluster_runs_and_validates_k() {
        let csv = tmp("cluster.csv");
        run(&["generate", "walk", "--n", "12", "--seed", "5", "-o", &csv]).unwrap();
        run(&["cluster", &csv, "--k", "3", "--tree", "yes"]).unwrap();
        assert!(run(&["cluster", &csv, "--k", "0"]).is_err());
        assert!(run(&["cluster", &csv, "--k", "99"]).is_err());
    }

    #[test]
    fn generate_validates_kind_and_output() {
        assert!(run(&["generate", "martian", "-o", &tmp("x.csv")]).is_err());
        assert!(run(&["generate", "walk"]).unwrap_err().contains("--o"));
    }

    #[test]
    fn record_flag_writes_a_parseable_recording_with_header() {
        let _g = sink_guard();
        let csv = tmp("record.csv");
        let rec = tmp("record.flight.jsonl");
        run(&["generate", "walk", "--n", "30", "--seed", "17", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "6",
            "--k",
            "3",
            "--engine",
            "combined",
            "--record",
            &rec,
        ])
        .unwrap();
        let recording = Recording::read(&rec).unwrap();
        assert_eq!(recording.records.len(), 6);
        let meta = &recording.meta;
        assert_eq!(
            meta.get("command").and_then(serde_json::Value::as_str),
            Some("knn")
        );
        assert_eq!(
            meta.get("engine").and_then(serde_json::Value::as_str),
            Some("combined")
        );
        assert_eq!(meta.get("k").and_then(serde_json::Value::as_u64), Some(3));
        assert_eq!(
            meta.get("data").and_then(serde_json::Value::as_str),
            Some(csv.as_str())
        );
        for r in &recording.records {
            assert_eq!(r.database_size, 30);
            assert_eq!(r.k, 3);
            assert_eq!(r.neighbors.len(), 3);
            assert!(r.timings.total_ns > 0);
        }
        // The recording run restored tracing for subsequent commands.
        assert_eq!(trajsim_obs::level(), trajsim_obs::Level::Off);
        // range records too, with the hit count in the k field.
        let rec2 = tmp("record-range.flight.jsonl");
        run(&[
            "range", &csv, "--query", "0", "--edits", "3", "--record", &rec2,
        ])
        .unwrap();
        let recording = Recording::read(&rec2).unwrap();
        assert_eq!(recording.records.len(), 1);
        assert_eq!(recording.records[0].engine, "range");
        assert_eq!(
            recording.records[0].k,
            recording.records[0].neighbors.len() as u64
        );
    }

    #[test]
    fn stats_subcommands_show_merge_and_diff_recordings() {
        let _g = sink_guard();
        let csv = tmp("stats-flow.csv");
        let rec_a = tmp("stats-a.flight.jsonl");
        let rec_b = tmp("stats-b.flight.jsonl");
        let store = tmp("stats-merged.json");
        run(&["generate", "walk", "--n", "24", "--seed", "19", "-o", &csv]).unwrap();
        for rec in [&rec_a, &rec_b] {
            run(&["knn", &csv, "--queries", "5", "--k", "2", "--record", rec]).unwrap();
        }
        run(&["stats", "show", &rec_a]).unwrap();
        run(&["stats", "merge", &rec_a, &rec_b, "-o", &store]).unwrap();
        let merged = read_stats_input(&store).unwrap();
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.queries, 10);
        // A store is a valid input again: show it, merge it with a recording.
        run(&["stats", "show", &store]).unwrap();
        // Two recordings of the same workload: no significant drift, even
        // under --check (latency gets a generous tolerance; the workload
        // shape must match exactly).
        run(&[
            "stats",
            "diff",
            &rec_a,
            &rec_b,
            "--latency-tolerance",
            "1",
            "--check",
        ])
        .unwrap();
        // Validation: missing inputs and bad tolerance fail cleanly.
        assert!(run(&["stats", "show"]).is_err());
        assert!(run(&["stats", "diff", &rec_a]).is_err());
        assert!(run(&["stats", "merge", "-o", &store]).is_err());
        assert!(run(&["stats", "diff", &rec_a, &rec_b, "--latency-tolerance", "7"]).is_err());
    }

    #[test]
    fn stats_show_reads_records_with_the_retired_batch_fields() {
        // Older builds stamped a shared-scan batch id on each record and
        // counted batched drops; readers ignore both keys.
        let rec = tmp("stats-batch-fields.flight.jsonl");
        std::fs::write(
            &rec,
            concat!(
                "{\"format\":\"trajsim-flight-recording\",\"version\":2,\"meta\":{}}\n",
                "{\"engine\":\"seq-scan\",\"seq\":7,\"query_len\":5,\"k\":2,",
                "\"database_size\":10,\"edr_computed\":10,\"pruned\":0,\"dp_cells\":50,",
                "\"refine_ns\":400,\"total_ns\":500,\"neighbors\":\"1:0 2:3\",\"batch\":3,",
                "\"weight\":3,\"sampled\":\"uniform\",\"absorbed\":{\"queries\":2,",
                "\"batched\":2,\"sums\":{\"database_size\":20,\"edr_computed\":20}}}\n",
            ),
        )
        .unwrap();
        let stats = read_stats_input(&rec).unwrap();
        assert_eq!((stats.queries, stats.recorded_queries), (3, 1));
        assert_eq!((stats.database_size, stats.edr_computed), (30, 30));
        let text = stats.render();
        assert!(
            text.starts_with(
                "workload stats  runs=1  queries=~3 (reweighted from 1 sampled records)\n"
            ),
            "{text}"
        );
        run(&["stats", "show", &rec]).unwrap();
    }

    #[test]
    fn metrics_out_and_profile_out_write_one_file_each() {
        let _g = sink_guard();
        let dir = tmp("one-file-each");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csv = tmp("one-file-each.csv");
        let metrics = format!("{dir}/m.json");
        // Whatever its name says, the profile is a Chrome trace.
        let profile = format!("{dir}/p.folded");
        run(&["generate", "walk", "--n", "20", "--seed", "29", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "4",
            "--k",
            "2",
            "--metrics-out",
            &metrics,
            "--profile-out",
            &profile,
        ])
        .unwrap();
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        written.sort();
        assert_eq!(written, ["m.json", "p.folded"], "no sidecar next to either");
        let trace: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&profile).unwrap()).unwrap();
        assert!(trace
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some());
    }

    #[test]
    fn sampled_recording_reweights_and_ranks_slow_queries() {
        let _g = sink_guard();
        let csv = tmp("sampled.csv");
        let rec = tmp("sampled.flight.jsonl");
        run(&["generate", "walk", "--n", "40", "--seed", "31", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "24",
            "--k",
            "2",
            "--record",
            &rec,
            "--sample",
            "4",
        ])
        .unwrap();
        let recording = Recording::read(&rec).unwrap();
        // 24 queries all fall inside the warmup window, so the uniform
        // path keeps exactly the first of each run of 4.
        assert_eq!(recording.records.len(), 6);
        for r in &recording.records {
            assert_eq!(r.weight, 4);
            assert_eq!(r.sampled.as_deref(), Some("uniform"));
        }
        let sampling = recording.meta.get("sampling").expect("meta.sampling");
        assert_eq!(
            sampling.get("every").and_then(serde_json::Value::as_u64),
            Some(4)
        );
        // The aggregate reweights back to the population query count.
        let stats = read_stats_input(&rec).unwrap();
        assert_eq!(stats.queries, 24);
        assert_eq!(stats.recorded_queries, 6);
        // Forensics commands read the sampled recording.
        run(&["stats", "show", &rec]).unwrap();
        run(&["slow", &rec, "--top", "3"]).unwrap();
        // Validation: --sample needs --record and a positive stride.
        assert!(run(&["knn", &csv, "--query", "0", "--sample", "4"])
            .unwrap_err()
            .contains("--record"));
        assert!(run(&["knn", &csv, "--query", "0", "--record", &rec, "--sample", "0"]).is_err());
        assert!(run(&["slow"]).is_err());
        assert!(run(&["slow", &rec, "--top", "0"]).is_err());
    }

    #[test]
    fn stats_diff_supports_shape_tolerance_and_attribution() {
        let _g = sink_guard();
        let csv = tmp("attrib.csv");
        let full = tmp("attrib-full.flight.jsonl");
        let sampled = tmp("attrib-sampled.flight.jsonl");
        run(&["generate", "walk", "--n", "32", "--seed", "37", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "16",
            "--k",
            "2",
            "--record",
            &full,
        ])
        .unwrap();
        // --sample 1 keeps every query (weight 1): the reweighted shape
        // is identical to the full recording, so even exact diff passes.
        run(&[
            "knn",
            &csv,
            "--queries",
            "16",
            "--k",
            "2",
            "--record",
            &sampled,
            "--sample",
            "1",
        ])
        .unwrap();
        run(&[
            "stats",
            "diff",
            &full,
            &sampled,
            "--latency-tolerance",
            "1",
            "--shape-tolerance",
            "0.05",
            "--attribute",
            "--check",
        ])
        .unwrap();
        assert!(run(&["stats", "diff", &full, &sampled, "--shape-tolerance", "7"]).is_err());
    }

    #[test]
    fn replay_reproduces_the_recorded_neighbor_sets() {
        let _g = sink_guard();
        let csv = tmp("replay.csv");
        let rec = tmp("replay.flight.jsonl");
        run(&["generate", "walk", "--n", "64", "--seed", "23", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "64",
            "--k",
            "3",
            "--engine",
            "combined",
            "--record",
            &rec,
        ])
        .unwrap();
        assert_eq!(Recording::read(&rec).unwrap().records.len(), 64);
        // The replay re-runs the workload from the header and must get
        // identical answers (hard failure otherwise).
        run(&["replay", &rec]).unwrap();
        // Tampering with the recorded distances makes replay fail loudly.
        let text = std::fs::read_to_string(&rec).unwrap();
        let second = text.lines().nth(1).unwrap();
        let v: serde_json::Value = serde_json::from_str(second).unwrap();
        let old_nb = v
            .get("neighbors")
            .and_then(serde_json::Value::as_str)
            .unwrap()
            .to_string();
        let tamper = |name: &str, nb: &str| {
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            lines[1] = lines[1].replace(&old_nb, nb);
            let path = tmp(name);
            std::fs::write(&path, lines.join("\n")).unwrap();
            path
        };
        let new_nb = old_nb
            .split_whitespace()
            .map(|p| {
                let (id, d) = p.split_once(':').unwrap();
                format!("{id}:{}", d.parse::<u64>().unwrap() + 1)
            })
            .collect::<Vec<_>>()
            .join(" ");
        let bad = tamper("replay-tampered.flight.jsonl", &new_nb);
        let err = run(&["replay", &bad]).unwrap_err();
        assert!(err.contains("neighbor"), "unexpected error: {err}");
        // So does one neighbour id changed with its distance kept.
        let (first, rest) = old_nb.split_once(':').unwrap();
        let renamed = format!("{}:{rest}", first.parse::<u64>().unwrap() + 1_000);
        let bad = tamper("replay-renamed.flight.jsonl", &renamed);
        let err = run(&["replay", &bad]).unwrap_err();
        assert!(
            err.contains("neighbor sets differ"),
            "unexpected error: {err}"
        );
        // A recording without a header cannot be replayed.
        let empty = tmp("replay-headerless.flight.jsonl");
        std::fs::write(
            &empty,
            "{\"format\":\"trajsim-flight-recording\",\"version\":1,\"meta\":{}}\n",
        )
        .unwrap();
        assert!(run(&["replay", &empty]).unwrap_err().contains("meta"));
    }

    /// `line` with the number after `"key":` replaced by `value`.
    fn set_field(line: &str, key: &str, value: u64) -> String {
        let tag = format!("\"{key}\":");
        let at = line.find(&tag).expect("field present") + tag.len();
        let rest = line[at..].trim_start();
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let end = line.len() - rest.len() + digits;
        format!("{}{value}{}", &line[..at], &line[end..])
    }

    #[test]
    fn replay_check_gates_work_and_shape_and_latency_only_on_request() {
        let _g = sink_guard();
        let csv = tmp("replay-gates.csv");
        let rec = tmp("replay-gates.flight.jsonl");
        run(&["generate", "walk", "--n", "40", "--seed", "31", "-o", &csv]).unwrap();
        run(&["knn", &csv, "--queries", "12", "--k", "3", "--record", &rec]).unwrap();
        run(&["replay", &rec, "--check"]).unwrap();
        let text = std::fs::read_to_string(&rec).unwrap();
        let first: serde_json::Value = serde_json::from_str(text.lines().nth(1).unwrap()).unwrap();
        let field = |key: &str| first.get(key).and_then(serde_json::Value::as_u64).unwrap();
        let edit = |name: &str, fields: &[(&str, u64)]| {
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            for &(key, value) in fields {
                lines[1] = set_field(&lines[1], key, value);
            }
            let path = tmp(name);
            std::fs::write(&path, lines.join("\n")).unwrap();
            path
        };
        // One query's work moved: the answers still match, so a plain
        // replay passes, and --check fails on the counters.
        for key in ["edr_computed", "dp_cells"] {
            let moved = edit(
                &format!("replay-gates-{key}.flight.jsonl"),
                &[(key, 987_654_321)],
            );
            run(&["replay", &moved]).unwrap();
            let err = run(&["replay", &moved, "--check"]).unwrap_err();
            assert!(
                err.contains("work counters"),
                "{key}: unexpected error: {err}"
            );
        }
        // A stage's prune credit moved with its flow: the same.
        for stage in Stage::ALL {
            let keys = stage.keys();
            let moved = edit(
                &format!("replay-gates-{}.flight.jsonl", keys.pruned),
                &[
                    (keys.pruned, field(keys.pruned) + 1),
                    (keys.candidates_in, field(keys.candidates_in) + 1),
                ],
            );
            run(&["replay", &moved]).unwrap();
            let err = run(&["replay", &moved, "--check"]).unwrap_err();
            assert!(
                err.contains("work counters"),
                "{}: unexpected error: {err}",
                keys.pruned
            );
        }
        // A credit that is not its stage's in − out is refused on read.
        for key in ["pruned_h", "q_in", "t_out"] {
            let broken = edit(
                &format!("replay-gates-broken-{key}.flight.jsonl"),
                &[(key, 987_654_321)],
            );
            let err = run(&["replay", &broken]).unwrap_err();
            assert!(err.contains(key), "{key}: unexpected error: {err}");
        }
        // One query's candidate flow or pruned total moved, its work
        // counters not: the stats diff's shape rows are exact, so --check
        // fails on them without --max-drift.
        let more = |key: &'static str| (key, field(key) + 1_000);
        let mut moves: Vec<(&str, Vec<(&str, u64)>)> = Stage::ALL
            .iter()
            .map(|stage| {
                let keys = stage.keys();
                let flow = vec![more(keys.candidates_in), more(keys.candidates_out)];
                (stage.name(), flow)
            })
            .collect();
        moves.push(("pruned", vec![("pruned", 987_654_321)]));
        for (name, fields) in moves {
            let moved = edit(&format!("replay-gates-{name}.flight.jsonl"), &fields);
            run(&["replay", &moved]).unwrap();
            let err = run(&["replay", &moved, "--check"]).unwrap_err();
            assert!(
                err.contains("shape rows"),
                "{name}: unexpected error: {err}"
            );
        }
        // Every latency 100 s: reported, gated only with --max-drift.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        for line in &mut lines[1..] {
            *line = set_field(line, "total_ns", 100_000_000_000);
        }
        let slow = tmp("replay-gates-slow.flight.jsonl");
        std::fs::write(&slow, lines.join("\n")).unwrap();
        run(&["replay", &slow, "--check"]).unwrap();
        let err = run(&["replay", &slow, "--check", "--max-drift", "0.5"]).unwrap_err();
        assert!(err.contains("--max-drift"), "unexpected error: {err}");
        run(&["replay", &slow, "--max-drift", "0.5"]).unwrap();
    }

    #[test]
    fn replay_handles_batched_recordings() {
        let _g = sink_guard();
        let csv = tmp("replay-batch.csv");
        run(&["generate", "walk", "--n", "32", "--seed", "29", "-o", &csv]).unwrap();
        let record = |engine: &str| {
            let rec = tmp(&format!("replay-batch-{engine}.flight.jsonl"));
            run(&[
                "knn",
                &csv,
                "--queries",
                "8",
                "--batch",
                "4",
                "--k",
                "3",
                "--engine",
                engine,
                "--record",
                &rec,
            ])
            .unwrap();
            rec
        };
        // Every engine answers a batch query by query, so a replay
        // reproduces every answer, ids included, and the work.
        for engine in ["scan", "combined"] {
            let rec = record(engine);
            let (recorded, replayed) =
                rerun(&rec, &Telemetry::from_args(&Parsed::default()).unwrap()).unwrap();
            assert_eq!(recorded.records.len(), 8, "{engine}");
            assert_eq!(
                neighbor_sets(&recorded),
                neighbor_sets(&replayed),
                "{engine}"
            );
            run(&["replay", &rec, "--check"]).unwrap();
        }
    }

    #[test]
    fn replay_rebuilds_the_indexed_engine_from_the_header() {
        let _g = sink_guard();
        let csv = tmp("replay-index.csv");
        let rec = tmp("replay-index.flight.jsonl");
        run(&[
            "generate", "walk", "--n", "24", "--seed", "47", "--spread", "150", "-o", &csv,
        ])
        .unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "6",
            "--k",
            "3",
            "--index",
            "art",
            "--record",
            &rec,
        ])
        .unwrap();
        let recording = Recording::read(&rec).unwrap();
        assert_eq!(
            recording
                .meta
                .get("index")
                .and_then(serde_json::Value::as_str),
            Some("art"),
            "recording header must carry the index choice"
        );
        // Replay rebuilds the indexed engine and reproduces the answers.
        run(&["replay", &rec]).unwrap();
    }

    #[test]
    fn metrics_out_carries_latency_percentiles() {
        let _g = sink_guard();
        let csv = tmp("pctl.csv");
        let out = tmp("pctl.json");
        run(&["generate", "walk", "--n", "20", "--seed", "31", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "4",
            "--k",
            "2",
            "--metrics-out",
            &out,
        ])
        .unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let h = doc
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("knn.query_ns"))
            .expect("knn.query_ns histogram in the snapshot");
        for q in ["p50", "p95", "p99"] {
            let v = h.get(q).and_then(serde_json::Value::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "missing or zero {q}: {h:?}");
        }
    }

    #[test]
    fn every_dispatch_command_has_usage_text_and_is_recognized() {
        // The drift guard: a dispatch arm without help text (or a USAGE
        // entry without an arm) fails here, not in a user's terminal.
        for cmd in COMMANDS {
            assert!(
                USAGE.contains(&format!("\n  {cmd} ")),
                "command {cmd:?} missing from USAGE"
            );
            // Recognized: running it bare may fail on missing args, but
            // never as an unknown command.
            if let Err(e) = run(&[cmd]) {
                assert!(
                    !e.contains("unknown command"),
                    "dispatch does not recognize {cmd:?}: {e}"
                );
            }
        }
        // And the converse: the unknown-command arm still fires.
        assert!(run(&["definitely-not-a-command"])
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn every_option_has_usage_text() {
        for opt in OPTIONS {
            let flag = if opt.len() == 1 {
                format!("-{opt} ")
            } else {
                format!("--{opt}")
            };
            assert!(USAGE.contains(&flag), "option {flag:?} missing from USAGE");
        }
    }

    #[test]
    fn unknown_options_fail_naming_the_flag() {
        let csv = tmp("unknown-option.csv");
        run(&["generate", "walk", "--n", "10", "--seed", "2", "-o", &csv]).unwrap();
        // A typo and two flags no command reads: each is refused before
        // the command runs, not ignored.
        for (flag, value) in [
            ("--kk", "2"),
            ("--timeline-every", "8"),
            ("--profile-format", "collapsed"),
        ] {
            let err = run(&["knn", &csv, "--query", "0", flag, value]).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown option {flag}\n")),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn serve_metrics_endpoint_serves_live_registry_and_shuts_down() {
        let _g = sink_guard();
        // Drive Telemetry directly so the ephemeral port is reachable
        // (dispatch only prints it).
        let args: Vec<String> = ["x", "--serve-metrics", "127.0.0.1:0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = Parsed::parse(&args).unwrap();
        let telemetry = Telemetry::from_args(&parsed).unwrap();
        let (server, _) = telemetry.serve.as_ref().expect("server started");
        let addr = server.addr().to_string();
        let t = std::time::Duration::from_secs(5);
        let (status, body) = trajsim_obs::http_get(&addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        trajsim_obs::exposition::parse(&body).expect("valid exposition");
        let (status, body) = trajsim_obs::http_get(&addr, "/healthz", t).unwrap();
        assert_eq!(status, 200);
        let doc: serde_json::Value = serde_json::from_str(body.trim()).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
        telemetry.finish().unwrap();
        assert!(
            trajsim_obs::http_get(&addr, "/metrics", std::time::Duration::from_millis(300))
                .is_err(),
            "endpoint still up after finish()"
        );
        // Validation: unbindable address and orphaned --serve-hold.
        assert!(run(&["stats", "--serve-metrics", "999.999.999.999:1"]).is_err());
        assert!(run(&["stats", "--serve-hold", "1"])
            .unwrap_err()
            .contains("requires --serve-metrics"));
    }

    #[test]
    fn knn_runs_with_a_live_endpoint() {
        let _g = sink_guard();
        let csv = tmp("serve.csv");
        run(&["generate", "walk", "--n", "20", "--seed", "41", "-o", &csv]).unwrap();
        run(&[
            "knn",
            &csv,
            "--queries",
            "3",
            "--k",
            "2",
            "--serve-metrics",
            "127.0.0.1:0",
        ])
        .unwrap();
    }

    fn write_slo_spec(name: &str, p99_max_ns: u64) -> String {
        let path = tmp(name);
        std::fs::write(
            &path,
            format!(
                r#"{{"format": "trajsim-slo-spec", "version": 1,
  "objectives": [{{"metric": "total_ns", "p": 0.99, "max_ns": {p99_max_ns}}}],
  "burn": {{"threshold_ns": {p99_max_ns}, "budget": 0.05, "max_rate": 1.0}}}}"#
            ),
        )
        .unwrap();
        path
    }

    #[test]
    fn slo_check_gates_recordings() {
        let _g = sink_guard();
        let csv = tmp("slo.csv");
        let rec = tmp("slo.flight.jsonl");
        run(&["generate", "walk", "--n", "24", "--seed", "37", "-o", &csv]).unwrap();
        run(&["knn", &csv, "--queries", "6", "--k", "2", "--record", &rec]).unwrap();
        // A generous objective (1000 s) passes; an absurd one (1 ns,
        // every query is over threshold) fails with a rendered verdict.
        let pass_spec = write_slo_spec("slo-pass.json", 1_000_000_000_000);
        let fail_spec = write_slo_spec("slo-fail.json", 1);
        run(&["slo", "check", &pass_spec, &rec]).unwrap();
        let err = run(&["slo", "check", &fail_spec, &rec]).unwrap_err();
        assert!(err.contains("violates"), "{err}");
        // A spec asking for sliding burn windows is refused, naming the
        // field, rather than checked as one whole-run window.
        let windowed = tmp("slo-windowed.json");
        std::fs::write(
            &windowed,
            r#"{"format": "trajsim-slo-spec", "version": 1,
  "burn": {"threshold_ns": 1000, "budget": 0.05, "window_intervals": 4, "max_rate": 1.0}}"#,
        )
        .unwrap();
        let err = run(&["slo", "check", &windowed, &rec]).unwrap_err();
        assert!(err.contains("window_intervals"), "{err}");
        // Bad inputs fail cleanly.
        assert!(run(&["slo", "check", &pass_spec]).is_err());
        assert!(run(&["slo", "check", "/nonexistent.json", &rec]).is_err());
        assert!(
            run(&["slo", "check", &csv, &rec]).is_err(),
            "spec must be JSON"
        );
        assert!(run(&["slo", "frobnicate"]).is_err());
    }

    #[test]
    fn watch_prints_interval_rollups_from_a_live_endpoint() {
        let _g = sink_guard();
        let server = trajsim_obs::serve("127.0.0.1:0", trajsim_obs::metrics::global()).unwrap();
        let addr = server.addr().to_string();
        // One rollup with a tiny interval: exercises scrape + diff + print.
        run(&["watch", &addr, "--every", "0.05", "--count", "1"]).unwrap();
        server.shutdown();
        assert!(run(&["watch", &addr, "--every", "0.05", "--count", "1"]).is_err());
        assert!(run(&["watch"]).is_err());
        assert!(run(&["watch", &addr, "--every", "0"]).is_err());
    }

    #[test]
    fn watch_line_reports_qps_p99_and_dominant_stage() {
        // Pure interval arithmetic against hand-built scrapes.
        let mk = |queries: u64, hist_ns: u64, bucket: &[u64]| {
            let r = trajsim_obs::Registry::new();
            r.counter("knn.queries").add(queries);
            r.counter("knn.stage.histogram_ns").add(hist_ns);
            r.counter("knn.stage.refine_ns").add(hist_ns / 4);
            let h = r.histogram_with_bounds("knn.query_ns", vec![1_000, 1_000_000]);
            for (i, &c) in bucket.iter().enumerate() {
                let v = match i {
                    0 => 500,
                    1 => 500_000,
                    _ => 2_000_000,
                };
                for _ in 0..c {
                    h.record(v);
                }
            }
            trajsim_obs::exposition::parse(&trajsim_obs::exposition::render(&r)).unwrap()
        };
        let prev = mk(100, 1_000, &[10, 0, 0]);
        let cur = mk(300, 9_000, &[10, 200, 0]);
        let line = watch_line(&prev, &cur, 2.0);
        // 200 queries over 2 s.
        assert!(line.contains("100.0 q/s"), "{line}");
        assert!(line.contains("dominant histogram"), "{line}");
        assert!(line.contains("[300 queries total]"), "{line}");
        // All interval mass in the (1 µs, 1 ms] bucket → p99 ≤ 1 ms.
        assert!(line.contains("p99"), "{line}");
        let idle = watch_line(&cur, &cur, 2.0);
        assert!(idle.contains("idle"), "{idle}");
    }
}
