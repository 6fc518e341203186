//! # trajsim-bench
//!
//! The experiment harness reproducing every table and figure of the
//! paper's evaluation (§3.2 and §5). Each table/figure has a binary in
//! `src/bin/` that prints the same rows/series the paper reports and
//! writes machine-readable JSON next to it; `EXPERIMENTS.md` records
//! paper-vs-measured for each.
//!
//! Shared here: deterministic data-set constructors (scaled-down defaults
//! with `--full` for paper scale), the ε selection rule, wall-clock
//! measurement of k-NN engines, and small table/JSON formatting helpers.
//! The offline pmatrix comes from `trajsim_prune::build_pmatrix`.

#![forbid(unsafe_code)]

pub mod guard;

use std::time::Instant;
use trajsim_core::{max_std_dev, Dataset, MatchThreshold, Trajectory};
use trajsim_prune::{KnnEngine, QueryStats};

/// Minimal command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Database-size override (each binary has its own default).
    pub n: Option<usize>,
    /// Number of probing queries (default 10).
    pub queries: usize,
    /// k for k-NN queries; the paper varies 1–20 and reports 20.
    pub k: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Run at the paper's full data-set sizes.
    pub full: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: None,
            queries: 10,
            k: 20,
            seed: 42,
            full: false,
        }
    }
}

impl Args {
    /// Parses `--n`, `--queries`, `--k`, `--seed`, `--full` from
    /// `std::env::args`. Unknown flags abort with a usage message.
    pub fn parse() -> Args {
        let mut args = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut grab = |name: &str| -> u64 {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
            };
            match flag.as_str() {
                "--n" => args.n = Some(grab("--n") as usize),
                "--queries" => args.queries = grab("--queries") as usize,
                "--k" => args.k = grab("--k") as usize,
                "--seed" => args.seed = grab("--seed"),
                "--full" => args.full = true,
                other => {
                    eprintln!(
                        "unknown flag {other}; supported: --n N --queries N --k N --seed N --full"
                    );
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

/// The paper's ε rule for the *efficacy* experiments: a quarter of the
/// maximum standard deviation of the (normalized) trajectories (§3.2). On
/// normalized data this lands near 0.25.
pub fn pick_eps(dataset: &Dataset<2>) -> MatchThreshold {
    let sigma = max_std_dev(dataset.trajectories()).expect("non-empty data set");
    MatchThreshold::quarter_of_max_std(sigma).expect("finite sigma")
}

/// ε for the *retrieval* experiments (§5). The paper sets it per data set
/// by probing ("we run several probing k-NN queries on each data set with
/// different matching thresholds and choose the one that ranks the
/// results close to human observations"); our probing equivalent lands on
/// twice the maximum standard deviation — with σ/4 on normalized data
/// almost nothing ε-matches, all k-NN distances degenerate towards the
/// trajectory lengths, and no lower bound can separate neighbours from
/// the bulk (an ε sweep is in `results/` and EXPERIMENTS.md).
pub fn retrieval_eps(dataset: &Dataset<2>) -> MatchThreshold {
    retrieval_eps_scaled(dataset, 2.0)
}

/// [`retrieval_eps`] with an explicit σ multiplier — the per-data-set
/// probing knob. The Figure 7–10 sets (ASL/Slip/Kungfu) probe to 1σ:
/// their spatial ranges are tight, and at 2σ almost every element pair
/// ε-matches, collapsing the q-gram counters the experiment studies.
pub fn retrieval_eps_scaled(dataset: &Dataset<2>, factor: f64) -> MatchThreshold {
    let sigma = max_std_dev(dataset.trajectories()).expect("non-empty data set");
    MatchThreshold::new(factor * sigma).expect("finite sigma")
}

/// Measured behaviour of one engine over a query workload.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Engine label.
    pub name: String,
    /// Mean pruning power over the workload.
    pub pruning_power: f64,
    /// Mean wall-clock seconds per query.
    pub secs_per_query: f64,
    /// Accumulated per-filter statistics.
    pub stats: QueryStats,
}

impl EngineRun {
    /// The paper's speedup ratio relative to a sequential-scan time.
    pub fn speedup(&self, seq_secs_per_query: f64) -> f64 {
        if self.secs_per_query > 0.0 {
            seq_secs_per_query / self.secs_per_query
        } else {
            f64::INFINITY
        }
    }
}

/// Runs `engine` on every query, measuring wall clock and pruning power.
/// When `expected` is given, each query's distance multiset must match it
/// — the harness's own no-false-dismissal guard rail.
pub fn run_engine<const D: usize, E: KnnEngine<D>>(
    engine: &E,
    queries: &[Trajectory<D>],
    k: usize,
    expected: Option<&[Vec<usize>]>,
) -> EngineRun {
    let mut stats = QueryStats::default();
    let mut power_sum = 0.0;
    let start = Instant::now();
    for (qi, q) in queries.iter().enumerate() {
        let r = engine.knn(q, k);
        power_sum += r.stats.pruning_power();
        stats.accumulate(&r.stats);
        if let Some(expected) = expected {
            assert_eq!(
                r.distances(),
                expected[qi],
                "{}: false dismissal on query {qi}",
                engine.name()
            );
        }
    }
    let secs = start.elapsed().as_secs_f64() / queries.len().max(1) as f64;
    EngineRun {
        name: engine.name(),
        pruning_power: power_sum / queries.len().max(1) as f64,
        secs_per_query: secs,
        stats,
    }
}

/// JSON for one engine run: headline numbers plus the accumulated
/// [`QueryStats`] with the per-stage breakdown under `"stats"."stages"`
/// (summed over the workload's queries).
pub fn engine_run_json(run: &EngineRun) -> serde_json::Value {
    serde_json::json!({
        "name": run.name.clone(),
        "pruning_power": run.pruning_power,
        "secs_per_query": run.secs_per_query,
        "stats": run.stats.to_json(),
    })
}

/// JSON describing the worker-thread configuration the run resolved to —
/// recorded in every bench result file so timings are attributable.
pub fn threads_json() -> serde_json::Value {
    let (count, source) = trajsim_parallel::num_threads_with_source();
    serde_json::json!({ "count": count, "source": source.as_str() })
}

/// Selects `count` probing queries: evenly spaced members of the data set
/// (deterministic, spread across whatever structure the generator
/// produced).
pub fn probing_queries(dataset: &Dataset<2>, count: usize) -> Vec<Trajectory<2>> {
    let n = dataset.len();
    assert!(n > 0, "empty data set");
    let count = count.min(n);
    (0..count)
        .map(|i| dataset.trajectories()[i * n / count].clone())
        .collect()
}

/// Renders an aligned text table: a header row plus data rows.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[c]));
        }
        line.push('\n');
        line
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header, &widths));
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Writes a JSON value under `results/<name>.json` at the workspace root,
/// creating the directory if needed.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[results written to results/{name}.json]");
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajsim_core::Trajectory2;
    use trajsim_prune::SequentialScan;

    fn db() -> Dataset<2> {
        (0..20)
            .map(|i| {
                let base = i as f64;
                Trajectory2::from_xy(&[(base, 0.0), (base + 1.0, 0.0), (base + 2.0, 0.0)])
            })
            .collect()
    }

    #[test]
    fn eps_rule_is_quarter_of_max_std() {
        let d = db();
        let expected = max_std_dev(d.trajectories()).unwrap() * 0.25;
        assert!((pick_eps(&d).value() - expected).abs() < 1e-12);
    }

    #[test]
    fn run_engine_measures_pruning_power() {
        let d = db();
        let eps = pick_eps(&d);
        let scan = SequentialScan::new(&d, eps);
        let queries = probing_queries(&d, 3);
        let run = run_engine(&scan, &queries, 2, None);
        assert_eq!(run.pruning_power, 0.0);
        assert!(run.secs_per_query >= 0.0);
        assert_eq!(run.stats.database_size, 60); // 3 queries x N=20
    }

    #[test]
    fn probing_queries_are_spread() {
        let d = db();
        let qs = probing_queries(&d, 4);
        assert_eq!(qs.len(), 4);
        assert_eq!(qs[0], d.trajectories()[0]);
        assert_eq!(qs[3], d.trajectories()[15]);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "200".into()],
            ],
        );
        assert!(t.contains("bb"));
        assert_eq!(t.lines().count(), 4);
    }
}
