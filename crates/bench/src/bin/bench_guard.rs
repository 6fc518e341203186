//! The continuous-benchmark regression guard runner (see
//! `trajsim_bench::guard` and DESIGN.md §9).
//!
//! ```text
//! bench_guard [--suite kernels|filters|refine|throughput|obs|art|all] [--runs N]
//!             [--dir PATH] [--check] [--update] [--inject case:factor]
//!             [--quick]
//! ```
//!
//! - plain run: measure and print, touch nothing on disk;
//! - `--update`: measure and (over)write the `BENCH_<suite>.json`
//!   baseline in `--dir` (default: the workspace root, where the
//!   baselines are committed);
//! - `--check`: measure, compare against the committed baseline with the
//!   noise-aware threshold and the work counters exactly, and exit
//!   non-zero on any regression or moved counter — the CI gate. The
//!   thread count must be the baseline's (`TRAJSIM_THREADS=1` for the
//!   committed ones). `--inject case:factor` multiplies that case's
//!   measured times, which is how CI proves the gate actually fails on a
//!   2x slowdown.

use std::path::PathBuf;
use std::process::exit;
use trajsim_bench::guard::{compare, render_compare, run_suite, GuardConfig, SuiteRun, SUITES};

struct Cli {
    suites: Vec<String>,
    dir: PathBuf,
    check: bool,
    update: bool,
    cfg: GuardConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_guard [--suite kernels|filters|refine|throughput|obs|art|all] [--runs N]\n\
         \x20                  [--dir PATH] [--check] [--update] [--inject case:factor]\n\
         \x20                  [--quick]"
    );
    exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        suites: SUITES.iter().map(|s| s.to_string()).collect(),
        dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        check: false,
        update: false,
        cfg: GuardConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs an argument");
                usage()
            })
        };
        match flag.as_str() {
            "--suite" => {
                let v = grab("--suite");
                cli.suites = if v == "all" {
                    SUITES.iter().map(|s| s.to_string()).collect()
                } else {
                    vec![v]
                };
            }
            "--runs" => {
                cli.cfg.runs = grab("--runs").parse().unwrap_or_else(|_| usage());
            }
            "--dir" => cli.dir = PathBuf::from(grab("--dir")),
            "--check" => cli.check = true,
            "--update" => cli.update = true,
            "--quick" => cli.cfg.quick = true,
            "--inject" => {
                let v = grab("--inject");
                let (name, factor) = v.split_once(':').unwrap_or_else(|| {
                    eprintln!("--inject wants case:factor, got {v:?}");
                    usage()
                });
                let factor: f64 = factor.parse().unwrap_or_else(|_| {
                    eprintln!("--inject factor {factor:?} is not a number");
                    usage()
                });
                cli.cfg.inject.push((name.to_string(), factor));
            }
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if cli.check && cli.update {
        eprintln!("--check and --update are mutually exclusive");
        usage()
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let mut failed = false;
    for suite in &cli.suites {
        let run = match run_suite(suite, &cli.cfg) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("bench_guard: {e}");
                exit(2);
            }
        };
        println!(
            "suite {} ({} runs/case, anchor {}, {}-{}, {} threads):",
            run.suite,
            run.runs_per_case,
            run.anchor,
            run.fingerprint.os,
            run.fingerprint.arch,
            run.fingerprint.threads
        );
        for c in &run.cases {
            println!(
                "  {:<18} median {:>10.3}ms  mad {:>8.3}ms  score {:>7.3}",
                c.name,
                c.median_s * 1e3,
                c.mad_s * 1e3,
                c.score
            );
        }
        let path = cli.dir.join(format!("BENCH_{suite}.json"));
        if cli.update {
            let text = serde_json::to_string_pretty(&run.to_json()).expect("serialize");
            std::fs::write(&path, text + "\n")
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("  baseline written to {}", path.display());
        }
        if cli.check {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!(
                    "bench_guard: no baseline at {} ({e}); run with --update first",
                    path.display()
                );
                exit(2);
            });
            let doc = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("bench_guard: {}: {e}", path.display());
                exit(2);
            });
            let base = SuiteRun::from_json(&doc).unwrap_or_else(|e| {
                eprintln!("bench_guard: {}: {e}", path.display());
                exit(2);
            });
            match compare(&base, &run) {
                Ok(cmps) => {
                    print!("{}", render_compare(&cmps));
                    if cmps.iter().any(|c| c.failed()) {
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("bench_guard: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("bench_guard: REGRESSION detected");
        exit(1);
    }
}
