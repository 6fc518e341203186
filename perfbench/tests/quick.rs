//! Runs the benchmark binary in quick mode (tiny inputs) and checks its
//! output contract against `BENCHMARK.json`.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

/// Runs the binary one at a time, so that concurrent tests do not skew
/// the timings a traced run reconciles.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const WORKLOADS: [&str; 4] = ["nhl", "walk", "walk-batch", "walk-art"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    ok: bool,
    stdout: String,
    result: Option<Value>,
}

/// Runs the binary in its own directory (it writes `.perfbench/` there).
fn perfbench(dir: &str, args: &[&str]) -> Run {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).unwrap();
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let result = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok());
    Run {
        ok: out.status.success(),
        stdout,
        result,
    }
}

fn quick(dir: &str, workload: &str, seed: u64, trace: u8) -> Run {
    let seed = seed.to_string();
    let trace = trace.to_string();
    perfbench(
        dir,
        &[
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            "0.3",
            "--trace",
            &trace,
            "--quick",
        ],
    )
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name}"))
}

#[test]
fn every_workload_emits_every_metric_with_its_unit_and_no_failures() {
    for workload in WORKLOADS {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let run = quick(&format!("emit-{workload}-{trace}"), workload, 1, trace);
            assert!(run.ok, "{workload} --trace {trace}:\n{}", run.stdout);
            let result = run.result.expect("a JSON result as the last line");
            let keys: Vec<&String> = result.as_object().unwrap().iter().map(|(k, _)| k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            assert!(run.stdout.contains("error_rate 0;"), "{}", run.stdout);
            let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let v = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .expect("numeric value");
                    assert!(v.is_finite(), "{workload}: {name} = {v}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(list), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let result = quick(&format!("nonzero-{workload}"), workload, 3, 0)
            .result
            .unwrap();
        for (name, _) in declared("end_to_end") {
            assert!(metric(&result, &name) > 0.0, "{workload}: {name}");
        }
    }
}

#[test]
fn heap_counts_repeat_exactly_for_a_fixed_seed() {
    for workload in ["nhl", "walk-art"] {
        let a = quick(&format!("heap-{workload}-a"), workload, 7, 0)
            .result
            .unwrap();
        let b = quick(&format!("heap-{workload}-b"), workload, 7, 0)
            .result
            .unwrap();
        for name in ["peak_heap_mb", "engine_heap_mb"] {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
        }
        let c = quick(&format!("heap-{workload}-c"), workload, 8, 0)
            .result
            .unwrap();
        assert_ne!(
            metric(&a, "peak_heap_mb"),
            metric(&c, "peak_heap_mb"),
            "{workload}: seeds differ"
        );
    }
    for workload in ["walk-art", "nhl"] {
        let a = quick(&format!("heap-layers-{workload}-a"), workload, 7, 1)
            .result
            .unwrap();
        let b = quick(&format!("heap-layers-{workload}-b"), workload, 7, 1)
            .result
            .unwrap();
        for name in [
            "core.arena_mb",
            "histogram.mb",
            "qgram.mb",
            "prune.pmatrix_mb",
            "prune.pmatrix_edrs",
            "art.mb",
            "io.file_mb",
        ] {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
        }
    }
}

#[test]
fn the_pmatrix_is_measured_from_the_library_build() {
    // Quick nhl: 300 trajectories, 100 reference rows of 300 EDRs each,
    // stored as one machine word per entry.
    let result = quick("pmatrix", "nhl", 4, 1).result.unwrap();
    assert_eq!(metric(&result, "prune.pmatrix_edrs"), 30_000.0);
    let words = 30_000.0 * std::mem::size_of::<usize>() as f64 / (1024.0 * 1024.0);
    let mb = metric(&result, "prune.pmatrix_mb");
    assert!(
        mb >= words && mb < 1.2 * words,
        "{mb} MiB for {words} MiB of entries"
    );
    assert!(metric(&result, "prune.pmatrix_s") > 0.0);
    let walk = quick("pmatrix-walk", "walk", 4, 1).result.unwrap();
    for name in ["prune.pmatrix_s", "prune.pmatrix_mb", "prune.pmatrix_edrs"] {
        assert_eq!(metric(&walk, name), 0.0, "walk: {name}");
    }
}

#[test]
fn a_second_seed_also_passes_the_answer_check() {
    for workload in WORKLOADS {
        let run = quick(&format!("seed2-{workload}"), workload, 2, 0);
        assert!(run.ok, "{}", run.stdout);
        assert_eq!(
            run.result.unwrap().get("failed").and_then(Value::as_u64),
            Some(0)
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "walk", "--seed", "1", "--seconds", "1"][..],
    ] {
        let run = perfbench("bad-args", args);
        assert!(!run.ok);
        assert!(run.result.is_none(), "{}", run.stdout);
    }
}
