//! A reader that goes away (`trajsim knn … | head -1`) must end the
//! command quietly: exit 0, no panic. The binary runs with its stdout on
//! a pipe whose read end is already closed, so its first write fails with
//! `EPIPE` — deterministically, not only when the reader loses a race.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_trajsim");

/// The write end of a pipe with no reader: the read end is handed to a
/// child that exits without reading, and the parent never holds it.
fn readerless_pipe() -> Stdio {
    let mut reader = Command::new(BIN)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the reader");
    let write_end = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reader exits");
    Stdio::from(write_end)
}

fn run_into_closed_pipe(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .stdout(readerless_pipe())
        .stderr(Stdio::piped())
        .output()
        .expect("run trajsim")
}

/// A small walk data set in a fresh directory, removed by the caller.
fn walk_csv(name: &str) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("trajsim-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("walk.csv").to_str().unwrap().to_string();
    let generated = Command::new(BIN)
        .args(["generate", "walk", "--n", "40", "--seed", "3", "-o", &csv])
        .output()
        .unwrap();
    assert!(generated.status.success());
    (dir, csv)
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let (dir, csv) = walk_csv("closed-stdout");
    let csv = csv.as_str();
    for args in [
        &["knn", csv, "--query", "7", "--k", "5"][..],
        &[
            "knn",
            csv,
            "--queries",
            "12",
            "--k",
            "3",
            "--engine",
            "scan",
        ],
        &["range", csv, "--query", "7", "--edits", "400"],
        &["stats", csv],
    ] {
        let out = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
    }
    // Other errors still surface as the usual `error:` exit.
    let out = run_into_closed_pipe(&["knn", csv, "--query", "7", "--k", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));
    // A failed gate is never turned into a pass: its verdict outranks
    // the lost output.
    let rec = dir.join("rec.jsonl");
    let rec = rec.to_str().unwrap();
    let recorded = Command::new(BIN)
        .args(["knn", csv, "--query", "7", "--k", "3", "--record", rec])
        .output()
        .unwrap();
    assert!(recorded.status.success());
    let tampered = dir.join("tampered.jsonl");
    let tampered = tampered.to_str().unwrap();
    let text = std::fs::read_to_string(rec).unwrap();
    std::fs::write(
        tampered,
        text.replacen("\"edr_computed\":", "\"edr_computed\":9", 1),
    )
    .unwrap();
    let spec = dir.join("slo.json");
    let spec = spec.to_str().unwrap();
    std::fs::write(
        spec,
        r#"{"format": "trajsim-slo-spec", "version": 1,
  "objectives": [{"metric": "total_ns", "p": 0.99, "max_ns": 1}]}"#,
    )
    .unwrap();
    for args in [
        &["replay", tampered, "--check"][..],
        &["stats", "diff", rec, tampered, "--check"],
        &["slo", "check", spec, rec],
    ] {
        let out = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `watch` polls until interrupted by default (`--count 0`), so only a
/// failed write can end it once its reader is gone.
#[test]
fn watch_ends_when_its_reader_goes_away() {
    let (dir, csv) = walk_csv("closed-watch");
    // A live endpoint, held open for longer than the test can take.
    let mut server = Command::new(BIN)
        .args(["knn", &csv, "--query", "1", "--k", "3"])
        .args(["--serve-metrics", "127.0.0.1:0", "--serve-hold", "120"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the endpoint");
    // Kept open to the end: the endpoint's own stdout must not close.
    let mut server_out = BufReader::new(server.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    server_out.read_line(&mut first).unwrap();
    let addr = first
        .trim()
        .strip_prefix("telemetry endpoint: http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("no endpoint line: {first:?}"))
        .to_string();
    let mut watch = Command::new(BIN)
        .args(["watch", &addr, "--every", "0.05"])
        .stdout(readerless_pipe())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn watch");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = watch.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            watch.kill().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    server.kill().ok();
    server.wait().ok();
    drop(server_out);
    let out = watch.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let status = status.unwrap_or_else(|| panic!("watch still running after 30 s: {stderr}"));
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(status.success(), "{status:?} {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
