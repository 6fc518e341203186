//! `trajsim` — the command-line interface.
//!
//! Subcommands:
//!
//! - `generate <kind> [--n N] [--seed S] -o FILE` — write a synthetic
//!   data set (`nhl`, `mixed`, `walk`, `asl`, `kungfu`, `slip`) as CSV or
//!   binary (by extension: `.csv` / `.bin`);
//! - `convert <in> <out>` — convert between the CSV and binary formats;
//! - `stats <file>` — data set summary (sizes, lengths, spatial extent);
//! - `knn <file> --query I [--k K] [--eps E] [--engine ...]` — k-NN
//!   search with the chosen engine (`scan`, `qgram`, `histogram`,
//!   `combined`), reporting neighbours and pruning statistics;
//! - `range <file> --query I --edits K [--eps E]` — range search;
//! - `cluster <file> [--k K] [--eps E]` — complete-linkage clustering
//!   under EDR, printing the assignment and dendrogram.
//!
//! All numeric options have defaults; ε defaults to the paper's rule
//! (a quarter of the maximum per-dimension standard deviation after
//! per-trajectory normalization).

mod args;
mod commands;
mod out;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv).and_then(|()| out::flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e == out::CLOSED => ExitCode::SUCCESS,
        Err(e) => {
            out::eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
