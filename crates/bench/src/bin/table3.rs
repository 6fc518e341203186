//! **Table 3** — pruning power and speedup of near-triangle-inequality
//! pruning (§5.2).
//!
//! Data sets: the combined ASL retrieval set (lengths near-normally
//! distributed), plus 1 000 random walks with normally distributed (RandN)
//! and uniformly distributed (RandU) lengths in [30, 256].
//!
//! Paper's numbers: pruning power ASL .09, RandN .07, RandU .26; speedup
//! 1.10 / 1.07 / 1.31. Expected shape: weak pruning everywhere, best on
//! uniformly distributed lengths (the filter only bites when lengths
//! differ).

use trajsim_bench::{
    engine_run_json, probing_queries, render_table, retrieval_eps, run_engine, threads_json,
    write_json, Args,
};
use trajsim_core::Dataset;
use trajsim_data::{asl_retrieval_like, random_walk_set, seeded_rng, LengthDistribution};
use trajsim_prune::{CombinedConfig, CombinedKnn, KnnEngine, SequentialScan};

fn main() {
    let args = Args::parse();
    let n = args.n.unwrap_or(1000);
    let max_triangle = 400;

    let datasets: Vec<(&str, Dataset<2>)> = vec![
        ("ASL", asl_retrieval_like(args.seed).normalize()),
        (
            "RandN",
            random_walk_set(
                &mut seeded_rng(args.seed + 1),
                n,
                LengthDistribution::Normal {
                    mean: 143.0,
                    std_dev: 40.0,
                    min: 30,
                    max: 256,
                },
            )
            .normalize(),
        ),
        (
            "RandU",
            random_walk_set(
                &mut seeded_rng(args.seed + 2),
                n,
                LengthDistribution::Uniform { min: 30, max: 256 },
            )
            .normalize(),
        ),
    ];

    let mut power_row = vec!["Pruning Power".to_string()];
    let mut speed_row = vec!["Speedup Ratio".to_string()];
    let mut cells_row = vec!["DP Cells vs Scan".to_string()];
    let mut json = serde_json::Map::new();
    for (name, data) in &datasets {
        let eps = retrieval_eps(data);
        let queries = probing_queries(data, args.queries);
        eprintln!(
            "[{name}] N = {}, eps = {:.3}: building pmatrix...",
            data.len(),
            eps.value()
        );
        let ntr = CombinedKnn::build(data, eps, CombinedConfig::near_triangle_only(max_triangle));
        let seq = SequentialScan::new(data, eps);
        // Warm-up pass first (it also yields the oracle answers): the
        // timed baseline must not pay first-touch page faults that the
        // engines, running later, would not pay.
        let expected: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| seq.knn(q, args.k).distances())
            .collect();
        let seq_run = run_engine(&seq, &queries, args.k, None);
        let run = run_engine(&ntr, &queries, args.k, Some(&expected));
        let speedup = run.speedup(seq_run.secs_per_query);
        power_row.push(format!("{:.2}", run.pruning_power));
        speed_row.push(format!("{speedup:.2}"));
        cells_row.push(format!(
            "{:.3e} / {:.3e}",
            run.stats.dp_cells as f64, seq_run.stats.dp_cells as f64
        ));
        json.insert(
            name.to_string(),
            serde_json::json!({
                "pruning_power": run.pruning_power,
                "speedup": speedup,
                "n": data.len(),
                "seq_secs_per_query": seq_run.secs_per_query,
                "ntr_secs_per_query": run.secs_per_query,
                "ntr_dp_cells": run.stats.dp_cells,
                "seq_dp_cells": seq_run.stats.dp_cells,
                "seq": engine_run_json(&seq_run),
                "ntr": engine_run_json(&run),
            }),
        );
    }
    json.insert("threads".to_string(), threads_json());
    println!("\nTable 3: Test results of near triangle inequality (k = {}, maxTriangle = {max_triangle})\n", args.k);
    let header: Vec<String> = ["", "ASL", "RandN", "RandU"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    print!(
        "{}",
        render_table(&header, &[power_row, speed_row, cells_row])
    );
    write_json("table3", &serde_json::Value::Object(json));
}
