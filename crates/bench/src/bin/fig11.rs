//! **Figure 11** — speedup ratio of the six application orders of the
//! three pruning methods, on the NHL data set (§5.4).
//!
//! Expected shape per the paper: all six orders deliver the *same pruning
//! power* (the filters are orthogonal), but applying the cheap,
//! high-power histogram filter first — then q-grams, then near-triangle
//! (2HPN) — gives the best speedup.

use trajsim_bench::{probing_queries, render_table, retrieval_eps, run_engine, write_json, Args};
use trajsim_core::TrajectoryArena;
use trajsim_data::nhl_like;
use trajsim_prune::{
    build_pmatrix, CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, PruneOrder, ScanMode,
    SequentialScan,
};

fn main() {
    let args = Args::parse();
    let n = args.n.unwrap_or(if args.full { 5000 } else { 2000 });
    let max_triangle = 400;
    let data = nhl_like(args.seed, n).normalize();
    let eps = retrieval_eps(&data);
    let queries = probing_queries(&data, args.queries);
    eprintln!(
        "[NHL] N = {n}, eps = {:.3}: building pmatrix...",
        eps.value()
    );
    let pmatrix = build_pmatrix(&TrajectoryArena::from_dataset(&data), eps, max_triangle);
    let seq = SequentialScan::new(&data, eps);
    // Warm-up pass first (also the oracle answers): the timed baseline
    // must not pay first-touch page faults the engines would not pay.
    let expected: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| seq.knn(q, args.k).distances())
        .collect();
    let seq_run = run_engine(&seq, &queries, args.k, None);

    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for order in PruneOrder::ALL {
        let config = CombinedConfig {
            order,
            histogram: HistogramVariant::Grid { delta: 1 },
            qgram_q: 1,
            max_triangle,
            scan: ScanMode::Sorted,
        };
        let engine = CombinedKnn::with_pmatrix(&data, eps, config, pmatrix.clone());
        let run = run_engine(&engine, &queries, args.k, Some(&expected));
        let speedup = run.speedup(seq_run.secs_per_query);
        eprintln!(
            "  {}: power {:.3}, speedup {speedup:.2}",
            engine.name(),
            run.pruning_power
        );
        rows.push(vec![
            engine.name(),
            format!("{speedup:.2}"),
            format!("{:.3}", run.pruning_power),
        ]);
        json.insert(
            engine.name(),
            serde_json::json!({
                "speedup": speedup,
                "pruning_power": run.pruning_power,
            }),
        );
    }
    json.insert("n".into(), serde_json::json!(n));
    json.insert(
        "seq_secs_per_query".into(),
        serde_json::json!(seq_run.secs_per_query),
    );
    println!(
        "\nFigure 11: speedup of the six pruning orders on NHL (N = {n}, k = {})\n",
        args.k
    );
    let header: Vec<String> = ["order", "speedup", "pruning power"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    print!("{}", render_table(&header, &rows));
    println!("\n(2HPN = histogram, then Q-grams, then near-triangle — the paper's winner)");
    write_json("fig11", &serde_json::Value::Object(json));
}
