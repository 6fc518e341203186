//! **Figures 9 & 10** — pruning power (Fig. 9) and speedup ratio
//! (Fig. 10) of histogram pruning on ASL, Slip, and Kungfu (§5.3).
//!
//! Variants: 1HE (per-dimension 1-d histograms, bin ε) and trajectory
//! histograms 2HE/2H2E/2H3E/2H4E (bin ε, 2ε, 3ε, 4ε), each scanned
//! sequentially (HSE) and in sorted lower-bound order (HSR).
//!
//! Expected shape per the paper: 2HE strongest pruning; 1HE beats the
//! enlarged-bin variants; HSR ≥ HSE in both pruning power and speedup;
//! histograms generally beat mean-value q-grams.

use trajsim_bench::{
    engine_run_json, probing_queries, render_table, retrieval_eps_scaled, run_engine, threads_json,
    write_json, Args,
};
use trajsim_core::Dataset;
use trajsim_data::{asl_retrieval_like, kungfu_like, slip_like};
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, ScanMode, SequentialScan,
};

fn main() {
    let mut args = Args::parse();
    if args.queries == 10 && !args.full {
        args.queries = 5;
    }
    let datasets: Vec<(&str, Dataset<2>)> = vec![
        ("ASL", asl_retrieval_like(args.seed).normalize()),
        ("Slip", slip_like(args.seed).normalize()),
        ("Kungfu", kungfu_like(args.seed).normalize()),
    ];
    let variants = [
        ("1HE", HistogramVariant::PerDimension),
        ("2HE", HistogramVariant::Grid { delta: 1 }),
        ("2H2E", HistogramVariant::Grid { delta: 2 }),
        ("2H3E", HistogramVariant::Grid { delta: 3 }),
        ("2H4E", HistogramVariant::Grid { delta: 4 }),
    ];
    let mut json = serde_json::Map::new();
    for (name, data) in &datasets {
        let eps = retrieval_eps_scaled(data, 1.0);
        let queries = probing_queries(data, args.queries);
        eprintln!(
            "[{name}] N = {}, eps = {:.3}: sequential baseline...",
            data.len(),
            eps.value()
        );
        let seq = SequentialScan::new(data, eps);
        // Warm-up pass first (it also yields the oracle answers): the
        // timed baseline must not pay first-touch page faults that the
        // engines, running later, would not pay.
        let expected: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| seq.knn(q, args.k).distances())
            .collect();
        let seq_run = run_engine(&seq, &queries, args.k, None);

        let mut power_rows = Vec::new();
        let mut speed_rows = Vec::new();
        let mut set_json = serde_json::Map::new();
        for (label, variant) in variants {
            let mut power_row = vec![label.to_string()];
            let mut speed_row = vec![label.to_string()];
            let mut v_json = serde_json::Map::new();
            for (mode_label, mode) in [("HSE", ScanMode::Sequential), ("HSR", ScanMode::Sorted)] {
                let config = CombinedConfig::histogram_only(variant, mode);
                let engine = CombinedKnn::build(data, eps, config);
                let run = run_engine(&engine, &queries, args.k, Some(&expected));
                let speedup = run.speedup(seq_run.secs_per_query);
                power_row.push(format!("{:.3}", run.pruning_power));
                speed_row.push(format!("{speedup:.2}"));
                v_json.insert(
                    mode_label.to_string(),
                    serde_json::json!({
                        "pruning_power": run.pruning_power,
                        "speedup": speedup,
                        "run": engine_run_json(&run),
                    }),
                );
                eprintln!(
                    "  {label}-{mode_label}: power {:.3}, speedup {speedup:.2}",
                    run.pruning_power
                );
            }
            power_rows.push(power_row);
            speed_rows.push(speed_row);
            set_json.insert(label.to_string(), serde_json::Value::Object(v_json));
        }
        set_json.insert(
            "seq_secs_per_query".into(),
            serde_json::json!(seq_run.secs_per_query),
        );
        set_json.insert("seq".into(), engine_run_json(&seq_run));
        json.insert(name.to_string(), serde_json::Value::Object(set_json));

        let header: Vec<String> = ["variant", "HSE", "HSR"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        println!(
            "\nFigure 9 ({name}): pruning power of histograms (k = {})\n",
            args.k
        );
        print!("{}", render_table(&header, &power_rows));
        println!("\nFigure 10 ({name}): speedup ratio of histograms\n");
        print!("{}", render_table(&header, &speed_rows));
    }
    json.insert("threads".to_string(), threads_json());
    write_json("fig9_10", &serde_json::Value::Object(json));
}
