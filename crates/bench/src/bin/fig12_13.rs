//! **Figures 12 & 13** — pruning power (Fig. 12) and speedup ratio
//! (Fig. 13) of the combined methods against the single-filter engines,
//! on the NHL, Mixed, and Randomwalk data sets (§5.4).
//!
//! Engines: near-triangle alone (NTR), merge-join q-grams alone (PS2),
//! histogram alone (1HE-HSR / 2HE-HSR), and the combinations 1HPN / 2HPN
//! (histogram → q-grams → near-triangle, with 1-d and 2-d histograms).
//!
//! Expected shape per the paper: the combinations dominate; 1HPN is best
//! overall — "the speedup ratio is nearly twice of using histogram
//! pruning only, five times that of mean value Q-grams only, and twenty
//! times that of near triangle inequality"; 2HPN's advantage shrinks on
//! large sets because its many-bin histogram distances cost more.

use trajsim_bench::{
    probing_queries, render_table, retrieval_eps, run_engine, write_json, Args, EngineRun,
};
use trajsim_core::{Dataset, TrajectoryArena};
use trajsim_data::{mixed_like, nhl_like, random_walk_db};
use trajsim_prune::{
    build_pmatrix, CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, PruneOrder, QgramKnn,
    QgramVariant, ScanMode, SequentialScan,
};

fn main() {
    let args = Args::parse();
    let max_triangle = 400;
    let (nhl_n, mixed_n, walk_n) = if args.full {
        (5000, 32768, 100_000)
    } else {
        (
            args.n.unwrap_or(2000),
            args.n.unwrap_or(2000).min(1000),
            args.n.unwrap_or(2000),
        )
    };
    let datasets: Vec<(&str, Dataset<2>)> = vec![
        ("NHL", nhl_like(args.seed, nhl_n).normalize()),
        ("Mixed", mixed_like(args.seed + 1, mixed_n).normalize()),
        (
            "Randomwalk",
            random_walk_db(args.seed + 2, walk_n).normalize(),
        ),
    ];
    let mut json = serde_json::Map::new();
    for (name, data) in &datasets {
        let eps = retrieval_eps(data);
        let queries = probing_queries(data, args.queries);
        eprintln!(
            "[{name}] N = {}, eps = {:.3}: building pmatrix...",
            data.len(),
            eps.value()
        );
        let pmatrix = build_pmatrix(&TrajectoryArena::from_dataset(data), eps, max_triangle);
        eprintln!("[{name}] sequential baseline...");
        let seq = SequentialScan::new(data, eps);
        // Warm-up pass first (it also yields the oracle answers): the
        // timed baseline must not pay first-touch page faults that the
        // engines, running later, would not pay.
        let expected: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| seq.knn(q, args.k).distances())
            .collect();
        let seq_run = run_engine(&seq, &queries, args.k, None);

        let mut runs: Vec<EngineRun> = Vec::new();
        {
            let config = CombinedConfig::near_triangle_only(max_triangle);
            let ntr = CombinedKnn::with_pmatrix(data, eps, config, pmatrix.clone());
            runs.push(run_engine(&ntr, &queries, args.k, Some(&expected)));
        }
        {
            let ps2 = QgramKnn::build(data, eps, 1, QgramVariant::MergeJoin2d);
            runs.push(run_engine(&ps2, &queries, args.k, Some(&expected)));
        }
        for variant in [
            HistogramVariant::PerDimension,
            HistogramVariant::Grid { delta: 1 },
        ] {
            let config = CombinedConfig::histogram_only(variant, ScanMode::Sorted);
            let hist = CombinedKnn::build(data, eps, config);
            runs.push(run_engine(&hist, &queries, args.k, Some(&expected)));
        }
        for histogram in [
            HistogramVariant::PerDimension,
            HistogramVariant::Grid { delta: 1 },
        ] {
            let config = CombinedConfig {
                order: PruneOrder::HQN,
                histogram,
                qgram_q: 1,
                max_triangle,
                scan: ScanMode::Sorted,
            };
            let combined = CombinedKnn::with_pmatrix(data, eps, config, pmatrix.clone());
            runs.push(run_engine(&combined, &queries, args.k, Some(&expected)));
        }

        let mut rows = Vec::new();
        let mut set_json = serde_json::Map::new();
        for run in &runs {
            let speedup = run.speedup(seq_run.secs_per_query);
            eprintln!(
                "  {}: power {:.3}, speedup {speedup:.2}",
                run.name, run.pruning_power
            );
            rows.push(vec![
                run.name.clone(),
                format!("{:.3}", run.pruning_power),
                format!("{speedup:.2}"),
            ]);
            set_json.insert(
                run.name.clone(),
                serde_json::json!({
                    "pruning_power": run.pruning_power,
                    "speedup": speedup,
                }),
            );
        }
        set_json.insert("n".into(), serde_json::json!(data.len()));
        set_json.insert(
            "seq_secs_per_query".into(),
            serde_json::json!(seq_run.secs_per_query),
        );
        json.insert(name.to_string(), serde_json::Value::Object(set_json));

        println!(
            "\nFigures 12 & 13 ({name}, N = {}): pruning power and speedup of combined methods (k = {})\n",
            data.len(),
            args.k
        );
        let header: Vec<String> = ["method", "pruning power", "speedup"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        print!("{}", render_table(&header, &rows));
    }
    write_json("fig12_13", &serde_json::Value::Object(json));
}
