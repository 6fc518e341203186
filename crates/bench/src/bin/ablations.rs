//! **Design-choice ablations** (not in the paper): quantifies the three
//! implementation decisions DESIGN.md §6 documents.
//!
//! 1. *Early-abandoning EDR* — the optional `edr_within` cut-off inside
//!    the sequential scan (the paper always computes the full DP).
//! 2. *Exact vs. greedy histogram distance* — the soundness fix costs
//!    some pruning power relative to the (unsound) greedy `CompHisDist`?
//!    In fact the greedy bound is *larger*, so it would prune more — and
//!    wrongly; this ablation counts how often greedy overshoots the true
//!    HD and how often that overshoot would have caused a false
//!    dismissal at k = 20.
//! 3. *Reference-pool size* — near-triangle pruning power as maxTriangle
//!    sweeps 25..400 (the paper fixes 400).

use std::time::Instant;
use trajsim_bench::{probing_queries, render_table, retrieval_eps, run_engine, write_json, Args};
use trajsim_core::TrajectoryArena;
use trajsim_data::nhl_like;
use trajsim_histogram::{histogram_distance, histogram_distance_greedy, TrajectoryHistogram};
use trajsim_prune::{build_pmatrix, CombinedConfig, CombinedKnn, KnnEngine, SequentialScan};

fn main() {
    let args = Args::parse();
    let n = args.n.unwrap_or(1000);
    let data = nhl_like(args.seed, n).normalize();
    let eps = retrieval_eps(&data);
    let queries = probing_queries(&data, args.queries);
    let mut json = serde_json::Map::new();

    // --- 1. early-abandon EDR --------------------------------------
    let plain = SequentialScan::new(&data, eps);
    let fast = SequentialScan::new(&data, eps).with_early_abandon();
    // Warm-up + oracle.
    let expected: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| plain.knn(q, args.k).distances())
        .collect();
    let plain_run = run_engine(&plain, &queries, args.k, Some(&expected));
    let fast_run = run_engine(&fast, &queries, args.k, Some(&expected));
    let ea_speedup = plain_run.secs_per_query / fast_run.secs_per_query;
    println!(
        "1. early-abandon EDR: full scan {:.1} ms/query, early-abandon {:.1} ms/query ({:.2}x)",
        plain_run.secs_per_query * 1e3,
        fast_run.secs_per_query * 1e3,
        ea_speedup
    );
    json.insert(
        "early_abandon_speedup".into(),
        serde_json::json!(ea_speedup),
    );

    // --- 2. exact vs greedy HD --------------------------------------
    // For each query, compare the two bounds against every candidate and
    // count greedy overshoots + would-be false dismissals at the true
    // k-NN threshold.
    let hists: Vec<TrajectoryHistogram<2>> = data
        .iter()
        .map(|(_, t)| TrajectoryHistogram::build(t, eps))
        .collect();
    let mut overshoots = 0usize;
    let mut would_dismiss = 0usize;
    let mut pairs = 0usize;
    let t0 = Instant::now();
    let mut exact_time = 0.0f64;
    let mut greedy_time = 0.0f64;
    for (qi, q) in queries.iter().enumerate() {
        let qh = TrajectoryHistogram::build(q, eps);
        let kth = *expected[qi].last().expect("k results");
        for (id, _) in data.iter() {
            pairs += 1;
            let t1 = Instant::now();
            let exact = histogram_distance(&qh, &hists[id]);
            exact_time += t1.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let greedy = histogram_distance_greedy(&qh, &hists[id]);
            greedy_time += t1.elapsed().as_secs_f64();
            if greedy > exact {
                overshoots += 1;
                // Greedy would prune candidates with bound > kth distance;
                // if the exact (sound) bound admits it, greedy's extra
                // pruning is a potential false dismissal.
                if greedy > kth && exact <= kth {
                    would_dismiss += 1;
                }
            }
        }
    }
    let _ = t0;
    println!(
        "2. greedy CompHisDist overshoots the exact HD on {overshoots}/{pairs} pairs \
         ({:.1}%); {would_dismiss} of those cross the k-NN threshold (false dismissals); \
         exact HD costs {:.1}x greedy per pair",
        overshoots as f64 / pairs as f64 * 100.0,
        exact_time / greedy_time.max(1e-12),
    );
    json.insert(
        "greedy_hd".into(),
        serde_json::json!({
            "pairs": pairs,
            "overshoots": overshoots,
            "false_dismissal_pairs": would_dismiss,
            "exact_over_greedy_cost": exact_time / greedy_time.max(1e-12),
        }),
    );

    // --- 3. maxTriangle sweep ---------------------------------------
    let full_pmatrix = build_pmatrix(&TrajectoryArena::from_dataset(&data), eps, 400);
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for max_t in [25usize, 50, 100, 200, 400] {
        let pm: Vec<Vec<usize>> = full_pmatrix.iter().take(max_t).cloned().collect();
        let ntr =
            CombinedKnn::with_pmatrix(&data, eps, CombinedConfig::near_triangle_only(max_t), pm);
        let run = run_engine(&ntr, &queries, args.k, Some(&expected));
        rows.push(vec![
            max_t.to_string(),
            format!("{:.3}", run.pruning_power),
            format!("{:.2}", run.speedup(plain_run.secs_per_query)),
        ]);
        sweep.push(serde_json::json!({
            "max_triangle": max_t,
            "pruning_power": run.pruning_power,
            "speedup": run.speedup(plain_run.secs_per_query),
        }));
    }
    println!("\n3. near-triangle reference-pool sweep (NHL, N = {n}):\n");
    let header: Vec<String> = ["maxTriangle", "power", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    print!("{}", render_table(&header, &rows));
    json.insert("max_triangle_sweep".into(), serde_json::Value::Array(sweep));
    write_json("ablations", &serde_json::Value::Object(json));
}
