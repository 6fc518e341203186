//! **CSE ablation** — the Constant Shift Embedding analysis of §4.2.
//!
//! The paper considered converting EDR into a metric by adding a constant
//! `c` to every pairwise distance and pruning with the ordinary triangle
//! inequality, and rejected it: the constant needed is so large that the
//! lower bound `EDR(Q,R) − EDR(R,S) − c` "is too small to prune
//! anything", and a database-derived `c` is not sound for out-of-database
//! queries. This binary reproduces both observations on the ASL, Kungfu,
//! and Slip sets (the ones the paper names), comparing CSE against
//! near-triangle pruning:
//!
//! - the tightest sound constant (max triangle violation) vs. the mean
//!   trajectory length (the near-triangle slack |S|),
//! - pruning power of CSE vs. NTR for in-database queries,
//! - the false dismissals CSE produces on out-of-database (corrupted)
//!   queries, which NTR never produces.

use trajsim_bench::{probing_queries, render_table, retrieval_eps, write_json, Args};
use trajsim_core::Dataset;
use trajsim_data::{
    asl_retrieval_like, corrupt, kungfu_like, seeded_rng, slip_like, CorruptionConfig,
};
use trajsim_prune::cse::{cse_constant, pairwise_edr_matrix, CseKnn};
use trajsim_prune::{CombinedConfig, CombinedKnn, KnnEngine, SequentialScan};

fn main() {
    let args = Args::parse();
    let max_refs = 400;
    // Scaled-down defaults: the constant needs the FULL pairwise matrix
    // (O(N²) EDRs + O(N³) triple scan).
    let n_cap = args.n.unwrap_or(if args.full { usize::MAX } else { 300 });
    let datasets: Vec<(&str, Dataset<2>)> = vec![
        ("ASL", cap(asl_retrieval_like(args.seed).normalize(), n_cap)),
        ("Kungfu", cap(kungfu_like(args.seed).normalize(), n_cap)),
        ("Slip", cap(slip_like(args.seed).normalize(), n_cap)),
    ];
    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for (name, data) in &datasets {
        let eps = retrieval_eps(data);
        eprintln!("[{name}] N = {}: full pairwise matrix...", data.len());
        let full = pairwise_edr_matrix(data, eps);
        let c = cse_constant(&full);
        let mean_len: f64 =
            data.iter().map(|(_, t)| t.len() as f64).sum::<f64>() / data.len() as f64;

        let cse = CseKnn::from_matrix(data, eps, max_refs, full.clone());
        let ntr = CombinedKnn::with_pmatrix(
            data,
            eps,
            CombinedConfig::near_triangle_only(max_refs),
            full.into_iter().take(max_refs.min(data.len())).collect(),
        );
        let seq = SequentialScan::new(data, eps);

        // In-database probing queries: CSE is sound here; measure power.
        let queries = probing_queries(data, args.queries);
        let mut cse_power = 0.0;
        let mut ntr_power = 0.0;
        for q in &queries {
            cse_power += cse.knn(q, args.k).stats.pruning_power();
            ntr_power += ntr.knn(q, args.k).stats.pruning_power();
        }
        cse_power /= queries.len() as f64;
        ntr_power /= queries.len() as f64;

        // Out-of-database queries (corrupted members): count CSE's false
        // dismissals, the paper's soundness objection.
        let mut dismissals = 0usize;
        let mut rng = seeded_rng(args.seed + 99);
        for q in &queries {
            let noisy = corrupt(&mut rng, q, &CorruptionConfig::default());
            let truth = seq.knn(&noisy, args.k).distances();
            if cse.knn(&noisy, args.k).distances() != truth {
                dismissals += 1;
            }
            assert_eq!(
                ntr.knn(&noisy, args.k).distances(),
                truth,
                "NTR must stay exact on out-of-database queries"
            );
        }

        eprintln!(
            "  c = {c}, mean |S| = {mean_len:.0}, CSE power {cse_power:.3}, NTR power {ntr_power:.3}, CSE false dismissals {dismissals}/{}",
            queries.len()
        );
        rows.push(vec![
            name.to_string(),
            data.len().to_string(),
            c.to_string(),
            format!("{mean_len:.0}"),
            format!("{cse_power:.3}"),
            format!("{ntr_power:.3}"),
            format!("{dismissals}/{}", queries.len()),
        ]);
        json.insert(
            name.to_string(),
            serde_json::json!({
                "n": data.len(),
                "cse_constant": c,
                "mean_len": mean_len,
                "cse_pruning_power": cse_power,
                "ntr_pruning_power": ntr_power,
                "cse_false_dismissal_queries": dismissals,
                "queries": queries.len(),
            }),
        );
    }
    println!("\nCSE ablation (§4.2): constant shift embedding vs. near triangle inequality\n");
    let header: Vec<String> = [
        "data",
        "N",
        "CSE c",
        "mean |S|",
        "CSE power",
        "NTR power",
        "CSE false dism.",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    print!("{}", render_table(&header, &rows));
    println!(
        "\n(c near the mean trajectory length makes the CSE bound vacuous — the paper's point.)"
    );
    write_json("cse_ablation", &serde_json::Value::Object(json));
}

fn cap(data: Dataset<2>, n: usize) -> Dataset<2> {
    if data.len() <= n {
        return data;
    }
    Dataset::new(data.into_trajectories().into_iter().take(n).collect())
}
