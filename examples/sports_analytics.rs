//! Sports analytics (§1's motivating application): find hockey players
//! whose movement patterns resemble a coach's query pattern, using the
//! paper's best retrieval configuration — the 1HPN combined engine
//! (1-d histograms → mean-value q-grams → near triangle inequality).
//!
//! Run with: `cargo run --release --example sports_analytics`

use std::time::Instant;
use trajsim::prelude::*;

fn main() {
    // 2 000 rink-bounded player shifts, lengths 30-256 (the NHL workload
    // of §5.4), normalized so similarity is about movement *shape*.
    let n = 2_000;
    println!("generating {n} player trajectories...");
    let database = trajsim::data::nhl_like(7, n).normalize();
    let sigma = trajsim::core::max_std_dev(database.trajectories()).unwrap();
    let eps = MatchThreshold::new(2.0 * sigma).unwrap();

    // The query: one player's shift, as a "find me more like this".
    let query = database.trajectories()[123].clone();

    // Brute force first.
    let scan = SequentialScan::new(&database, eps);
    let t0 = Instant::now();
    let truth = scan.knn(&query, 10);
    let scan_time = t0.elapsed();

    // The combined engine. Building it computes the q-gram means, the
    // per-dimension histograms, and the 400-reference pmatrix — the
    // offline cost the paper also pays once per database.
    println!("building 1HPN engine (histograms + q-grams + pmatrix)...");
    let t0 = Instant::now();
    let config = trajsim::prune::CombinedConfig {
        max_triangle: 100, // keep the example's offline phase short
        ..Default::default()
    };
    let engine = CombinedKnn::build(&database, eps, config);
    println!("  built in {:.1?}", t0.elapsed());

    let t0 = Instant::now();
    let fast = engine.knn(&query, 10);
    let fast_time = t0.elapsed();

    assert_eq!(
        fast.distances(),
        truth.distances(),
        "no false dismissals — the §4 guarantee"
    );

    println!("\n10 most similar player shifts (query = player 123):");
    for n in &fast.neighbors {
        let t = database.trajectories()[n.id].clone();
        println!(
            "  player {:>4}: EDR {:>3}, {} samples",
            n.id,
            n.dist,
            t.len()
        );
    }
    let credit =
        trajsim::prune::Stage::ALL.map(|s| format!("{} {}", fast.stats.pruned_by(s), s.name()));
    println!(
        "\nsequential scan: {scan_time:.1?}; 1HPN: {fast_time:.1?} \
         (pruned {:.0}% of the database: {})",
        fast.stats.pruning_power() * 100.0,
        credit.join(", "),
    );
}
