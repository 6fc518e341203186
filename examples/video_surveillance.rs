//! Store-surveillance retrieval (§1's motivating application): customer
//! tracks extracted from video come with detection glitches — outlier
//! positions from failed detections and local time shifting from frame
//! drops. This example shows (a) EDR ranking surviving the corruption
//! that fools the noise-sensitive baselines, and (b) a range query
//! ("every track within 12 edits of this one") answered by the k-NN
//! filter cascade under a fixed radius.
//!
//! Run with: `cargo run --release --example video_surveillance`

use trajsim::data::{corrupt, seeded_rng, smooth_template, CorruptionConfig};
use trajsim::distance::{Measure, TrajectoryMeasure};
use trajsim::prelude::*;

fn main() {
    let mut rng = seeded_rng(99);
    const SHOP: (f64, f64, f64, f64) = (0.0, 40.0, 0.0, 25.0);

    // Three "real" customer paths through the shop...
    let to_checkout = smooth_template(&mut rng, 5, 120, SHOP);
    let browse_aisles = smooth_template(&mut rng, 9, 150, SHOP);
    let window_shopper = smooth_template(&mut rng, 4, 90, SHOP);

    // ...observed repeatedly through a glitchy tracker.
    let cfg = CorruptionConfig::default();
    let mut tracks: Vec<Trajectory2> = Vec::new();
    let mut labels: Vec<&str> = Vec::new();
    for _ in 0..6 {
        tracks.push(corrupt(&mut rng, &to_checkout, &cfg));
        labels.push("to-checkout");
        tracks.push(corrupt(&mut rng, &browse_aisles, &cfg));
        labels.push("browse-aisles");
        tracks.push(corrupt(&mut rng, &window_shopper, &cfg));
        labels.push("window-shopper");
    }
    let database: Dataset<2> = tracks.into_iter().collect::<Dataset<2>>().normalize();

    // Query: a fresh, also-glitchy observation of the checkout path.
    let query = corrupt(&mut rng, &to_checkout, &cfg).normalize();
    let sigma = trajsim::core::max_std_dev(database.trajectories()).unwrap();
    let eps = MatchThreshold::quarter_of_max_std(sigma).unwrap();

    // Rank the whole database under each measure; count how many of the
    // top-6 results are actually checkout paths.
    println!("top-6 precision for a noisy 'to-checkout' query:");
    for measure in Measure::lineup(eps) {
        let mut scored: Vec<(f64, usize)> = database
            .iter()
            .map(|(id, t)| (measure.distance(&query, t), id))
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let hits = scored
            .iter()
            .take(6)
            .filter(|&&(_, id)| labels[id] == "to-checkout")
            .count();
        println!(
            "  {:>4}: {hits}/6 correct (best match: track {} = {})",
            TrajectoryMeasure::<2>::name(&measure),
            scored[0].1,
            labels[scored[0].1]
        );
    }

    // Range query: all tracks within a fixed edit budget of the query.
    let budget = query.len() / 4;
    let engine = CombinedKnn::build(&database, eps, CombinedConfig::default());
    let hits = engine.range(&query, budget).neighbors;
    println!("\ntracks within {budget} edit operations of the query:");
    for h in &hits {
        println!("  track {:>2} ({}) at EDR {}", h.id, labels[h.id], h.dist);
    }
    assert!(
        hits.iter().all(|h| labels[h.id] == "to-checkout"),
        "a quarter-length edit budget should only admit checkout tracks"
    );
}
