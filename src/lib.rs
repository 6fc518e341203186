//! # trajsim — Robust and Fast Similarity Search for Moving Object Trajectories
//!
//! A full Rust implementation of Chen, Özsu, Oria (SIGMOD 2005): the **EDR**
//! (Edit Distance on Real sequence) trajectory distance, the baseline
//! distance functions it is evaluated against (Euclidean, DTW, ERP, LCSS),
//! and the three no-false-dismissal pruning techniques for fast k-NN
//! retrieval (mean-value Q-grams, the near triangle inequality, and
//! trajectory histograms), individually and combined.
//!
//! This crate is a facade: it re-exports the workspace crates so `use
//! trajsim::prelude::*` gives you everything. See the README for an
//! architecture overview and `DESIGN.md` for the paper-to-module map.
//!
//! ## Quickstart
//!
//! ```
//! use trajsim::prelude::*;
//!
//! // The worked example from the paper (§2): four 1-d trajectories.
//! let q = Trajectory1::from_values(&[1.0, 2.0, 3.0, 4.0]);
//! let s = Trajectory1::from_values(&[1.0, 100.0, 2.0, 3.0, 4.0]);
//! let eps = MatchThreshold::new(1.0).unwrap();
//! // S differs from Q by one noisy insertion -> EDR distance 1.
//! assert_eq!(edr(&q, &s, eps), 1);
//! ```

pub use trajsim_art as art;
pub use trajsim_core as core;
pub use trajsim_data as data;
pub use trajsim_distance as distance;
pub use trajsim_eval as eval;
pub use trajsim_histogram as histogram;
pub use trajsim_index as index;
pub use trajsim_io as io;
pub use trajsim_obs as obs;
pub use trajsim_parallel as parallel;
pub use trajsim_prune as prune;
pub use trajsim_qgram as qgram;
pub use trajsim_related as related;

/// One-stop import of the commonly used API.
pub mod prelude {
    pub use trajsim_core::{
        Dataset, LabeledDataset, MatchThreshold, Point, Point1, Point2, Trajectory, Trajectory1,
        Trajectory2,
    };
    pub use trajsim_distance::{
        dtw, edr, edr_within, erp, euclidean, euclidean_sliding, lcss, TrajectoryMeasure,
    };
    pub use trajsim_histogram::{histogram_distance, TrajectoryHistogram};
    pub use trajsim_prune::{
        CombinedConfig, CombinedKnn, KnnEngine, KnnResult, PruneOrder, QgramKnn, QueryStats,
        SequentialScan, StageTimings,
    };
    pub use trajsim_qgram::{mean_value_qgrams, min_common_qgrams};
}
