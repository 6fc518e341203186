//! # trajsim-distance
//!
//! The trajectory distance functions of Chen, Özsu, Oria (SIGMOD 2005):
//! the paper's contribution **EDR** (Edit Distance on Real sequence,
//! Definition 2) and every baseline it is compared against in Figure 2 —
//! Euclidean distance, Dynamic Time Warping (DTW), Edit distance with Real
//! Penalty (ERP), and the Longest Common Subsequences score (LCSS) — plus
//! the classic string edit distance EDR generalizes.
//!
//! All O(m·n) dynamic programs use two-row rolling buffers, so memory is
//! O(min(m, n)) rather than O(m·n), and the inner loops stream over the
//! flat point buffers of [`trajsim_core::Trajectory`].
//!
//! ## The worked example from the paper (§2)
//!
//! ```
//! use trajsim_core::{Trajectory1, MatchThreshold};
//! use trajsim_distance::edr;
//!
//! let q = Trajectory1::from_values(&[1.0, 2.0, 3.0, 4.0]);
//! let r = Trajectory1::from_values(&[10.0, 9.0, 8.0, 7.0]);
//! let s = Trajectory1::from_values(&[1.0, 100.0, 2.0, 3.0, 4.0]);
//! let p = Trajectory1::from_values(&[1.0, 100.0, 101.0, 2.0, 4.0]);
//! let eps = MatchThreshold::new(1.0).unwrap();
//!
//! // EDR ranks the trajectories S, P, R — the correct, noise-robust order.
//! let (ds, dp, dr) = (edr(&q, &s, eps), edr(&q, &p, eps), edr(&q, &r, eps));
//! assert!(ds < dp && dp < dr);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod dtw;
mod edit;
mod edr;
mod erp;
mod euclid;
pub mod kernel;
mod lcss;
mod measure;
mod metric;
mod subsequence;
mod workspace;

pub use batch::BatchContext;
pub use dtw::{dtw, dtw_banded, dtw_with};
pub use edit::edit_distance;
pub use edr::{
    edr, edr_counted, edr_counted_with, edr_projected, edr_recursive_reference, edr_scaled,
    edr_within, edr_within_counted, edr_within_counted_with,
};
pub use erp::{erp, erp_with, erp_with_gap};
pub use euclid::{euclidean, euclidean_sliding};
pub use kernel::{edr_bitparallel, edr_naive, edr_within_naive};
pub use lcss::{lcss, lcss_distance};
pub use measure::{Measure, TrajectoryMeasure};
pub use metric::ElementMetric;
pub use subsequence::{edr_find_matches, edr_subsequence_ends, SubMatch};
pub use workspace::{
    with_workspace, EdrWorkspace, QueryContext, SCRATCH_ALLOCS, SCRATCH_REUSES,
    WORKSPACE_PEAK_BYTES,
};
