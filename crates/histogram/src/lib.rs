//! # trajsim-histogram
//!
//! Trajectory histograms and the HD lower-bound distance (§4.3): the third
//! of the paper's pruning techniques, an embedding of trajectories into a
//! grid-bin frequency space generalizing the frequency-vector embedding of
//! string edit distance ([18, 2]).
//!
//! A trajectory is embedded by counting its elements per grid cell of side
//! ε ([`TrajectoryHistogram`]). The histogram distance
//! ([`histogram_distance`]) is the minimum number of single-edit-operation
//! steps transforming one histogram into the other, where elements in
//! *approximately matching* (same or adjacent) bins are treated as the
//! same (Definitions 4–5) — because two elements within ε of each other
//! can land in adjacent cells. Theorem 6: `HD(H_R, H_S) <= EDR(R, S)`, so
//! HD prunes k-NN candidates with no false dismissals, at linear cost.
//!
//! ## A soundness fix over the paper's pseudocode
//!
//! The paper's `CompHisDist` (Figure 5) cancels opposite-signed masses in
//! approximately-matching bins *greedily, in scan order*. Cancellation
//! order matters: a positive bin may spend its mass on the "wrong"
//! neighbour and leave two cancellable masses uncancelled, making the
//! reported distance larger than the true minimum — and a lower bound that
//! is occasionally too large yields false dismissals. This crate therefore
//! computes the *maximum* matching between the two histograms exactly:
//!
//! - for `D = 1` (the per-dimension 1HE embedding the k-NN cascade uses
//!   by default) by one left-to-right sweep in which each cell takes the
//!   leftmost unmatched mass of the other side among its three
//!   neighbours — linear in the occupied cells. The sweep is exact
//!   because every neighbourhood is a window of the same width, so the
//!   windows are ordered by both endpoints and an exchange argument turns
//!   any maximum matching into the sweep's (proof on the private
//!   `sweep_matching`);
//! - for `D >= 2` (the 2HE grids, whose neighbourhoods are boxes with no
//!   such order) by Dinic max-flow over the approximate-match adjacency
//!   (each bin has at most 3^D − 1 neighbours). Property tests pin the
//!   1-D sweep to the same max-flow.
//!
//! [`histogram_distance_quick`] caps the matching by neighbourhood
//! capacities; in 1-D it is a two-pointer sliding window. Every
//! neighbourhood is enumerated by [`TrajectoryHistogram::for_each_neighbour`],
//! which skips offsets past the `i64` range, so the extreme cells a tiny
//! bin size produces never wrap into adjacency. The paper's greedy scan is
//! kept as [`histogram_distance_greedy`] for ablation; a property test
//! demonstrates `greedy >= exact` and the benches compare their pruning
//! power.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod distance;
mod embed;
mod flow;
mod frequency;

pub use distance::{histogram_distance, histogram_distance_greedy, histogram_distance_quick};
pub use embed::TrajectoryHistogram;
pub use frequency::{frequency_distance, FrequencyVector};
