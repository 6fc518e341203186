//! # trajsim-qgram
//!
//! Mean-value Q-grams (§4.1): the first of the paper's three
//! no-false-dismissal pruning techniques for EDR retrieval.
//!
//! A *Q-gram* of a trajectory is a window of `q` consecutive elements
//! (Definition 3 extends string q-grams: two q-grams match iff every
//! element pair ε-matches). The pruning pipeline rests on three theorems:
//!
//! - **Theorem 1** (Jokinen & Ukkonen): sequences within edit distance `k`
//!   share at least `max(m, n) − q + 1 − k·q` common q-grams — see
//!   [`min_common_qgrams`] / [`passes_count_filter`].
//! - **Theorem 2**: if two q-grams match, their *mean value pairs* match —
//!   so it suffices to store one `D`-dimensional mean per q-gram
//!   ([`mean_value_qgrams`]) instead of `q·D` coordinates.
//! - **Theorem 4**: projecting to a single dimension preserves the bound —
//!   so 1-d means ([`mean_value_qgrams_1d`]) can be indexed in a B+-tree.
//!
//! Matching mean counts are computed either through an index
//! (`trajsim-prune`'s PR/PB engines) or with a sort-merge ε-join over
//! sorted means ([`SortedMeans`] / [`SortedMeans1d`], the PS2/PS1 engines).
//!
//! The per-trajectory counter these produce — *how many of the query's
//! q-grams have at least one ε-matching q-gram in the data trajectory* —
//! upper-bounds the number of common q-grams in Theorem 1's sense, so
//! filtering on it never causes a false dismissal (each truly common
//! q-gram certainly has a match); it merely prunes a little less than an
//! exact multiset intersection would.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod extract;
mod filter;
mod join;

pub use extract::{
    mean_value_qgrams, mean_value_qgrams_1d, qgram_window_iter, qgram_windows, qgrams_match,
};
pub use filter::{min_common_qgrams, passes_count_filter};
pub use join::{SortedMeans, SortedMeans1d};
