//! # trajsim-prune
//!
//! k-NN retrieval engines for EDR (§4 of Chen, Özsu, Oria, SIGMOD 2005).
//! EDR is robust but non-metric (the matching threshold breaks the
//! triangle inequality), so traditional distance-based indexing does not
//! apply; instead the paper develops three *no-false-dismissal* filters
//! that cheaply lower-bound EDR and skip the O(m·n) dynamic program for
//! most candidates:
//!
//! | Engine | Paper | Technique |
//! |---|---|---|
//! | [`SequentialScan`] | baseline | true EDR for every trajectory |
//! | [`QgramKnn`] | §4.1, Figs. 7–8 | mean-value q-gram counting (variants PR, PB, PS2, PS1) |
//! | [`CombinedKnn`] | §4.2–4.4, Table 3, Figs. 9–13 | the filter cascade, configured by [`CombinedConfig`]: a list of [`Stage`]s, any subset of the histogram, q-gram and near-triangle filters in any order, over an HSE or HSR scan |
//! | [`cse::CseKnn`] | §4.2 discussion | triangle pruning with a constant-shift-embedded constant |
//!
//! The paper's six orders of all three filters are [`FILTER_ORDERS`]
//! (Fig. 11), and the cascade's single-filter configurations are its
//! other engines: [`CombinedConfig::near_triangle_only`] is near-triangle
//! pruning (`EDR(Q,S) >= EDR(Q,R) − EDR(S,R) − |S|`, Table 3, label
//! `NTR(maxT=M)`), and [`CombinedConfig::histogram_only`] is histogram
//! pruning (1HE/2HE/2HδE × HSE/HSR, Figs. 9–10). The reference matrix
//! the triangle filter reads comes from [`build_pmatrix`], built only for
//! configurations whose stages name that filter; its entries are exact
//! only where the triangle test can use them. With no stage at all the
//! cascade refines every candidate, which is what `trajsim range` runs
//! at ε = 0.
//!
//! Every engine implements [`KnnEngine`], returns the same distance
//! multiset as [`SequentialScan`] (the property tests verify this — the
//! paper's central "no false dismissals" claim), and reports
//! [`QueryStats`] with the number of true-distance computations saved,
//! from which the experiments derive *pruning power*. Each query also
//! carries a [`StageTimings`] breakdown — wall time and candidate flow
//! per filter stage plus EDR refinement time — and every engine feeds the
//! global `trajsim-obs` metrics registry (`knn.*` counters/histograms)
//! and emits a `knn.query` trace event.
//!
//! Extensions beyond the paper's pseudocode are flagged in the item docs:
//! the per-candidate (rather than global) Theorem-1 cut-off in
//! [`QgramKnn`] for variable-length databases, the exact (rather than
//! greedy) histogram distance, optional early-abandoning EDR,
//! [`CombinedKnn::range`] (Theorem 1's range form, answered by the same
//! cascade under a fixed radius), and [`cse`] for the constant-shift
//! embedding discussion.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod candidates;
mod combined;
pub mod cse;
mod qgram_knn;
mod result;
mod seqscan;

pub use batch::{BATCH_RUNS, BATCH_SHARED_SIGNATURE_EVALS, BATCH_SIZE};
pub use candidates::{Candidate, CandidateBatch, CandidateSource};
pub use combined::{
    build_pmatrix, CombinedConfig, CombinedKnn, HistogramVariant, ScanMode, FILTER_ORDERS,
};
pub use qgram_knn::{QgramKnn, QgramVariant};
pub use result::{
    KnnEngine, KnnResult, Neighbor, QueryStats, Stage, StageKeys, StageStats, StageTimings,
    FLIGHT_EVENT, PARTS,
};
pub use seqscan::SequentialScan;
