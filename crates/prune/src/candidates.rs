//! The candidate-generation seam between the filter cascade and how
//! candidates are *found*: a sequential scan over every signature, or a
//! probe of the [`trajsim_art`] signature indexes.
//!
//! Every engine consumes a [`CandidateBatch`]; the [`CandidateSource`]
//! trait is the switch [`crate::CombinedKnn`] flips when an index has
//! been built ([`crate::CombinedKnn::with_index`]). Soundness contract:
//! a source may only *add* candidates or weaken lower bounds relative
//! to the exact filters — it must never drop a trajectory that could be
//! a true nearest neighbour (the differential tests pin this).

use trajsim_core::Trajectory;

/// One candidate trajectory with whatever the source already knows
/// about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Trajectory id.
    pub id: usize,
    /// A lower bound on `EDR(query, id)` — sound to prune on.
    pub lower_bound: usize,
    /// True iff `lower_bound` *is* `EDR(query, id)`: the source proved
    /// no element pair can ε-match, so the candidate needs no cascade
    /// and no refine — it can be offered to the top-k directly.
    pub exact: bool,
    /// An upper bound on how many of the query's q-grams have an
    /// ε-matching q-gram in this candidate, when the source computed
    /// one (the index probe does; the scan leaves it to the merge
    /// join). Sound as `v` in Theorem 1's count filter.
    pub qgram_count_ub: Option<usize>,
}

/// What a source generated for one query.
#[derive(Debug, Clone)]
pub struct CandidateBatch {
    /// Candidates in the visit order of the engine's scan: ascending by
    /// `(lower_bound, id)` for HSR, database order for HSE.
    pub candidates: Vec<Candidate>,
    /// True iff `candidates` lists *every* database trajectory. When
    /// false, every absent id provably has `EDR = max(query len, its
    /// len)` exactly (the index touched no shared cell), and the engine
    /// accounts for them separately in nondecreasing length order.
    pub exhaustive: bool,
}

impl CandidateBatch {
    /// The candidate ids, ascending (for set comparisons in tests).
    pub fn ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.candidates.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids
    }
}

/// A strategy for turning a query into a [`CandidateBatch`].
pub trait CandidateSource<const D: usize> {
    /// Generates the candidates for `query`.
    fn generate(&self, query: &Trajectory<D>) -> CandidateBatch;

    /// Short label for diagnostics ("scan" or "art").
    fn source_name(&self) -> &'static str;
}
