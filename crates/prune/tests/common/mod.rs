//! Helpers shared by the differential test binaries.

use trajsim_core::Trajectory2;
use trajsim_prune::{KnnEngine, QueryStats};

/// An engine's batched answers must be exactly its per-query answers:
/// same ids, same distances, same funnel counters.
pub fn assert_batch_equals_per_query<E: KnnEngine<2> + Sync>(
    engine: &E,
    queries: &[Trajectory2],
    k: usize,
    label: &str,
) {
    let batched = engine.knn_batch(queries, k);
    assert_eq!(batched.len(), queries.len(), "{label}: result count");
    for (qi, (query, b)) in queries.iter().zip(&batched).enumerate() {
        let solo = engine.knn(query, k);
        let label = format!("{label}: query {qi} (k = {k})");
        assert_eq!(b.neighbors, solo.neighbors, "{label}: neighbours");
        let funnel = |s: &QueryStats| {
            (
                s.database_size,
                s.edr_computed,
                s.dp_cells,
                s.pruned_by_histogram,
                s.pruned_by_qgram,
                s.pruned_by_triangle,
            )
        };
        assert_eq!(funnel(&b.stats), funnel(&solo.stats), "{label}: funnel");
        let flow = |s: &QueryStats| {
            [s.timings.histogram, s.timings.qgram, s.timings.triangle]
                .map(|st| (st.candidates_in, st.candidates_out))
        };
        assert_eq!(flow(&b.stats), flow(&solo.stats), "{label}: stage flow");
    }
}
