//! End-to-end check that the refine path is allocation-free after
//! warm-up: a batched k-NN workload over equal-length trajectories must
//! publish many `refine.scratch_reuses`, a bounded number of
//! `refine.scratch_allocs` (a handful of growth events per worker
//! thread), and a positive workspace peak gauge.
//!
//! This lives in its own integration-test binary on purpose: the scratch
//! counters are process-global, so the deltas below are only meaningful
//! when no other test is driving EDR kernels in the same process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajsim_core::{Dataset, MatchThreshold, Trajectory2};
use trajsim_distance::{SCRATCH_ALLOCS, SCRATCH_REUSES, WORKSPACE_PEAK_BYTES};
use trajsim_prune::{KnnEngine, SequentialScan};

#[test]
fn batched_knn_reuses_scratch_instead_of_allocating() {
    const THREADS: usize = 4;
    trajsim_parallel::set_num_threads(THREADS);

    // Equal-length trajectories: after the very first call per worker the
    // workspace already fits every later pair, so any further growth
    // event is a reuse bug.
    let len = 48;
    let mut rng = StdRng::seed_from_u64(7);
    let db: Dataset<2> = (0..64)
        .map(|_| {
            Trajectory2::from_xy(
                &(0..len)
                    .map(|_| (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let queries: Vec<Trajectory2> = db.trajectories()[..8].to_vec();

    let m = trajsim_obs::metrics::global();
    let reuses0 = m.counter(SCRATCH_REUSES).get();
    let allocs0 = m.counter(SCRATCH_ALLOCS).get();

    let engine = SequentialScan::new(&db, MatchThreshold::new(0.5).unwrap());
    let results = engine.knn_batch(&queries, 3);
    assert_eq!(results.len(), queries.len());

    let reuses = m.counter(SCRATCH_REUSES).get() - reuses0;
    let allocs = m.counter(SCRATCH_ALLOCS).get() - allocs0;
    let calls = (queries.len() * db.len()) as u64;

    assert!(
        reuses > 0,
        "expected warm workspace reuse across {calls} EDR calls"
    );
    // Each worker's thread-local workspace grows at most a few times
    // (rows, bits, within-rows) on its first calls, then never again.
    // Only the batch pool's THREADS workers refine, one query at a
    // time, each on its own thread-local workspace.
    let worker_budget = THREADS as u64 * 4;
    assert!(
        allocs <= worker_budget,
        "allocs ({allocs}) must be bounded by the worker count, not the \
         call count ({calls}); budget {worker_budget}"
    );
    assert!(
        reuses + allocs >= calls,
        "every EDR call goes through the workspace: {reuses} + {allocs} < {calls}"
    );
    assert!(
        m.gauge(WORKSPACE_PEAK_BYTES).get() > 0,
        "peak workspace gauge must be published"
    );

    trajsim_parallel::set_num_threads(0);
}
