//! Reusable scratch memory for the EDR kernels and query-side
//! precomputation.
//!
//! Before this module existed every `edr`/`edr_within` call heap-allocated
//! 2–5 fresh `Vec`s, so a k-NN workload performed millions of short-lived
//! allocations in its refine stage. [`EdrWorkspace`] owns all the kernel
//! scratch — the rolling DP rows and the Myers `vp`/`vn`/`eq` bit-vectors —
//! with a grow-only policy: buffers are resized up to the largest pair ever
//! seen and never shrink, so a warmed workspace services every further call
//! without touching the allocator.
//!
//! [`QueryContext`] precomputes the query side once per query: coordinates
//! are transposed into dimension-major SoA columns so the ε-match compares
//! in the kernels' inner loops read contiguous strides.
//!
//! Allocation behavior is observable: every scratch acquisition records
//! either `refine.scratch_reuses` (no buffer grew) or
//! `refine.scratch_allocs` (at least one buffer grew) on the global metrics
//! registry, and the high-water mark of the scratch footprint is kept in
//! the `refine.workspace_peak_bytes` gauge. The same counts are mirrored in
//! per-workspace fields ([`EdrWorkspace::scratch_reuses`] /
//! [`EdrWorkspace::scratch_allocs`]) so tests can assert on one workspace
//! without reading — and racing on — process-global state.

use crate::kernel::RankMasks;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use trajsim_core::{CoordSeq, MatchThreshold, Trajectory};
use trajsim_obs::metrics::{Counter, Gauge};

/// Counter: scratch acquisitions that reused warm buffers (no growth).
pub const SCRATCH_REUSES: &str = "refine.scratch_reuses";
/// Counter: scratch acquisitions that grew at least one buffer.
pub const SCRATCH_ALLOCS: &str = "refine.scratch_allocs";
/// Gauge: high-water mark of a single workspace's scratch footprint.
pub const WORKSPACE_PEAK_BYTES: &str = "refine.workspace_peak_bytes";

/// Grow-only scratch buffers for the EDR kernel hierarchy.
///
/// One workspace serves every kernel: the naive DP borrows the two
/// rolling rows, the full and the sliding-band bit-parallel kernels
/// borrow the `vp`/`vn`/`eq` blocks. Create one per worker (or use
/// [`with_workspace`] for the thread-local shared one) and reuse it
/// across calls; after the first call at the workload's maximum pair
/// size, no further calls allocate.
#[derive(Debug)]
pub struct EdrWorkspace {
    prev: Vec<usize>,
    curr: Vec<usize>,
    vp: Vec<u64>,
    vn: Vec<u64>,
    eq: Vec<u64>,
    local_allocs: u64,
    local_reuses: u64,
    allocs: Arc<Counter>,
    reuses: Arc<Counter>,
    peak_bytes: Arc<Gauge>,
}

impl Default for EdrWorkspace {
    fn default() -> Self {
        EdrWorkspace::new()
    }
}

impl EdrWorkspace {
    /// An empty workspace. The global metric handles are resolved here,
    /// once, so the per-call hot path is a single relaxed atomic add.
    pub fn new() -> Self {
        let m = trajsim_obs::metrics::global();
        EdrWorkspace {
            prev: Vec::new(),
            curr: Vec::new(),
            vp: Vec::new(),
            vn: Vec::new(),
            eq: Vec::new(),
            local_allocs: 0,
            local_reuses: 0,
            allocs: m.counter(SCRATCH_ALLOCS),
            reuses: m.counter(SCRATCH_REUSES),
            peak_bytes: m.gauge(WORKSPACE_PEAK_BYTES),
        }
    }

    /// A workspace pre-grown for sequences up to `max_len` points, so the
    /// very first kernel call already reuses warm buffers. Counted as one
    /// scratch allocation.
    pub fn with_capacity(max_len: usize) -> Self {
        let mut ws = EdrWorkspace::new();
        ws.prev.reserve(max_len + 1);
        ws.curr.reserve(max_len + 1);
        let blocks = max_len.div_ceil(64);
        ws.vp.reserve(blocks);
        ws.vn.reserve(blocks);
        ws.eq.reserve(blocks);
        ws.record(true);
        ws
    }

    /// Scratch acquisitions that grew a buffer over this workspace's
    /// lifetime. After warm-up this stops increasing — that is the
    /// allocation-free property the engines rely on.
    pub fn scratch_allocs(&self) -> u64 {
        self.local_allocs
    }

    /// Scratch acquisitions fully served by warm buffers.
    pub fn scratch_reuses(&self) -> u64 {
        self.local_reuses
    }

    /// Current scratch footprint in bytes (capacities, not lengths —
    /// grow-only buffers never give memory back).
    pub fn capacity_bytes(&self) -> usize {
        (self.prev.capacity() + self.curr.capacity()) * std::mem::size_of::<usize>()
            + (self.vp.capacity() + self.vn.capacity() + self.eq.capacity())
                * std::mem::size_of::<u64>()
    }

    /// The two rolling DP rows, each `len` long and filled with `fill`.
    /// Returned as `&mut Vec`s so the kernels can `mem::swap` them.
    pub(crate) fn rows(&mut self, len: usize, fill: usize) -> (&mut Vec<usize>, &mut Vec<usize>) {
        let grew = self.prev.capacity() < len || self.curr.capacity() < len;
        self.prev.clear();
        self.prev.resize(len, fill);
        self.curr.clear();
        self.curr.resize(len, fill);
        self.record(grew);
        (&mut self.prev, &mut self.curr)
    }

    /// The Myers bit-vectors for `blocks` 64-lane words: `vp` all ones,
    /// `vn` and `eq` all zeros.
    pub(crate) fn bits(&mut self, blocks: usize) -> (&mut [u64], &mut [u64], &mut [u64]) {
        let grew = self.vp.capacity() < blocks
            || self.vn.capacity() < blocks
            || self.eq.capacity() < blocks;
        self.vp.clear();
        self.vp.resize(blocks, u64::MAX);
        self.vn.clear();
        self.vn.resize(blocks, 0);
        self.eq.clear();
        self.eq.resize(blocks, 0);
        self.record(grew);
        (&mut self.vp, &mut self.vn, &mut self.eq)
    }

    fn record(&mut self, grew: bool) {
        if grew {
            self.local_allocs += 1;
            self.allocs.inc();
            self.peak_bytes.set_max(self.capacity_bytes() as i64);
        } else {
            self.local_reuses += 1;
            self.reuses.inc();
        }
    }
}

thread_local! {
    /// The per-thread fallback workspace behind the legacy `edr` /
    /// `edr_within` signatures.
    static SHARED: RefCell<EdrWorkspace> = RefCell::new(EdrWorkspace::new());
}

/// Runs `f` with this thread's shared [`EdrWorkspace`].
///
/// This is what keeps the non-workspace-aware API (`crate::edr`,
/// `crate::edr_within`, the distance-measure adapters) allocation-free
/// after warm-up: each OS thread owns one lazily created workspace that
/// every such call borrows. Re-entrant calls (an `f` that itself calls
/// `with_workspace`) fall back to a fresh workspace rather than panicking.
pub fn with_workspace<R>(f: impl FnOnce(&mut EdrWorkspace) -> R) -> R {
    SHARED.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut EdrWorkspace::new()),
    })
}

/// The query side of an EDR computation, prepared once per query.
///
/// Coordinates are transposed into dimension-major SoA columns
/// (`[x0..xn][y0..yn]`), so when the kernels rebuild the ε-match
/// bit-vector against a candidate the per-dimension compares walk
/// contiguous memory. A `QueryContext` implements
/// [`CoordSeq`](trajsim_core::CoordSeq) (via `&QueryContext`) and carries
/// the matching threshold, so engines pass it straight to the
/// `*_with`-style entry points in [`crate::edr`].
///
/// The first bounded call that runs a DP
/// ([`QueryContext::edr_within_counted`]) also builds per-dimension rank
/// masks of the query, from which the sliding-band kernel builds each
/// candidate point's ε-match word with two table lookups per dimension;
/// contexts that only ever call [`QueryContext::edr`] never build them.
#[derive(Debug, Clone)]
pub struct QueryContext<const D: usize> {
    coords: Vec<f64>,
    len: usize,
    eps: MatchThreshold,
    /// Boxed so the context itself holds no interior mutability: a
    /// `&QueryContext` then stays a read-only, non-aliased pointer to the
    /// compiler, which keeps the column base and length in registers
    /// across the kernels' stores (inline, the full DP measured about
    /// 1.5× slower in the `refine_ws_*` bench_guard cases).
    ranks: Box<OnceLock<Option<RankMasks<D>>>>,
}

impl<const D: usize> QueryContext<D> {
    /// Builds the context from any coordinate sequence.
    pub fn new<Q: CoordSeq<D>>(query: Q, eps: MatchThreshold) -> Self {
        let len = query.len();
        let mut coords = Vec::with_capacity(D * len);
        for d in 0..D {
            coords.extend((0..len).map(|i| query.coord(i, d)));
        }
        QueryContext {
            coords,
            len,
            eps,
            ranks: Box::default(),
        }
    }

    /// Builds the context from an owned trajectory.
    pub fn from_trajectory(query: &Trajectory<D>, eps: MatchThreshold) -> Self {
        QueryContext::new(query.points(), eps)
    }

    /// Number of points in the query.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the query is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The matching threshold the context was built with.
    pub fn eps(&self) -> MatchThreshold {
        self.eps
    }

    /// The contiguous coordinate column for dimension `d`.
    pub fn dim(&self, d: usize) -> &[f64] {
        &self.coords[d * self.len..(d + 1) * self.len]
    }

    /// `EDR(query, candidate)` with DP-cell accounting, on borrowed
    /// scratch: the bit-parallel full DP, every match word built by
    /// compares. Of the k-NN engines only the plain `SequentialScan` runs
    /// on it, so the baseline every engine's speed-up is measured against
    /// stays put; the pruning engines' exact refines take
    /// [`QueryContext::edr_within_counted`] under `usize::MAX`, the faster
    /// route to the same value.
    pub fn edr_counted<S: CoordSeq<D>>(&self, candidate: S, ws: &mut EdrWorkspace) -> (usize, u64) {
        crate::edr_counted_with(self, candidate, self.eps, ws)
    }

    /// `EDR(query, candidate)` on borrowed scratch.
    pub fn edr<S: CoordSeq<D>>(&self, candidate: S, ws: &mut EdrWorkspace) -> usize {
        self.edr_counted(candidate, ws).0
    }

    /// Early-abandoning EDR with DP-cell accounting, on borrowed scratch:
    /// [`crate::edr_within_counted_with`], with the query's rank masks
    /// building the sliding-band kernel's match words whatever the
    /// lengths (compares build them, the shorter side the pattern, only
    /// for a non-finite query or one longer than 1 024 points). Every
    /// refine of the pruning engines and range queries, the
    /// early-abandoning scans and the offline matrices all run here: the
    /// near-triangle pmatrix under `L − |S|`; the exact CSE and
    /// evaluation matrices, and the engines' exact refines (before the
    /// top-k fills, reference-pool ids), under `usize::MAX`, which never
    /// abandons and gives [`QueryContext::edr`]'s value.
    pub fn edr_within_counted<S: CoordSeq<D>>(
        &self,
        candidate: S,
        bound: usize,
        ws: &mut EdrWorkspace,
    ) -> (Option<usize>, u64) {
        crate::edr::within_counted(self, candidate, self.eps, bound, ws, || self.ranks())
    }

    /// Early-abandoning EDR on borrowed scratch.
    pub fn edr_within<S: CoordSeq<D>>(
        &self,
        candidate: S,
        bound: usize,
        ws: &mut EdrWorkspace,
    ) -> Option<usize> {
        self.edr_within_counted(candidate, bound, ws).0
    }

    /// The query's rank masks, built on first use; `None` for a query
    /// that has none.
    fn ranks(&self) -> Option<&RankMasks<D>> {
        self.ranks.get_or_init(|| RankMasks::build(self)).as_ref()
    }
}

impl<const D: usize> CoordSeq<D> for &QueryContext<D> {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn coord(&self, i: usize, d: usize) -> f64 {
        self.coords[d * self.len + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajsim_core::Trajectory2;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    #[test]
    fn context_transposes_into_soa_columns() {
        let t = Trajectory2::from_xy(&[(0.0, 10.0), (1.0, 11.0), (2.0, 12.0)]);
        let ctx = QueryContext::from_trajectory(&t, eps(0.5));
        assert_eq!(ctx.len(), 3);
        assert_eq!(ctx.dim(0), &[0.0, 1.0, 2.0]);
        assert_eq!(ctx.dim(1), &[10.0, 11.0, 12.0]);
        for (i, p) in t.iter().enumerate() {
            for d in 0..2 {
                assert_eq!(CoordSeq::<2>::coord(&&ctx, i, d), p[d]);
            }
        }
    }

    #[test]
    fn workspace_grows_then_reuses() {
        let mut ws = EdrWorkspace::new();
        assert_eq!(ws.scratch_allocs(), 0);
        ws.rows(65, 0);
        assert_eq!(ws.scratch_allocs(), 1);
        ws.rows(65, 7);
        ws.rows(10, 0); // smaller: served from the warm buffer
        assert_eq!(ws.scratch_allocs(), 1);
        assert_eq!(ws.scratch_reuses(), 2);
        ws.rows(200, 0); // larger: grows again
        assert_eq!(ws.scratch_allocs(), 2);
        ws.bits(4); // first bit acquisition grows the bit buffers
        ws.bits(2);
        assert_eq!(ws.scratch_allocs(), 3);
        assert_eq!(ws.scratch_reuses(), 3);
        assert!(ws.capacity_bytes() >= 2 * 200 * std::mem::size_of::<usize>());
    }

    #[test]
    fn with_capacity_prewarms_every_buffer() {
        let mut ws = EdrWorkspace::with_capacity(128);
        assert_eq!(ws.scratch_allocs(), 1);
        ws.rows(129, 0);
        ws.bits(2);
        assert_eq!(ws.scratch_allocs(), 1, "pre-grown buffers must not grow");
        assert_eq!(ws.scratch_reuses(), 2);
    }

    #[test]
    fn rows_and_bits_are_initialized_every_time() {
        let mut ws = EdrWorkspace::new();
        {
            let (prev, curr) = ws.rows(4, 9);
            prev.iter_mut().for_each(|v| *v = 1);
            curr.iter_mut().for_each(|v| *v = 2);
        }
        let (prev, curr) = ws.rows(4, 9);
        assert!(prev.iter().all(|&v| v == 9));
        assert!(curr.iter().all(|&v| v == 9));
        {
            let (vp, vn, eq) = ws.bits(2);
            vp[0] = 0;
            vn[0] = 1;
            eq[0] = 1;
        }
        let (vp, vn, eq) = ws.bits(2);
        assert!(vp.iter().all(|&v| v == u64::MAX));
        assert!(vn.iter().all(|&v| v == 0));
        assert!(eq.iter().all(|&v| v == 0));
    }

    #[test]
    fn with_workspace_reuses_and_tolerates_reentrancy() {
        let first = with_workspace(|ws| {
            ws.rows(32, 0);
            ws.scratch_allocs()
        });
        let (again, nested) = with_workspace(|ws| {
            ws.rows(32, 0);
            let nested = with_workspace(|inner| {
                inner.rows(8, 0);
                inner.scratch_allocs()
            });
            (ws.scratch_allocs(), nested)
        });
        assert_eq!(again, first, "shared workspace must not regrow");
        assert_eq!(nested, 1, "re-entrant call falls back to a fresh workspace");
    }
}
