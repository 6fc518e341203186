//! Signature indexes over the trie: quantized mean-value q-grams and
//! histogram bin signatures, probed over the ε-neighbourhood of each
//! query cell.
//!
//! # Quantization soundness
//!
//! Both indexes key on ε-grid cells `floor(x / bin)` with `bin ≥ ε`. If
//! two values are within ε, their cells differ by at most 1, so
//! enumerating the `3^D` neighbouring cells of a query cell
//! over-approximates the set of ε-matching data cells: the probe may
//! only *add* candidates relative to the exact merge join, never drop a
//! true one. The per-candidate quantities the probes return are
//! therefore sound inputs to the existing filters:
//!
//! - The q-gram probe counts, per trajectory, how many of the query's
//!   q-gram means land in a neighbouring cell of one of that
//!   trajectory's means. Every truly ε-matching mean is in a neighbouring
//!   cell, so the count upper-bounds [`SortedMeans::match_count`] and is
//!   a sound `v` for Theorem 1's count filter.
//! - The histogram probe accumulates, per trajectory, a one-sided
//!   neighbourhood capacity `cap = Σ_cells min(query mass, neighbouring
//!   data mass)`, an upper bound on the histogram matching capacity, so
//!   `max(lq, ls) − min(cap, lq, ls)` lower-bounds the histogram
//!   distance and hence `EDR`. A trajectory the probe never touches
//!   shares *no* dilated cell with the query — no element pair can
//!   ε-match — so its EDR equals `max(lq, ls)` **exactly** (every
//!   element of the longer side is an edit), which the caller can use
//!   without refining.

use std::sync::Mutex;

use trajsim_core::MatchThreshold;
use trajsim_histogram::TrajectoryHistogram;
use trajsim_qgram::SortedMeans;

use crate::tree::{ProbeStats, SignatureTree};

/// Quantizes one coordinate onto the grid of side `bin`.
fn cell_of(x: f64, bin: f64) -> i64 {
    (x / bin).floor() as i64
}

/// Appends the sign-biased big-endian encoding of one cell index:
/// byte-wise lexicographic order equals numeric order, so nearby cells
/// share long key prefixes and the trie's path compression bites.
fn push_cell(buf: &mut Vec<u8>, cell: i64) {
    buf.extend_from_slice(&((cell as u64) ^ (1 << 63)).to_be_bytes());
}

fn encode_cells<const D: usize>(buf: &mut Vec<u8>, cells: &[i64; D]) {
    buf.clear();
    for &c in cells {
        push_cell(buf, c);
    }
}

/// Reusable per-probe scratch: epoch-stamped per-trajectory arrays, so
/// resetting between probes costs O(ids touched), not O(dataset).
///
/// One scratch serves any number of indexes; it grows to the largest id
/// space it has seen. Wrap it in a [`Mutex`] (as [`ArtScratch::shared`]
/// does) to share it from engines that must be `Sync`.
#[derive(Debug, Default)]
pub struct ArtScratch {
    /// Query-scope stamp + accumulator (q-gram hit count or capacity).
    seen: Vec<u64>,
    acc: Vec<u64>,
    /// Inner-scope stamp + accumulator (one query gram / query cell).
    inner_seen: Vec<u64>,
    inner_acc: Vec<u64>,
    /// Fold-scope stamp + per-dimension aggregation (per-dim probes).
    fold_seen: Vec<u64>,
    fold_dims: Vec<u32>,
    fold_min: Vec<u64>,
    epoch: u64,
    touched: Vec<u32>,
    inner_touched: Vec<u32>,
    fold_touched: Vec<u32>,
    key: Vec<u8>,
}

impl ArtScratch {
    /// A fresh scratch; it grows on first use.
    pub fn new() -> ArtScratch {
        ArtScratch::default()
    }

    /// A fresh scratch behind a mutex, for `Sync` engines.
    pub fn shared() -> Mutex<ArtScratch> {
        Mutex::new(ArtScratch::new())
    }

    fn ensure(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.acc.resize(n, 0);
            self.inner_seen.resize(n, 0);
            self.inner_acc.resize(n, 0);
            self.fold_seen.resize(n, 0);
            self.fold_dims.resize(n, 0);
            self.fold_min.resize(n, 0);
        }
    }

    /// A fresh epoch value (stamps initialized to 0 can never collide:
    /// the counter starts at 1).
    fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }
}

/// Metrics-registry counter: trie nodes visited by index probes.
pub const NODES_VISITED: &str = "art.nodes_visited";
/// Metrics-registry counter: postings-list entries scanned by probes.
pub const POSTINGS_SCANNED: &str = "art.postings_scanned";
/// Metrics-registry counter: candidates emitted by index probes.
pub const CANDIDATES: &str = "art.candidates";

/// Flushes probe work counters into the global metrics registry.
fn flush_counters(stats: &ProbeStats, candidates: u64) {
    let m = trajsim_obs::metrics::global();
    m.counter(NODES_VISITED).add(stats.nodes_visited);
    m.counter(POSTINGS_SCANNED).add(stats.postings_scanned);
    m.counter(CANDIDATES).add(candidates);
}

/// Trie index over quantized mean-value q-grams: one key per q-gram
/// mean, quantized per dimension to the ε-grid.
#[derive(Debug)]
pub struct QgramArtIndex<const D: usize> {
    tree: SignatureTree,
    eps: f64,
    q: usize,
    num_ids: usize,
}

impl<const D: usize> QgramArtIndex<D> {
    /// Builds the index from every trajectory's sorted means (one
    /// insert per q-gram; ids ascend with the slice order).
    pub fn build(means: &[SortedMeans<D>], eps: MatchThreshold) -> QgramArtIndex<D> {
        let e = eps.value();
        let mut tree = SignatureTree::new(8 * D);
        let mut buf = Vec::with_capacity(8 * D);
        let mut q = 0usize;
        for (id, sm) in means.iter().enumerate() {
            q = sm.q();
            let mut cells = [0i64; D];
            for p in sm.means() {
                for (d, cell) in cells.iter_mut().enumerate() {
                    *cell = cell_of(p[d], e);
                }
                encode_cells(&mut buf, &cells);
                tree.insert(&buf, id as u32);
            }
        }
        QgramArtIndex {
            tree,
            eps: e,
            q,
            num_ids: means.len(),
        }
    }

    /// The underlying trie (diagnostics, tests).
    pub fn tree(&self) -> &SignatureTree {
        &self.tree
    }

    /// The q-gram size the index was built with.
    pub fn q(&self) -> usize {
        self.q
    }

    /// For each trajectory with at least one hit, an upper bound on how
    /// many of the query's q-gram means have an ε-matching mean in it:
    /// the number of query grams whose `3^D` neighbouring cells contain
    /// a gram of that trajectory. Appends `(id, count)` pairs sorted
    /// ascending by id to `out` and returns the probe's work counters
    /// (also flushed to the `art.*` metrics).
    ///
    /// Trajectories absent from `out` have **zero** matching means —
    /// sound to treat as `v = 0` in the Theorem 1 filter.
    ///
    /// # Panics
    ///
    /// Panics if `query` was built with a different `q` than the index.
    pub fn probe(
        &self,
        query: &SortedMeans<D>,
        scratch: &mut ArtScratch,
        out: &mut Vec<(u32, u32)>,
    ) -> ProbeStats {
        assert_eq!(query.q(), self.q, "q-gram sizes differ");
        scratch.ensure(self.num_ids);
        let query_epoch = scratch.next_epoch();
        let mut stats = ProbeStats::default();
        let mut touched = std::mem::take(&mut scratch.touched);
        touched.clear();
        let mut base = [0i64; D];
        for p in query.means() {
            for (d, cell) in base.iter_mut().enumerate() {
                *cell = cell_of(p[d], self.eps);
            }
            let gram_epoch = scratch.next_epoch();
            TrajectoryHistogram::<D>::for_each_neighbour(&base, |cell| {
                encode_cells(&mut scratch.key, cell);
                let Some(postings) = self.tree.get(&scratch.key, &mut stats) else {
                    return;
                };
                for &(id, _) in postings {
                    let i = id as usize;
                    if scratch.inner_seen[i] == gram_epoch {
                        continue; // already counted for this query gram
                    }
                    scratch.inner_seen[i] = gram_epoch;
                    if scratch.seen[i] != query_epoch {
                        scratch.seen[i] = query_epoch;
                        scratch.acc[i] = 0;
                        touched.push(id);
                    }
                    scratch.acc[i] += 1;
                }
            });
        }
        touched.sort_unstable();
        out.extend(
            touched
                .iter()
                .map(|&id| (id, scratch.acc[id as usize] as u32)),
        );
        scratch.touched = touched;
        flush_counters(&stats, 0);
        stats
    }
}

/// One histogram-probe result: a trajectory sharing at least one
/// dilated cell with the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistCandidate {
    /// Trajectory id.
    pub id: u32,
    /// A lower bound on `EDR(query, id)`.
    pub lower_bound: u32,
    /// True iff `lower_bound` is the *exact* EDR: the trajectory shares
    /// no dilated cell with the query in at least one dimension, so no
    /// element pair ε-matches and every alignment costs `max(lq, ls)`.
    pub exact: bool,
}

/// The query-side signature matching the index layout.
#[derive(Debug, Clone, Copy)]
pub enum QuerySignature<'a, const D: usize> {
    /// One `D`-dimensional grid histogram.
    Grid(&'a TrajectoryHistogram<D>),
    /// One projected histogram per dimension.
    PerDim(&'a [TrajectoryHistogram<1>]),
}

#[derive(Debug)]
enum HistTrees {
    Grid(SignatureTree),
    PerDim(Vec<SignatureTree>),
}

/// Trie index over histogram bin signatures: each non-empty cell of
/// each trajectory's histogram is a key, with the cell's mass as the
/// posting count.
#[derive(Debug)]
pub struct HistogramArtIndex<const D: usize> {
    trees: HistTrees,
    /// Per-trajectory length (histogram total mass).
    lens: Vec<u32>,
}

impl<const D: usize> HistogramArtIndex<D> {
    /// Builds the grid-layout index from full `D`-dimensional
    /// histograms (cells are already quantized with bin ≥ ε).
    pub fn build_grid(hists: &[TrajectoryHistogram<D>]) -> HistogramArtIndex<D> {
        let mut tree = SignatureTree::new(8 * D);
        let mut buf = Vec::with_capacity(8 * D);
        let mut lens = Vec::with_capacity(hists.len());
        for (id, h) in hists.iter().enumerate() {
            lens.push(h.total());
            for (cell, mass) in h.bins() {
                encode_cells(&mut buf, cell);
                tree.insert_n(&buf, id as u32, *mass);
            }
        }
        HistogramArtIndex {
            trees: HistTrees::Grid(tree),
            lens,
        }
    }

    /// Builds the per-dimension index from projected 1-d histograms
    /// (`hists[id][dim]`).
    ///
    /// # Panics
    ///
    /// Panics if any trajectory has a histogram count other than `D`.
    pub fn build_per_dim(hists: &[Vec<TrajectoryHistogram<1>>]) -> HistogramArtIndex<D> {
        let mut trees: Vec<SignatureTree> = (0..D).map(|_| SignatureTree::new(8)).collect();
        let mut buf = Vec::with_capacity(8);
        let mut lens = Vec::with_capacity(hists.len());
        for (id, per_dim) in hists.iter().enumerate() {
            assert_eq!(per_dim.len(), D, "one projected histogram per dimension");
            lens.push(per_dim.first().map_or(0, TrajectoryHistogram::total));
            for (tree, h) in trees.iter_mut().zip(per_dim) {
                for (cell, mass) in h.bins() {
                    encode_cells(&mut buf, cell);
                    tree.insert_n(&buf, id as u32, *mass);
                }
            }
        }
        HistogramArtIndex {
            trees: HistTrees::PerDim(trees),
            lens,
        }
    }

    /// Per-trajectory lengths (histogram total mass), indexed by id.
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// Probes the index with a query signature of the matching layout.
    /// Appends one [`HistCandidate`] per *touched* trajectory to `out`,
    /// sorted ascending by id, and returns the probe's work counters
    /// (also flushed to the `art.*` metrics, including one `candidates`
    /// increment per touched trajectory).
    ///
    /// Trajectories absent from `out` share no dilated cell with the
    /// query at all: their EDR is exactly `max(query_len, lens[id])`.
    ///
    /// # Panics
    ///
    /// Panics if the signature layout does not match the index layout.
    pub fn probe(
        &self,
        query: QuerySignature<'_, D>,
        query_len: u32,
        scratch: &mut ArtScratch,
        out: &mut Vec<HistCandidate>,
    ) -> ProbeStats {
        scratch.ensure(self.lens.len());
        let mut stats = ProbeStats::default();
        match (&self.trees, query) {
            (HistTrees::Grid(tree), QuerySignature::Grid(h)) => {
                let mut touched = std::mem::take(&mut scratch.touched);
                capacity_pass(tree, h.bins(), scratch, &mut touched, &mut stats);
                touched.sort_unstable();
                out.extend(touched.iter().map(|&id| {
                    let cap = scratch.acc[id as usize];
                    bounded(id, query_len, self.lens[id as usize], Some(cap))
                }));
                flush_counters(&stats, touched.len() as u64);
                scratch.touched = touched;
            }
            (HistTrees::PerDim(trees), QuerySignature::PerDim(per_dim)) => {
                assert_eq!(per_dim.len(), D, "one projected histogram per dimension");
                let fold_epoch = scratch.next_epoch();
                let mut fold_touched = std::mem::take(&mut scratch.fold_touched);
                fold_touched.clear();
                let mut touched = std::mem::take(&mut scratch.touched);
                for (tree, h) in trees.iter().zip(per_dim) {
                    capacity_pass(tree, h.bins(), scratch, &mut touched, &mut stats);
                    for &id in &touched {
                        let i = id as usize;
                        let cap = scratch.acc[i];
                        if scratch.fold_seen[i] != fold_epoch {
                            scratch.fold_seen[i] = fold_epoch;
                            scratch.fold_dims[i] = 1;
                            scratch.fold_min[i] = cap;
                            fold_touched.push(id);
                        } else {
                            scratch.fold_dims[i] += 1;
                            scratch.fold_min[i] = scratch.fold_min[i].min(cap);
                        }
                    }
                }
                fold_touched.sort_unstable();
                out.extend(fold_touched.iter().map(|&id| {
                    let i = id as usize;
                    // Touched in every dimension: capacity bound with
                    // the weakest dimension (the tightest per-dim lower
                    // bound). Missing a dimension: no ε-match possible,
                    // EDR is exactly max of the lengths.
                    let cap = (scratch.fold_dims[i] == D as u32).then_some(scratch.fold_min[i]);
                    bounded(id, query_len, self.lens[i], cap)
                }));
                flush_counters(&stats, fold_touched.len() as u64);
                scratch.touched = touched;
                scratch.fold_touched = fold_touched;
            }
            _ => panic!("query signature layout does not match index layout"),
        }
        stats
    }
}

/// Turns a matching capacity into a [`HistCandidate`]: `cap = None`
/// means "provably no ε-matching element pair", where EDR is exact.
fn bounded(id: u32, query_len: u32, data_len: u32, cap: Option<u64>) -> HistCandidate {
    let upper = query_len.max(data_len);
    match cap {
        Some(cap) => HistCandidate {
            id,
            lower_bound: upper - (cap.min(u64::from(query_len.min(data_len))) as u32).min(upper),
            exact: false,
        },
        None => HistCandidate {
            id,
            lower_bound: upper,
            exact: true,
        },
    }
}

/// One capacity accumulation pass over one tree: for each query cell of
/// mass `m`, finds all data mass in the cell's 3-neighbourhood per
/// trajectory and adds `min(m, matched mass)` to `scratch.acc`.
/// `touched` is reset and refilled with the ids seen (unsorted).
fn capacity_pass<const D: usize>(
    tree: &SignatureTree,
    bins: &[([i64; D], u32)],
    scratch: &mut ArtScratch,
    touched: &mut Vec<u32>,
    stats: &mut ProbeStats,
) {
    let query_epoch = scratch.next_epoch();
    touched.clear();
    let mut inner_touched = std::mem::take(&mut scratch.inner_touched);
    for (cell, mass) in bins {
        let cell_epoch = scratch.next_epoch();
        inner_touched.clear();
        TrajectoryHistogram::<D>::for_each_neighbour(cell, |neighbour| {
            encode_cells(&mut scratch.key, neighbour);
            let Some(postings) = tree.get(&scratch.key, stats) else {
                return;
            };
            for &(id, data_mass) in postings {
                let i = id as usize;
                if scratch.inner_seen[i] != cell_epoch {
                    scratch.inner_seen[i] = cell_epoch;
                    scratch.inner_acc[i] = 0;
                    inner_touched.push(id);
                }
                scratch.inner_acc[i] += u64::from(data_mass);
            }
        });
        for &id in &inner_touched {
            let i = id as usize;
            if scratch.seen[i] != query_epoch {
                scratch.seen[i] = query_epoch;
                scratch.acc[i] = 0;
                touched.push(id);
            }
            scratch.acc[i] += u64::from(*mass).min(scratch.inner_acc[i]);
        }
    }
    scratch.inner_touched = inner_touched;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajsim_core::Trajectory2;
    use trajsim_distance::edr;
    use trajsim_histogram::histogram_distance_quick;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    fn trajectories(points: &[Vec<(f64, f64)>]) -> Vec<Trajectory2> {
        points.iter().map(|p| Trajectory2::from_xy(p)).collect()
    }

    #[test]
    fn cell_encoding_preserves_order() {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for c in [i64::MIN, -5, -1, 0, 1, 7, i64::MAX] {
            let mut buf = Vec::new();
            push_cell(&mut buf, c);
            keys.push(buf);
        }
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "byte order must equal numeric order");
    }

    #[test]
    fn qgram_probe_counts_grid_matches() {
        let e = eps(1.0);
        let ts = trajectories(&[
            vec![(0.0, 0.0), (0.1, 0.1)],
            vec![(100.0, 100.0), (100.1, 100.1)],
        ]);
        let means: Vec<SortedMeans<2>> = ts.iter().map(|t| SortedMeans::build(t, 1)).collect();
        let index = QgramArtIndex::build(&means, e);
        let query = SortedMeans::build(&Trajectory2::from_xy(&[(0.5, 0.5), (0.6, 0.6)]), 1);
        let mut scratch = ArtScratch::new();
        let mut out = Vec::new();
        let stats = index.probe(&query, &mut scratch, &mut out);
        // Both query grams neighbour trajectory 0's cells; trajectory 1
        // is far away and must not even be touched.
        assert_eq!(out, vec![(0, 2)]);
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn hist_probe_flags_untouchable_ids_as_exact() {
        let e = eps(1.0);
        let ts = trajectories(&[
            vec![(0.0, 0.0), (1.0, 1.0)],
            // Shares x-cells with the query but lives far away in y:
            // touched in dim 0 only -> exact max-length distance.
            vec![(0.0, 500.0), (1.0, 500.0), (2.0, 500.0)],
        ]);
        let hists: Vec<Vec<TrajectoryHistogram<1>>> = ts
            .iter()
            .map(|t| {
                (0..2)
                    .map(|d| TrajectoryHistogram::<2>::build_projected(t, e, d))
                    .collect()
            })
            .collect();
        let index = HistogramArtIndex::<2>::build_per_dim(&hists);
        let q = Trajectory2::from_xy(&[(0.5, 0.5), (1.5, 1.5)]);
        let qh: Vec<TrajectoryHistogram<1>> = (0..2)
            .map(|d| TrajectoryHistogram::<2>::build_projected(&q, e, d))
            .collect();
        let mut scratch = ArtScratch::new();
        let mut out = Vec::new();
        index.probe(
            QuerySignature::PerDim(&qh),
            q.len() as u32,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(!out[0].exact, "trajectory 0 overlaps in both dims");
        assert!(out[1].exact, "trajectory 1 misses the y dimension");
        assert_eq!(out[1].lower_bound, 3, "max(2, 3) edits exactly");
        assert_eq!(out[1].lower_bound as usize, edr(&q, &ts[1], e));
    }

    #[test]
    #[should_panic(expected = "layout")]
    fn mismatched_signature_layout_panics() {
        let e = eps(1.0);
        let ts = trajectories(&[vec![(0.0, 0.0)]]);
        let hists: Vec<TrajectoryHistogram<2>> = ts
            .iter()
            .map(|t| TrajectoryHistogram::build(t, e))
            .collect();
        let index = HistogramArtIndex::build_grid(&hists);
        let qh: Vec<TrajectoryHistogram<1>> = vec![];
        let mut scratch = ArtScratch::new();
        let mut out = Vec::new();
        index.probe(QuerySignature::PerDim(&qh), 1, &mut scratch, &mut out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The probe's per-trajectory count dominates the exact merge
        /// join count (the superset/soundness property of the ε-grid),
        /// and ids it never touches truly have zero matches.
        #[test]
        fn qgram_probe_dominates_merge_join(
            db in proptest::collection::vec(
                proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..12), 1..12),
            query in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..12),
            q in 1usize..3,
            e in 0.1..2.0f64,
        ) {
            let e = eps(e);
            let ts = trajectories(&db);
            let means: Vec<SortedMeans<2>> =
                ts.iter().map(|t| SortedMeans::build(t, q)).collect();
            let index = QgramArtIndex::build(&means, e);
            let qm = SortedMeans::build(&Trajectory2::from_xy(&query), q);
            let mut scratch = ArtScratch::new();
            let mut out = Vec::new();
            index.probe(&qm, &mut scratch, &mut out);
            for (id, sm) in means.iter().enumerate() {
                let exact = qm.match_count(sm, e);
                let indexed = out
                    .binary_search_by_key(&(id as u32), |&(id, _)| id)
                    .map(|i| out[i].1 as usize)
                    .unwrap_or(0);
                prop_assert!(
                    indexed >= exact,
                    "id {id}: indexed count {indexed} < exact {exact}"
                );
            }
        }

        /// Histogram probe lower bounds never exceed the quick filter's
        /// bound for touched ids (we drop one capacity term), and both
        /// touched-exact and untouched ids have EDR equal to the max
        /// length exactly.
        #[test]
        fn hist_probe_bounds_are_sound(
            db in proptest::collection::vec(
                proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 1..10), 1..10),
            query in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 1..10),
            e in 0.1..2.0f64,
        ) {
            let e = eps(e);
            let ts = trajectories(&db);
            let q = Trajectory2::from_xy(&query);
            let hists: Vec<Vec<TrajectoryHistogram<1>>> = ts
                .iter()
                .map(|t| (0..2)
                    .map(|d| TrajectoryHistogram::<2>::build_projected(t, e, d))
                    .collect())
                .collect();
            let index = HistogramArtIndex::<2>::build_per_dim(&hists);
            let qh: Vec<TrajectoryHistogram<1>> = (0..2)
                .map(|d| TrajectoryHistogram::<2>::build_projected(&q, e, d))
                .collect();
            let mut scratch = ArtScratch::new();
            let mut out = Vec::new();
            index.probe(QuerySignature::PerDim(&qh), q.len() as u32, &mut scratch, &mut out);
            for (id, t) in ts.iter().enumerate() {
                let truth = edr(&q, t, e);
                let hit = out
                    .binary_search_by_key(&(id as u32), |c| c.id)
                    .map(|i| out[i])
                    .ok();
                match hit {
                    Some(c) => {
                        prop_assert!(
                            c.lower_bound as usize <= truth,
                            "id {id}: bound {} > EDR {truth}", c.lower_bound
                        );
                        if c.exact {
                            prop_assert_eq!(c.lower_bound as usize, truth);
                        } else {
                            // Never tighter than the quick filter on the
                            // same projected histograms.
                            let quick = (0..2)
                                .map(|d| histogram_distance_quick(&qh[d], &hists[id][d]))
                                .max()
                                .unwrap();
                            prop_assert!(c.lower_bound as usize <= quick);
                        }
                    }
                    None => prop_assert_eq!(
                        q.len().max(t.len()),
                        truth,
                        "untouched id {} must be at exact max-length distance", id
                    ),
                }
            }
        }
    }
}
