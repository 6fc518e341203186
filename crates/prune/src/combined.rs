//! The k-NN filter cascade (§4.3–4.4, Figures 9–13, Table 3): the
//! paper's `EDRCombineK-NN` loop, configured by which lower-bound filters
//! it applies, in which order, and how it visits the candidates.

use crate::candidates::{Candidate, CandidateBatch, CandidateSource};
use crate::result::{
    elapsed_ns, finalize_query, KnnEngine, KnnResult, Neighbor, QueryStats, Refine, ResultSet,
    Stage,
};
use std::sync::Mutex;
use std::time::Instant;
use trajsim_art::{ArtScratch, HistCandidate, HistogramArtIndex, QgramArtIndex, QuerySignature};
use trajsim_core::{Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_distance::{with_workspace, EdrWorkspace, QueryContext};
use trajsim_histogram::{histogram_distance, histogram_distance_quick, TrajectoryHistogram};
use trajsim_qgram::{passes_count_filter, SortedMeans};

/// Which histogram embedding the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramVariant {
    /// Full `D`-dimensional trajectory histograms with bin size `δ·ε`
    /// (δ = 1 is the paper's 2HE; δ = 2..4 are 2H2E..2H4E, the
    /// fewer-bins/weaker-bound trade-off of Theorem 7).
    Grid {
        /// The bin-size multiplier δ (≥ 1).
        delta: u32,
    },
    /// One histogram per projected dimension with bin size ε (the paper's
    /// 1HE, Theorem 8). The lower bound is the *maximum* of the
    /// per-dimension histogram distances — each is individually a lower
    /// bound of EDR, so their max is a tighter sound bound.
    PerDimension,
}

/// How candidates are visited (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// **HSE**: database order; a candidate whose quick histogram bound
    /// reaches the current k-th best (a full top-k admits only smaller
    /// distances) is pruned on its own.
    Sequential,
    /// **HSR**: compute every quick histogram bound first, then visit in
    /// ascending lower-bound order — once a lower bound reaches the k-th
    /// best, *everything* after it is pruned in one step.
    Sorted,
}

/// The filters the cascade applies, in application order. The paper
/// tests all six orders of the three filters (Figure 11); `HQN` —
/// histogram, then q-grams, then near triangle — is the winner,
/// "applying a pruning method with more pruning power and less expensive
/// computation cost first". `H` and `N` are the single-filter engines of
/// §4.3 and §4.2; `Q`, the q-gram filter alone, is the one order that
/// needs neither histograms nor a pmatrix, so it prunes at ε = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::upper_case_acronyms)]
pub enum PruneOrder {
    /// histogram → q-gram → near-triangle (the paper's 2HPN / 1HPN).
    HQN,
    /// histogram → near-triangle → q-gram.
    HNQ,
    /// q-gram → histogram → near-triangle.
    QHN,
    /// q-gram → near-triangle → histogram.
    QNH,
    /// near-triangle → histogram → q-gram.
    NHQ,
    /// near-triangle → q-gram → histogram.
    NQH,
    /// Histogram pruning alone (§4.3, Figures 9–10).
    H,
    /// Near-triangle pruning alone (§4.2, Table 3).
    N,
    /// Q-gram count pruning alone (§4.1).
    Q,
}

impl PruneOrder {
    /// The six orders of all three filters, for the Figure 11 sweep.
    pub const ALL: [PruneOrder; 6] = [
        PruneOrder::HQN,
        PruneOrder::HNQ,
        PruneOrder::QHN,
        PruneOrder::QNH,
        PruneOrder::NHQ,
        PruneOrder::NQH,
    ];

    /// The filters in application order.
    pub fn filters(self) -> &'static [Stage] {
        use Stage::*;
        match self {
            PruneOrder::HQN => &[Histogram, Qgram, Triangle],
            PruneOrder::HNQ => &[Histogram, Triangle, Qgram],
            PruneOrder::QHN => &[Qgram, Histogram, Triangle],
            PruneOrder::QNH => &[Qgram, Triangle, Histogram],
            PruneOrder::NHQ => &[Triangle, Histogram, Qgram],
            PruneOrder::NQH => &[Triangle, Qgram, Histogram],
            PruneOrder::H => &[Histogram],
            PruneOrder::N => &[Triangle],
            PruneOrder::Q => &[Qgram],
        }
    }

    /// True iff the order applies `stage`.
    pub(crate) fn names(self, stage: Stage) -> bool {
        self.filters().contains(&stage)
    }

    /// The paper's label style: e.g. `2HPN` for histogram → q-gram →
    /// near-triangle with 2-d histograms.
    pub fn label(self, histogram: HistogramVariant) -> String {
        let h = match histogram {
            HistogramVariant::Grid { .. } => "2H",
            HistogramVariant::PerDimension => "1H",
        };
        self.filters()
            .iter()
            .map(|f| match f {
                Stage::Histogram => h,
                Stage::Qgram => "P",
                Stage::Triangle => "N",
            })
            .collect()
    }
}

/// Configuration of the cascade. The engine builds only the structures
/// it names: histograms when the order names the histogram filter or the
/// scan is [`ScanMode::Sorted`], q-gram means when it names the q-gram
/// filter, and the reference `pmatrix` when it names the triangle filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinedConfig {
    /// Filter application order.
    pub order: PruneOrder,
    /// Histogram embedding (2-d grid or per-dimension 1-d).
    pub histogram: HistogramVariant,
    /// Q-gram size for the merge-join count filter (the paper settles on
    /// q = 1 with PS2 from the Figure 7–8 study).
    pub qgram_q: usize,
    /// Reference-pool size for near-triangle pruning (the paper uses 400).
    pub max_triangle: usize,
    /// Candidate visit order: HSR (the default, which the §5.3 study
    /// selected for the combination) or HSE.
    pub scan: ScanMode,
}

impl Default for CombinedConfig {
    /// The paper's best setting: histogram first (1-d histograms — the
    /// overall winner of Figures 12–13), then merge-join q-grams of size
    /// 1, then near-triangle with 400 references, over the HSR scan.
    fn default() -> Self {
        CombinedConfig {
            order: PruneOrder::HQN,
            histogram: HistogramVariant::PerDimension,
            qgram_q: 1,
            max_triangle: 400,
            scan: ScanMode::Sorted,
        }
    }
}

impl CombinedConfig {
    /// Histogram pruning alone (§4.3): the paper's 1HE, 2HE and 2HδE,
    /// each with an HSE or HSR scan.
    pub fn histogram_only(histogram: HistogramVariant, scan: ScanMode) -> Self {
        CombinedConfig {
            order: PruneOrder::H,
            histogram,
            scan,
            ..CombinedConfig::default()
        }
    }

    /// Near-triangle pruning alone (§4.2, Figure 4) over a database-order
    /// scan, with the first `max_triangle` trajectories as references.
    pub fn near_triangle_only(max_triangle: usize) -> Self {
        CombinedConfig {
            order: PruneOrder::N,
            max_triangle,
            scan: ScanMode::Sequential,
            ..CombinedConfig::default()
        }
    }

    /// True iff the engine embeds histograms, which need a positive ε.
    pub fn builds_histograms(&self) -> bool {
        self.order.names(Stage::Histogram) || self.scan == ScanMode::Sorted
    }

    /// The reference pool size over `n` trajectories: `max_triangle`
    /// capped at `n`, or 0 when the order has no triangle filter.
    fn references(&self, n: usize) -> usize {
        if self.order.names(Stage::Triangle) {
            self.max_triangle.min(n)
        } else {
            0
        }
    }

    /// The paper's label: `2HE-HSE`, `1HE-HSR`, `NTR(maxT=400)` for the
    /// single-filter engines and `1HPN` style for the combinations. A
    /// scan other than the engine's paper default (HSE for NTR, HSR for
    /// the rest) is appended.
    fn label(&self) -> String {
        let scan = match self.scan {
            ScanMode::Sequential => "HSE",
            ScanMode::Sorted => "HSR",
        };
        match self.order {
            PruneOrder::H => {
                let v = match self.histogram {
                    HistogramVariant::Grid { delta: 1 } => "2HE".to_string(),
                    HistogramVariant::Grid { delta } => format!("2H{delta}E"),
                    HistogramVariant::PerDimension => "1HE".to_string(),
                };
                format!("{v}-{scan}")
            }
            PruneOrder::N => match self.scan {
                ScanMode::Sequential => format!("NTR(maxT={})", self.max_triangle),
                ScanMode::Sorted => format!("NTR(maxT={})-{scan}", self.max_triangle),
            },
            order => match self.scan {
                ScanMode::Sequential => format!("{}-{scan}", order.label(self.histogram)),
                ScanMode::Sorted => order.label(self.histogram),
            },
        }
    }
}

/// The near-triangle filter's offline `pmatrix` (§4.2): row `r` holds
/// `min(EDR(db[r], S), L − |S| + 1)` for every trajectory `S` of `arena`
/// and each of the first `references` trajectories (capped at N), where
/// `L` is the arena's longest length — O(references · N) EDRs, done
/// once per database and amortized over every query, the in-memory
/// stand-in for the paper's disk-resident pmatrix columns.
///
/// The cap loses nothing the triangle test can use. Once the top-k is
/// full its cutoff is an exact EDR of some `S_i`, at least
/// `|Q| − |S_i| ≥ |Q| − L` and at least 0, while `EDR(Q, R) ≤
/// max(|Q|, L)`; so `EDR(Q, R) − p − |S| ≥ cutoff` can only hold for
/// `p ≤ L − |S|`, where the entry is exact, and every larger entry —
/// the cap included — fails it. Each entry is one
/// [`QueryContext::edr_banded`] under `L − |S|`: a length pre-check
/// answers many without any DP, and the rest run a band of that width
/// with the diagonal cut-off, every match word from the reference's rank
/// masks. Rows are computed in parallel: one `trajsim-parallel` task
/// per reference row, one pre-grown EDR workspace per worker, reused
/// across its rows.
pub fn build_pmatrix<const D: usize>(
    arena: &TrajectoryArena<D>,
    eps: MatchThreshold,
    references: usize,
) -> Vec<Vec<usize>> {
    let ids: Vec<usize> = (0..references.min(arena.len())).collect();
    let longest = arena.max_len();
    trajsim_parallel::par_map_with(
        &ids,
        || EdrWorkspace::with_capacity(longest),
        |ws, _, &r| {
            let ctx = QueryContext::new(arena.view(r), eps);
            (0..arena.len())
                .map(|s| {
                    let usable = longest - arena.len_of(s);
                    ctx.edr_banded(arena.view(s), usable, ws)
                        .unwrap_or(usable + 1)
                })
                .collect()
        },
    )
}

/// `candidates`, given in ascending id order, reordered into the HSR
/// visit order — ascending `(lower_bound, id)` — by one counting pass
/// over the integer bounds. A quick bound never exceeds the longer
/// trajectory's length, so the buckets number at most the longest length
/// plus one; the pass is stable, so ids stay ascending within a bucket.
fn bucket_order(candidates: &[Candidate]) -> Vec<Candidate> {
    let Some(max) = candidates.iter().map(|c| c.lower_bound).max() else {
        return Vec::new();
    };
    // next[b]: where the next candidate with bound b goes.
    let mut next = vec![0usize; max + 2];
    for c in candidates {
        next[c.lower_bound + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    // Every slot of the copy is overwritten below.
    let mut ordered = candidates.to_vec();
    for &c in candidates {
        ordered[next[c.lower_bound]] = c;
        next[c.lower_bound] += 1;
    }
    ordered
}

#[derive(Debug)]
enum Hists<const D: usize> {
    Grid(Vec<TrajectoryHistogram<D>>),
    PerDim(Vec<Vec<TrajectoryHistogram<1>>>),
}

enum QueryHists<const D: usize> {
    Grid(TrajectoryHistogram<D>),
    PerDim(Vec<TrajectoryHistogram<1>>),
}

/// The prebuilt adaptive-radix signature indexes of one engine
/// ([`CombinedKnn::with_index`]): histogram bins and q-gram means share
/// a probe scratch (mutexed so the engine stays `Sync`; queries answered
/// in parallel by [`KnnEngine::knn_batch`] take turns probing).
#[derive(Debug)]
struct ArtIndexes<const D: usize> {
    hist: HistogramArtIndex<D>,
    qgram: QgramArtIndex<D>,
    /// Ids sorted by `(length, id)`: the untouched-candidate walk visits
    /// them in nondecreasing exact distance `max(query len, length)`.
    ids_by_len: Vec<u32>,
    scratch: Mutex<ArtScratch>,
}

impl<const D: usize> ArtIndexes<D> {
    /// Probes both indexes and assembles the candidate batch: touched
    /// trajectories with their histogram lower bounds (exact where the
    /// index proved no ε-match is possible) and q-gram count upper
    /// bounds; everything else is provably at exact max-length distance
    /// and stays out of the batch (`exhaustive: false`).
    fn generate(
        &self,
        query_len: usize,
        qh: &QueryHists<D>,
        q_means: &SortedMeans<D>,
    ) -> CandidateBatch {
        let mut scratch = self.scratch.lock().expect("probe scratch poisoned");
        let mut hist_out: Vec<HistCandidate> = Vec::new();
        let sig = match qh {
            QueryHists::Grid(h) => QuerySignature::Grid(h),
            QueryHists::PerDim(hs) => QuerySignature::PerDim(hs),
        };
        self.hist
            .probe(sig, query_len as u32, &mut scratch, &mut hist_out);
        let mut counts: Vec<(u32, u32)> = Vec::new();
        self.qgram.probe(q_means, &mut scratch, &mut counts);
        let mut candidates: Vec<Candidate> = hist_out
            .iter()
            .map(|c| Candidate {
                id: c.id as usize,
                lower_bound: c.lower_bound as usize,
                exact: c.exact,
                // Touched by the histograms but absent from the q-gram
                // probe: provably zero ε-matching means.
                qgram_count_ub: Some(
                    counts
                        .binary_search_by_key(&c.id, |&(id, _)| id)
                        .map(|i| counts[i].1 as usize)
                        .unwrap_or(0),
                ),
            })
            .collect();
        candidates.sort_unstable_by_key(|c| (c.lower_bound, c.id));
        CandidateBatch {
            candidates,
            exhaustive: false,
        }
    }
}

/// `EDRCombineK-NN` (Figure 6), generalized to any list of filters in
/// any order: each candidate runs through the configured lower-bound
/// filters and the true EDR is computed only if none of them prunes it.
/// The single-filter orders are the paper's histogram engine (§4.3,
/// HSE/HSR) and `NearTrianglePruning` (§4.2, Figure 4).
///
/// Because the filters are orthogonal lower bounds, the *set* of pruned
/// candidates is order-independent (the paper confirms "the six
/// combinations achieve the same pruning power"); the order determines
/// which filter takes the credit — and, since the filters have different
/// costs, the wall-clock speedup (Figure 11).
#[derive(Debug)]
pub struct CombinedKnn<'a, const D: usize> {
    dataset: &'a Dataset<D>,
    /// Columnar candidate storage for the refine stage.
    arena: TrajectoryArena<D>,
    eps: MatchThreshold,
    config: CombinedConfig,
    /// Histogram embeddings, when the configuration builds them.
    hists: Option<Hists<D>>,
    /// Sorted q-gram means, when the order names the q-gram filter.
    qgrams: Option<Vec<SortedMeans<D>>>,
    /// `pmatrix[r][s]` for the reference pool (the first `max_triangle`
    /// ids): `EDR(R, S)` wherever it is at most `L − |S|` (`L` the
    /// longest trajectory), anything above that elsewhere, since such an
    /// entry can never pass the triangle test ([`build_pmatrix`] stores
    /// `L − |S| + 1` there); empty unless the order names the triangle
    /// filter.
    pmatrix: Vec<Vec<usize>>,
    /// Signature indexes for sublinear candidate generation, when built.
    index: Option<ArtIndexes<D>>,
}

impl<'a, const D: usize> CombinedKnn<'a, D> {
    /// Builds the structures the configuration names for `dataset`; the
    /// reference `pmatrix` comes from [`build_pmatrix`].
    ///
    /// # Panics
    ///
    /// As [`Self::with_pmatrix`].
    pub fn build(dataset: &'a Dataset<D>, eps: MatchThreshold, config: CombinedConfig) -> Self {
        if !config.order.names(Stage::Triangle) {
            return Self::with_pmatrix(dataset, eps, config, Vec::new());
        }
        let arena = TrajectoryArena::from_dataset(dataset);
        let pmatrix = build_pmatrix(&arena, eps, config.max_triangle);
        Self::with_pmatrix(dataset, eps, config, pmatrix)
    }

    /// Builds with an externally computed reference `pmatrix` (row `r`
    /// for `r < max_triangle.min(N)`; no rows when the order has no
    /// triangle filter), so one matrix can serve several configurations.
    /// Entry `[r][s]` must be `EDR(db[r], db[s])` wherever that is at
    /// most `L − |db[s]|`, with `L` the longest trajectory in `dataset`;
    /// above that any value greater than `L − |db[s]|` gives the same
    /// answers and counters, because no such entry passes the triangle
    /// test (see [`build_pmatrix`]). The exact matrix and
    /// [`build_pmatrix`]'s capped one are both valid.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape is inconsistent with the database and
    /// configuration, if the configuration builds histograms and `eps` is
    /// zero or `delta` is zero, or if it builds q-gram means and
    /// `qgram_q` is zero.
    pub fn with_pmatrix(
        dataset: &'a Dataset<D>,
        eps: MatchThreshold,
        config: CombinedConfig,
        pmatrix: Vec<Vec<usize>>,
    ) -> Self {
        assert_eq!(
            pmatrix.len(),
            config.references(dataset.len()),
            "pmatrix must have one row per reference"
        );
        for row in &pmatrix {
            assert_eq!(row.len(), dataset.len(), "pmatrix row length must be N");
        }
        let hists = config.builds_histograms().then(|| {
            assert!(
                eps.value() > 0.0,
                "histogram pruning needs a positive epsilon"
            );
            match config.histogram {
                HistogramVariant::Grid { delta } => {
                    assert!(delta >= 1, "bin-size multiplier must be at least 1");
                    Hists::Grid(
                        dataset
                            .iter()
                            .map(|(_, t)| TrajectoryHistogram::build_coarse(t, eps, delta))
                            .collect(),
                    )
                }
                HistogramVariant::PerDimension => Hists::PerDim(
                    dataset
                        .iter()
                        .map(|(_, t)| {
                            (0..D)
                                .map(|dim| TrajectoryHistogram::<D>::build_projected(t, eps, dim))
                                .collect()
                        })
                        .collect(),
                ),
            }
        });
        let qgrams = config.order.names(Stage::Qgram).then(|| {
            assert!(config.qgram_q > 0, "q-gram size must be positive");
            dataset
                .iter()
                .map(|(_, t)| SortedMeans::build(t, config.qgram_q))
                .collect()
        });
        CombinedKnn {
            dataset,
            arena: TrajectoryArena::from_dataset(dataset),
            eps,
            config,
            hists,
            qgrams,
            pmatrix,
            index: None,
        }
    }

    /// Builds the adaptive-radix signature indexes over the engine's
    /// existing histogram and q-gram structures, switching candidate
    /// generation from the O(dataset) scan to trie probes. The answers
    /// are identical (the index only over-approximates); candidate
    /// generation cost becomes proportional to what the probes touch.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration builds both histograms and q-gram
    /// means (a sorted scan whose order names the q-gram filter).
    pub fn with_index(mut self) -> Self {
        let (Some(hists), Some(qgrams)) = (&self.hists, &self.qgrams) else {
            panic!("the signature index needs histograms and q-gram means");
        };
        let hist = match hists {
            Hists::Grid(h) => HistogramArtIndex::build_grid(h),
            Hists::PerDim(h) => HistogramArtIndex::build_per_dim(h),
        };
        let qgram = QgramArtIndex::build(qgrams, self.eps);
        let mut ids_by_len: Vec<u32> = (0..self.dataset.len() as u32).collect();
        ids_by_len.sort_unstable_by_key(|&id| (self.arena.len_of(id as usize), id));
        self.index = Some(ArtIndexes {
            hist,
            qgram,
            ids_by_len,
            scratch: ArtScratch::shared(),
        });
        self
    }

    /// True iff [`CombinedKnn::with_index`] built the signature indexes.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CombinedConfig {
        &self.config
    }

    /// Candidate generation behind the [`CandidateSource`] seam: the
    /// trie probes when an index is built, otherwise every id with its
    /// quick histogram bound (0 without histograms), sorted into the HSR
    /// visit order or left in database order for HSE.
    fn generate_candidates(
        &self,
        query_len: usize,
        qh: Option<&QueryHists<D>>,
        q_means: Option<&SortedMeans<D>>,
    ) -> CandidateBatch {
        if let Some(index) = &self.index {
            let built = "an indexed engine embeds histograms and q-gram means";
            return index.generate(query_len, qh.expect(built), q_means.expect(built));
        }
        let candidates: Vec<Candidate> = (0..self.dataset.len())
            .map(|id| Candidate {
                id,
                lower_bound: qh.map_or(0, |qh| self.histogram_quick(qh, id)),
                exact: false,
                qgram_count_ub: None,
            })
            .collect();
        CandidateBatch {
            candidates: match self.config.scan {
                ScanMode::Sorted => bucket_order(&candidates),
                ScanMode::Sequential => candidates,
            },
            exhaustive: true,
        }
    }

    /// The linear quick histogram lower bound (drives the HSR visit order
    /// and its break-out, and HSE's per-candidate check).
    fn histogram_quick(&self, qh: &QueryHists<D>, id: usize) -> usize {
        match (&self.hists, qh) {
            (Some(Hists::Grid(h)), QueryHists::Grid(q)) => histogram_distance_quick(q, &h[id]),
            (Some(Hists::PerDim(h)), QueryHists::PerDim(q)) => q
                .iter()
                .zip(&h[id])
                .map(|(a, b)| histogram_distance_quick(a, b))
                .max()
                .unwrap_or(0),
            _ => unreachable!("query embedded with the engine's own variant"),
        }
    }

    /// The exact histogram lower bound (a linear sweep per 1-D histogram,
    /// max-flow on grids), run per candidate when the histogram filter's
    /// turn comes.
    fn histogram_exact(&self, qh: &QueryHists<D>, id: usize) -> usize {
        match (&self.hists, qh) {
            (Some(Hists::Grid(h)), QueryHists::Grid(q)) => histogram_distance(q, &h[id]),
            (Some(Hists::PerDim(h)), QueryHists::PerDim(q)) => q
                .iter()
                .zip(&h[id])
                .map(|(a, b)| histogram_distance(a, b))
                .max()
                .unwrap_or(0),
            _ => unreachable!("query embedded with the engine's own variant"),
        }
    }

    /// Embeds one query with the engine's histogram variant, when the
    /// engine has histograms.
    fn query_hists(&self, query: &Trajectory<D>) -> Option<QueryHists<D>> {
        self.hists.as_ref()?;
        Some(match self.config.histogram {
            HistogramVariant::Grid { delta } => {
                QueryHists::Grid(TrajectoryHistogram::build_coarse(query, self.eps, delta))
            }
            HistogramVariant::PerDimension => QueryHists::PerDim(
                (0..D)
                    .map(|dim| TrajectoryHistogram::<D>::build_projected(query, self.eps, dim))
                    .collect(),
            ),
        })
    }

    /// The query's sorted q-gram means, when the engine has a q-gram
    /// filter.
    fn query_means(&self, query: &Trajectory<D>) -> Option<SortedMeans<D>> {
        self.qgrams
            .as_ref()
            .map(|_| SortedMeans::build(query, self.config.qgram_q))
    }

    /// The merge-join count of the query's q-gram means with an ε-match
    /// in trajectory `id` — Theorem 1's `v`.
    fn qgram_matches(&self, q_means: Option<&SortedMeans<D>>, id: usize) -> usize {
        match (q_means, &self.qgrams) {
            (Some(q), Some(db)) => q.match_count(&db[id], self.eps),
            _ => unreachable!("q-gram means exist wherever the q-gram filter runs"),
        }
    }

    /// Theorem 5's bound `EDR(Q,S) ≥ EDR(Q,R) − EDR(R,S) − |S|`: true iff
    /// some reference `(R, EDR(Q,R))` in `refs` lower-bounds candidate
    /// `id` (of length `s_len`) at or above `cutoff`.
    fn triangle_prunes(
        &self,
        refs: &[(usize, usize)],
        id: usize,
        s_len: usize,
        cutoff: usize,
    ) -> bool {
        refs.iter().any(|&(r, dist_qr)| {
            dist_qr as i64 - self.pmatrix[r][id] as i64 - s_len as i64 >= cutoff as i64
        })
    }

    /// True iff candidate `id` joins a reference pool that already holds
    /// `refs` references once its exact distance is known (the paper's
    /// dynamic strategy: the first `max_triangle` pmatrix rows whose true
    /// distance gets computed).
    fn joins_pool(&self, id: usize, refs: usize) -> bool {
        id < self.pmatrix.len() && refs < self.config.max_triangle
    }

    /// Every trajectory within EDR distance `radius` of `query`, sorted by
    /// `(dist, id)` and reported as engine `range` with the hit count as
    /// `k`: the cascade with its cutoff fixed at `radius + 1` (Theorem 1's
    /// range form, §4.1). It is exact on the capped pmatrix too: a capped
    /// entry can pass the triangle test only if `|Q| − L ≥ radius + 2`,
    /// and then no trajectory is in range (DESIGN.md §6 item 3).
    pub fn range(&self, query: &Trajectory<D>, radius: usize) -> KnnResult {
        let t_query = Instant::now();
        let (hits, stats) = self.cascade(query, ResultSet::within(radius), t_query);
        finalize_query("range", query.len(), hits.len(), None, t_query, hits, stats)
    }

    /// `EDRCombineK-NN`, pruning on `result`'s cutoff in either form.
    fn cascade(
        &self,
        query: &Trajectory<D>,
        mut result: ResultSet,
        t_query: Instant,
    ) -> (Vec<Neighbor>, QueryStats) {
        let qh = self.query_hists(query);
        let q_means = self.query_means(query);
        // Query side of the refine stage, transposed once into SoA
        // columns; candidates stream from the columnar arena.
        let ctx = QueryContext::from_trajectory(query, self.eps);
        let mut stats = QueryStats {
            database_size: self.dataset.len(),
            ..Default::default()
        };
        stats.timings.setup_ns = elapsed_ns(t_query);
        let mut references: Vec<(usize, usize)> = Vec::new();
        let sorted = self.config.scan == ScanMode::Sorted;
        // HSR visits candidates in ascending order of their histogram
        // lower bound, regardless of the filter order, so the k-th-best
        // distance tightens as fast as possible and — because the visit
        // sequence is shared — all six filter orders prune the same
        // candidate set. HSE visits them in database order.
        //
        // Stage accounting: candidate generation (quick bounds or index
        // probes, plus the sort) is charged to the histogram filter's
        // time. A candidate a stage dismisses enters that stage and does
        // not leave it: quick-bound prunes, the HSR break-out remainder
        // and the index's exact and untouched settlements all enter the
        // histogram stage, and `finish_query` reads every prune credit
        // off the stage flows.
        let t_filter = Instant::now();
        let generated = self.generate_candidates(query.len(), qh.as_ref(), q_means.as_ref());
        if qh.is_some() {
            stats.timings.histogram.filter_ns += elapsed_ns(t_filter);
        }
        // Admission is strict (`ResultSet::cutoff`): once the cutoff is
        // finite (a full top-k, or a radius), a candidate is dismissed as
        // soon as a lower bound reaches it, and refined under `cutoff −
        // 1`. Without histograms the candidates' bound is a placeholder 0
        // that never dismisses anything.
        let real_bounds = qh.is_some();
        // One borrow of the thread's EDR workspace around the whole
        // candidate loop: every refine below reuses the same scratch.
        let mut refine = Refine::timed();
        with_workspace(|ws| {
            'candidates: for (rank, cand) in generated.candidates.iter().enumerate() {
                let id = cand.id;
                let s_len = self.arena.len_of(id);
                let cutoff = result.cutoff();
                if cutoff != usize::MAX && real_bounds && cand.lower_bound >= cutoff {
                    if sorted {
                        // Sorted scan break-out: every remaining lower
                        // bound is at least this one.
                        stats.timings.histogram.candidates_in += generated.candidates.len() - rank;
                        break;
                    }
                    stats.timings.histogram.candidates_in += 1;
                    continue;
                }
                if cand.exact {
                    // The index proved `lower_bound` *is* the EDR: no
                    // cascade, no refine — offer it outright (it also
                    // makes a sound triangle reference).
                    stats.timings.histogram.candidates_in += 1;
                    if self.joins_pool(id, references.len()) {
                        references.push((id, cand.lower_bound));
                    }
                    result.offer(id, cand.lower_bound);
                    continue;
                }
                if cutoff != usize::MAX {
                    for &filter in self.config.order.filters() {
                        // With no reference pool the triangle test can
                        // never prune: skip it, as a stage with no work.
                        if filter == Stage::Triangle && self.pmatrix.is_empty() {
                            continue;
                        }
                        let t = Instant::now();
                        let prune = match filter {
                            Stage::Histogram => {
                                let qh = qh.as_ref().expect("histogram filter embeds the query");
                                self.histogram_exact(qh, id) >= cutoff
                            }
                            Stage::Qgram => {
                                // The index probe's count upper bound
                                // replaces the merge join when present.
                                let v = cand
                                    .qgram_count_ub
                                    .unwrap_or_else(|| self.qgram_matches(q_means.as_ref(), id));
                                // Can `EDR <= cutoff − 1` still hold?
                                cutoff == 0
                                    || !passes_count_filter(
                                        v,
                                        query.len(),
                                        s_len,
                                        self.config.qgram_q,
                                        cutoff - 1,
                                    )
                            }
                            Stage::Triangle => self.triangle_prunes(&references, id, s_len, cutoff),
                        };
                        let stage = stats.timings.stage_mut(filter);
                        stage.filter_ns += elapsed_ns(t);
                        stage.candidates_in += 1;
                        if prune {
                            continue 'candidates;
                        }
                        stage.candidates_out += 1;
                    }
                }
                // A reference-pool id needs its exact distance.
                let joins_pool = self.joins_pool(id, references.len());
                let bound = if joins_pool {
                    usize::MAX
                } else {
                    result.admission_bound()
                };
                let d = refine.step(&ctx, id, self.arena.view(id), bound, &mut result, ws);
                if let (true, Some(d)) = (joins_pool, d) {
                    references.push((id, d));
                }
            }
        });
        stats.add_refine(&refine);
        if !generated.exhaustive {
            // Trajectories the index never touched share no dilated cell
            // with the query: their EDR is exactly `max(query len, their
            // len)`. Walking them in nondecreasing length gives
            // nondecreasing distance, so the first one to reach the
            // cutoff settles all the rest. None needs a refine.
            let touched = generated.ids(); // ascending, for the skip test
            let index = self.index.as_ref().expect("non-exhaustive implies index");
            let mut remaining = self.dataset.len() - touched.len();
            for &id32 in &index.ids_by_len {
                let id = id32 as usize;
                if touched.binary_search(&id).is_ok() {
                    continue;
                }
                let d = query.len().max(self.arena.len_of(id));
                if d >= result.cutoff() {
                    stats.timings.histogram.candidates_in += remaining;
                    break;
                }
                remaining -= 1;
                stats.timings.histogram.candidates_in += 1;
                result.offer(id, d);
            }
        }
        (result.into_neighbors(), stats)
    }
}

impl<const D: usize> KnnEngine<D> for CombinedKnn<'_, D> {
    fn knn(&self, query: &Trajectory<D>, k: usize) -> KnnResult {
        let t_query = Instant::now();
        let (hits, stats) = self.cascade(query, ResultSet::new(k), t_query);
        finalize_query(&self.name(), query.len(), k, None, t_query, hits, stats)
    }

    fn name(&self) -> String {
        let label = self.config.label();
        if self.index.is_some() {
            format!("{label}+art")
        } else {
            label
        }
    }
}

impl<const D: usize> CandidateSource<D> for CombinedKnn<'_, D> {
    fn generate(&self, query: &Trajectory<D>) -> CandidateBatch {
        let qh = self.query_hists(query);
        let q_means = self.query_means(query);
        self.generate_candidates(query.len(), qh.as_ref(), q_means.as_ref())
    }

    fn source_name(&self) -> &'static str {
        if self.index.is_some() {
            "art"
        } else {
            "scan"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialScan;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajsim_core::Trajectory2;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    /// Random walks of length 1..=max_len.
    fn random_db(seed: u64, n: usize, max_len: usize) -> Dataset<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=max_len);
                let mut x = rng.gen_range(-3.0..3.0);
                let mut y = rng.gen_range(-3.0..3.0);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| {
                            x += rng.gen_range(-0.8..0.8);
                            y += rng.gen_range(-0.8..0.8);
                            (x, y)
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Uniform random points, lengths drawn from `len_range`.
    fn scatter_db(seed: u64, n: usize, len_range: (usize, usize)) -> Dataset<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(len_range.0..=len_range.1);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn bucket_order_equals_the_comparison_sort() {
        let longest = 37;
        let with_bounds = |bounds: &[usize]| -> Vec<Candidate> {
            bounds
                .iter()
                .enumerate()
                .map(|(id, &lower_bound)| Candidate {
                    id,
                    lower_bound,
                    exact: false,
                    qgram_count_ub: None,
                })
                .collect()
        };
        let cases = [
            vec![],
            vec![5; 9],
            vec![0; 9],
            vec![3, 0, longest, 3, 1, 0, longest - 1, 2, 3],
            vec![longest],
        ];
        for bounds in cases {
            let candidates = with_bounds(&bounds);
            let mut expected = candidates.clone();
            expected.sort_unstable_by_key(|c| (c.lower_bound, c.id));
            assert_eq!(bucket_order(&candidates), expected, "bounds {bounds:?}");
        }
    }

    /// Every histogram-only configuration: 2HE..2H4E and 1HE × HSE/HSR.
    fn histogram_configs() -> Vec<CombinedConfig> {
        let mut out = Vec::new();
        for scan in [ScanMode::Sequential, ScanMode::Sorted] {
            for delta in 1..=4 {
                out.push(CombinedConfig::histogram_only(
                    HistogramVariant::Grid { delta },
                    scan,
                ));
            }
            out.push(CombinedConfig::histogram_only(
                HistogramVariant::PerDimension,
                scan,
            ));
        }
        out
    }

    #[test]
    fn all_orders_match_sequential_scan_with_equal_pruning_power() {
        let db = random_db(1, 60, 18);
        let query = random_db(2, 1, 18).trajectories()[0].clone();
        let e = eps(0.6);
        let truth = SequentialScan::new(&db, e).knn(&query, 5);
        let mut powers = Vec::new();
        for order in PruneOrder::ALL {
            let config = CombinedConfig {
                order,
                histogram: HistogramVariant::Grid { delta: 1 },
                max_triangle: 20,
                ..CombinedConfig::default()
            };
            let engine = CombinedKnn::build(&db, e, config);
            let r = engine.knn(&query, 5);
            assert_eq!(r.distances(), truth.distances(), "{:?} diverged", order);
            powers.push(r.stats.pruning_power());
        }
        // §4.4: "the six combinations achieve the same pruning power".
        for p in &powers {
            assert!((p - powers[0]).abs() < 1e-12, "powers differ: {powers:?}");
        }
    }

    #[test]
    fn per_filter_credit_follows_the_order() {
        let db = random_db(3, 80, 20);
        let query = db.trajectories()[4].clone();
        let e = eps(0.5);
        let mk = |order| {
            let config = CombinedConfig {
                order,
                histogram: HistogramVariant::Grid { delta: 1 },
                max_triangle: 20,
                ..CombinedConfig::default()
            };
            CombinedKnn::build(&db, e, config).knn(&query, 5).stats
        };
        let hqn = mk(PruneOrder::HQN);
        let qhn = mk(PruneOrder::QHN);
        // The first filter in the order sees every candidate, so its credit
        // under its own ordering is at least its credit under the other.
        assert!(hqn.pruned_by_histogram >= qhn.pruned_by_histogram);
        assert!(qhn.pruned_by_qgram >= hqn.pruned_by_qgram);
        assert_eq!(hqn.pruned(), qhn.pruned());
    }

    #[test]
    fn one_dimensional_histogram_config_works() {
        let db = random_db(5, 40, 15);
        let query = random_db(6, 1, 15).trajectories()[0].clone();
        let e = eps(0.5);
        let engine = CombinedKnn::build(&db, e, CombinedConfig::default());
        assert_eq!(engine.name(), "1HPN");
        let truth = SequentialScan::new(&db, e).knn(&query, 4);
        assert_eq!(engine.knn(&query, 4).distances(), truth.distances());
    }

    #[test]
    fn labels_follow_the_paper() {
        assert_eq!(
            PruneOrder::HQN.label(HistogramVariant::Grid { delta: 1 }),
            "2HPN"
        );
        assert_eq!(
            PruneOrder::NQH.label(HistogramVariant::Grid { delta: 1 }),
            "NP2H"
        );
        assert_eq!(
            PruneOrder::HQN.label(HistogramVariant::PerDimension),
            "1HPN"
        );
        let db = random_db(5, 3, 5);
        let name = |config| CombinedKnn::build(&db, eps(0.5), config).name();
        let hist = CombinedConfig::histogram_only;
        assert_eq!(
            name(hist(HistogramVariant::Grid { delta: 1 }, ScanMode::Sorted)),
            "2HE-HSR"
        );
        assert_eq!(
            name(hist(
                HistogramVariant::Grid { delta: 3 },
                ScanMode::Sequential
            )),
            "2H3E-HSE"
        );
        assert_eq!(
            name(hist(HistogramVariant::PerDimension, ScanMode::Sorted)),
            "1HE-HSR"
        );
        assert_eq!(name(CombinedConfig::near_triangle_only(2)), "NTR(maxT=2)");
        // A scan other than the paper's default for the order is spelled
        // out.
        let sequential = CombinedConfig {
            scan: ScanMode::Sequential,
            ..CombinedConfig::default()
        };
        assert_eq!(name(sequential), "1HPN-HSE");
        let sorted_ntr = CombinedConfig {
            scan: ScanMode::Sorted,
            ..CombinedConfig::near_triangle_only(2)
        };
        assert_eq!(name(sorted_ntr), "NTR(maxT=2)-HSR");
    }

    #[test]
    fn every_configuration_builds_only_what_its_order_names() {
        let db = random_db(8, 12, 10);
        let e = eps(0.5);
        let built = |config| {
            let engine = CombinedKnn::build(&db, e, config);
            (
                engine.hists.is_some(),
                engine.qgrams.is_some(),
                engine.pmatrix.len(),
            )
        };
        let hsr = CombinedConfig::histogram_only(HistogramVariant::PerDimension, ScanMode::Sorted);
        assert_eq!(built(hsr), (true, false, 0));
        let ntr = CombinedConfig::near_triangle_only(5);
        assert_eq!(built(ntr), (false, false, 5));
        // A sorted scan needs the quick bounds, whatever the order.
        let sorted_ntr = CombinedConfig {
            scan: ScanMode::Sorted,
            ..ntr
        };
        assert_eq!(built(sorted_ntr), (true, false, 5));
        assert_eq!(built(CombinedConfig::default()), (true, true, 12));
    }

    #[test]
    fn every_histogram_configuration_matches_sequential_scan() {
        let db = random_db(1, 50, 18);
        let query = random_db(2, 1, 18).trajectories()[0].clone();
        let e = eps(0.7);
        let truth = SequentialScan::new(&db, e).knn(&query, 5);
        for config in histogram_configs() {
            let engine = CombinedKnn::build(&db, e, config);
            assert_eq!(
                engine.knn(&query, 5).distances(),
                truth.distances(),
                "{} diverged",
                engine.name()
            );
        }
    }

    #[test]
    fn sorted_scan_prunes_at_least_as_much_as_sequential() {
        let db = random_db(3, 80, 20);
        let query = db.trajectories()[5].clone();
        let e = eps(0.5);
        let grid = HistogramVariant::Grid { delta: 1 };
        let hse = CombinedKnn::build(
            &db,
            e,
            CombinedConfig::histogram_only(grid, ScanMode::Sequential),
        );
        let hsr = CombinedKnn::build(
            &db,
            e,
            CombinedConfig::histogram_only(grid, ScanMode::Sorted),
        );
        let (a, b) = (hse.knn(&query, 5), hsr.knn(&query, 5));
        assert_eq!(a.distances(), b.distances());
        assert!(
            b.stats.pruning_power() >= a.stats.pruning_power(),
            "HSR {} < HSE {}",
            b.stats.pruning_power(),
            a.stats.pruning_power()
        );
    }

    #[test]
    fn finer_bins_prune_at_least_as_much_as_coarse() {
        let db = random_db(4, 80, 20);
        let query = db.trajectories()[7].clone();
        let e = eps(0.5);
        let run = |delta| {
            let config =
                CombinedConfig::histogram_only(HistogramVariant::Grid { delta }, ScanMode::Sorted);
            CombinedKnn::build(&db, e, config).knn(&query, 5)
        };
        let (fine, coarse) = (run(1), run(4));
        assert_eq!(fine.distances(), coarse.distances());
        assert!(fine.stats.pruning_power() >= coarse.stats.pruning_power());
    }

    #[test]
    #[should_panic(expected = "positive epsilon")]
    fn zero_epsilon_panics_where_histograms_are_built() {
        let db = random_db(6, 3, 5);
        let config =
            CombinedConfig::histogram_only(HistogramVariant::Grid { delta: 1 }, ScanMode::Sorted);
        let _ = CombinedKnn::build(&db, eps(0.0), config);
    }

    #[test]
    fn near_triangle_matches_sequential_scan_even_at_zero_epsilon() {
        let db = scatter_db(1, 50, (2, 30));
        let query = scatter_db(2, 1, (2, 30)).trajectories()[0].clone();
        for e in [eps(0.5), eps(0.0)] {
            let engine = CombinedKnn::build(&db, e, CombinedConfig::near_triangle_only(10));
            let truth = SequentialScan::new(&db, e).knn(&query, 5);
            assert_eq!(engine.knn(&query, 5).distances(), truth.distances());
        }
    }

    #[test]
    fn near_triangle_prunes_on_variable_length_databases() {
        // The bound EDR(Q,R) − EDR(R,S) − |S| is at most EDR(Q,R) − |R|
        // (because EDR(R,S) >= |R| − |S|), so pruning needs references
        // *shorter* than the query that are far from it, plus candidates
        // close to those references while the query has close long
        // neighbours. Build exactly that:
        let line = |base: f64, len: usize| {
            Trajectory2::from_xy(
                &(0..len)
                    .map(|i| (base + i as f64 * 0.1, base))
                    .collect::<Vec<_>>(),
            )
        };
        let mut trajs = Vec::new();
        // 10 short references at location B (far from the query at A).
        for i in 0..10 {
            trajs.push(line(500.0 + i as f64 * 0.01, 4));
        }
        // 5 long trajectories at A: the query's true neighbours.
        for i in 0..5 {
            trajs.push(line(i as f64 * 0.01, 50));
        }
        // 50 short candidates clustered with the references at B.
        for i in 0..50 {
            trajs.push(line(500.0 + i as f64 * 0.01, 4));
        }
        let db = Dataset::new(trajs);
        let query = line(0.0, 50);
        let e = eps(0.5);
        let engine = CombinedKnn::build(&db, e, CombinedConfig::near_triangle_only(10));
        let r = engine.knn(&query, 3);
        // Lower bound for a B-cluster candidate: 50 − small − 4 >> best
        // (≈ 0 from the A-cluster neighbours) — most of B gets pruned.
        assert!(
            r.stats.pruned_by_triangle >= 40,
            "expected heavy triangle pruning, got {}",
            r.stats.pruned_by_triangle
        );
        let truth = SequentialScan::new(&db, e).knn(&query, 3);
        assert_eq!(r.distances(), truth.distances());
    }

    #[test]
    fn near_triangle_cannot_prune_equal_length_databases() {
        // §4.2: "if all the trajectories have the same length, applying
        // near triangle inequality will not remove any false candidates"
        // — the lower bound EDR(Q,R) − EDR(R,S) − |S| is at most
        // max(...) − |S| <= 0 < any distance. Verify no pruning happens.
        let db = scatter_db(4, 40, (12, 12));
        let query = scatter_db(5, 1, (12, 12)).trajectories()[0].clone();
        let engine = CombinedKnn::build(&db, eps(0.5), CombinedConfig::near_triangle_only(20));
        let r = engine.knn(&query, 3);
        assert_eq!(r.stats.pruned_by_triangle, 0);
        assert_eq!(r.stats.edr_computed, 40);
    }

    #[test]
    fn near_triangle_without_references_is_the_scan() {
        let db = scatter_db(6, 20, (2, 20));
        let query = db.trajectories()[1].clone();
        let e = eps(0.5);
        let engine = CombinedKnn::build(&db, e, CombinedConfig::near_triangle_only(0));
        let truth = SequentialScan::new(&db, e).knn(&query, 4);
        let r = engine.knn(&query, 4);
        assert_eq!(r.distances(), truth.distances());
        assert_eq!(r.stats.edr_computed, 20);
    }

    #[test]
    #[should_panic(expected = "one row per reference")]
    fn bad_pmatrix_shape_panics() {
        let db = scatter_db(7, 5, (2, 5));
        let _ = CombinedKnn::with_pmatrix(
            &db,
            eps(0.5),
            CombinedConfig::near_triangle_only(3),
            vec![vec![0; 5]],
        );
    }

    /// Random walks of the given lengths.
    fn walks_of(seed: u64, lens: &[usize]) -> Dataset<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        lens.iter()
            .map(|&len| {
                let (mut x, mut y) = (0.0, 0.0);
                Trajectory2::from_xy(
                    &(0..len)
                        .map(|_| {
                            x += rng.gen_range(-0.6..0.6);
                            y += rng.gen_range(-0.6..0.6);
                            (x, y)
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn build_pmatrix_rows_are_true_distances() {
        // L = 150. Reference 0 is longer than every candidate but the
        // other length-L walk (id 6), whose entries run the bound-0
        // path; lengths 1, 64 and 65 sit on either side of a word
        // boundary, and reference 1 has length 1.
        let db = walks_of(9, &[150, 1, 64, 65, 2, 63, 150, 129, 128, 30, 97, 1, 65]);
        let longest = 150;
        let e = eps(0.5);
        let pm = build_pmatrix(&TrajectoryArena::from_dataset(&db), e, 7);
        assert_eq!(pm.len(), 7);
        let t = db.trajectories();
        let (mut exact, mut capped) = (0, 0);
        for (r, row) in pm.iter().enumerate() {
            assert_eq!(row.len(), db.len());
            for (s, &d) in row.iter().enumerate() {
                let usable = longest - t[s].len();
                let truth = trajsim_distance::edr_naive(&t[r], &t[s], e);
                assert_eq!(d, truth.min(usable + 1), "pmatrix[{r}][{s}]");
                if truth <= usable {
                    exact += 1;
                } else {
                    capped += 1;
                }
            }
        }
        assert!(exact > 0 && capped > 0, "{exact} exact, {capped} capped");
        // |S| = L leaves no usable value: 0 for the walk itself, the cap
        // 1 for the other length-L walk.
        assert_eq!((pm[0][0], pm[0][6], pm[6][0], pm[6][6]), (0, 1, 1, 0));
        // The pool is capped at the database size.
        assert_eq!(
            build_pmatrix(&TrajectoryArena::from_dataset(&db), e, 99).len(),
            13
        );
    }

    #[test]
    fn the_pmatrix_cap_keeps_the_last_usable_entry() {
        // L = 10 and |Q| = 14: once the neighbour N (a 10-point prefix of
        // Q, EDR 4 = |Q| − L) fills the top-1, the cutoff is 4, and the
        // far reference R gives EDR(Q, R) = 14. S is a 4-point prefix of
        // R, so EDR(R, S) = 6 = L − |S| exactly: 14 − 6 − 4 = 4 prunes
        // it. S2 differs from S in its last point, so EDR(R, S2) = 7 =
        // L − |S2| + 1 — the cap's own value — and is refined.
        let line = |base: f64, len: usize| {
            (0..len)
                .map(|i| (base + i as f64 * 0.1, base))
                .collect::<Vec<_>>()
        };
        let mut s2 = line(500.0, 4);
        s2[3] = (900.0, 900.0);
        let db = Dataset::new(
            [line(500.0, 10), line(0.0, 10), line(500.0, 4), s2]
                .iter()
                .map(|p| Trajectory2::from_xy(p))
                .collect(),
        );
        let query = Trajectory2::from_xy(&line(0.0, 14));
        let e = eps(0.5);
        let pm = build_pmatrix(&TrajectoryArena::from_dataset(&db), e, 1);
        // EDR(R, N) = 10 is above L − |N| = 0 and stored as the cap 1.
        assert_eq!(pm, vec![vec![0, 1, 6, 7]]);
        let engine = CombinedKnn::build(&db, e, CombinedConfig::near_triangle_only(1));
        let r = engine.knn(&query, 1);
        assert_eq!(r.stats.pruned_by_triangle, 1);
        assert_eq!(r.stats.edr_computed, 3);
        let got: Vec<(usize, usize)> = r.neighbors.iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(got, vec![(1, 4)]);
        let truth = SequentialScan::new(&db, e).knn(&query, 1);
        assert_eq!(r.distances(), truth.distances());
    }

    /// The `len`-point prefix of the walk `seed` draws: prefixes of one
    /// walk lie `|R| − |S|` apart, the least EDR their lengths allow.
    fn prefix_of(seed: u64, len: usize) -> Trajectory2 {
        walks_of(seed, &[len]).into_trajectories().remove(0)
    }

    /// Checks every entry of `db`'s first `references` pmatrix rows
    /// against `min(EDR, L − |S| + 1)` from the naive DP, and that both
    /// kinds of entry occur.
    fn assert_capped_rows(db: &Dataset<2>, e: MatchThreshold, references: usize) {
        let t = db.trajectories();
        let longest = db.iter().map(|(_, t)| t.len()).max().unwrap();
        let pm = build_pmatrix(&TrajectoryArena::from_dataset(db), e, references);
        assert_eq!(pm.len(), references);
        let (mut exact, mut capped) = (0, 0);
        for (r, row) in pm.iter().enumerate() {
            for (s, &d) in row.iter().enumerate() {
                let usable = longest - t[s].len();
                let truth = trajsim_distance::edr_naive(&t[r], &t[s], e);
                let lens = (t[r].len(), t[s].len());
                assert_eq!(d, truth.min(usable + 1), "pmatrix[{r}][{s}], lens {lens:?}");
                if truth <= usable {
                    exact += 1;
                } else {
                    capped += 1;
                }
            }
        }
        assert!(exact > 0 && capped > 0, "{exact} exact, {capped} capped");
    }

    #[test]
    fn pmatrix_entries_are_exact_on_the_mixes_refines_send_to_compares() {
        // L = 256. References of 65, 70 and 128 points are the pattern
        // against candidates of 30, 40 and 63: for four of these mixes
        // (70 against 40, say: a two-word pattern over 40 columns, where
        // the full DP takes one word over 70) a query refine would build
        // compared words, while every pmatrix entry takes the masks. The
        // bound L − |S| is past both lengths there, so the band reads the
        // target diagonal in its last column only. The 150-point
        // candidates leave the 128-point references a bound of 106, below
        // both lengths, where the band can abandon; the 200-point ones
        // fail the length pre-check, and the 256-point ones get bound 0.
        let mut trajs: Vec<Trajectory2> = Vec::new();
        for seed in [11, 12] {
            trajs.extend([65, 70, 128].map(|len| prefix_of(seed, len)));
        }
        for seed in [11, 12] {
            trajs.extend([30, 40, 63, 150, 200, 256].map(|len| prefix_of(seed, len)));
        }
        let db = Dataset::new(trajs);
        assert_capped_rows(&db, eps(0.5), 6);
    }

    #[test]
    fn a_pmatrix_reference_past_the_rank_mask_cap_takes_compared_words() {
        // The 1 030-point reference builds no rank masks, so its row runs
        // on compare-built words; the 1 000-point prefix of the same walk
        // sits exactly at its usable bound L − |S| = 30.
        let lens = [1030, 1000, 700, 64, 1, 1030];
        let mut trajs: Vec<Trajectory2> = lens.iter().map(|&len| prefix_of(13, len)).collect();
        trajs.extend(lens.iter().map(|&len| prefix_of(14, len)));
        let db = Dataset::new(trajs);
        assert_capped_rows(&db, eps(0.5), 3);
    }

    #[test]
    fn indexed_engine_matches_plain_per_query_and_batch() {
        let db = random_db(9, 70, 16);
        let queries: Vec<Trajectory2> = (0..4)
            .map(|i| random_db(40 + i, 1, 16).trajectories()[0].clone())
            .collect();
        let e = eps(0.5);
        for histogram in [
            HistogramVariant::PerDimension,
            HistogramVariant::Grid { delta: 2 },
        ] {
            let config = CombinedConfig {
                histogram,
                max_triangle: 12,
                ..CombinedConfig::default()
            };
            let plain = CombinedKnn::build(&db, e, config);
            let indexed = CombinedKnn::build(&db, e, config).with_index();
            assert!(indexed.has_index() && !plain.has_index());
            assert_eq!(indexed.source_name(), "art");
            for q in &queries {
                assert_eq!(
                    indexed.knn(q, 5).distances(),
                    plain.knn(q, 5).distances(),
                    "per-query divergence under {histogram:?}"
                );
            }
            let batch_plain = plain.knn_batch(&queries, 5);
            let batch_indexed = indexed.knn_batch(&queries, 5);
            for (a, b) in batch_indexed.iter().zip(&batch_plain) {
                assert_eq!(a.distances(), b.distances(), "batch divergence");
            }
        }
    }

    #[test]
    fn indexed_engine_counts_exact_settlements_as_pruned() {
        // A query far from most of the database: the index leaves most
        // ids untouched, settling them at exact max-length distance
        // without any EDR refine.
        let db = random_db(11, 50, 12);
        let query = Trajectory2::from_xy(&[(900.0, 900.0), (901.0, 901.0)]);
        let e = eps(0.5);
        let engine = CombinedKnn::build(&db, e, CombinedConfig::default()).with_index();
        let r = engine.knn(&query, 3);
        let truth = SequentialScan::new(&db, e).knn(&query, 3);
        assert_eq!(r.distances(), truth.distances());
        assert_eq!(
            r.stats.edr_computed, 0,
            "a disjoint query needs no refines at all"
        );
        assert_eq!(r.stats.pruned(), db.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// No false dismissals for every order on random inputs.
        #[test]
        fn no_false_dismissals(
            seed in 0u64..1000,
            k in 1usize..6,
            e in 0.2..1.5f64,
            delta in 1u32..3,
        ) {
            let db = random_db(seed, 25, 14);
            let query = random_db(seed + 77, 1, 14).trajectories()[0].clone();
            let e = eps(e);
            let truth = SequentialScan::new(&db, e).knn(&query, k);
            for order in PruneOrder::ALL {
                let config = CombinedConfig {
                    order,
                    histogram: HistogramVariant::Grid { delta },
                    qgram_q: 2,
                    max_triangle: 8,
                    ..CombinedConfig::default()
                };
                let engine = CombinedKnn::build(&db, e, config);
                prop_assert_eq!(
                    engine.knn(&query, k).distances(),
                    truth.distances(),
                    "order {:?}", order
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// No false dismissals across histogram variants, scans, seeds,
        /// and k.
        #[test]
        fn histogram_only_has_no_false_dismissals(
            seed in 0u64..1000,
            k in 1usize..6,
            e in 0.2..2.0f64,
        ) {
            let db = random_db(seed, 25, 14);
            let query = random_db(seed + 555, 1, 14).trajectories()[0].clone();
            let e = eps(e);
            let truth = SequentialScan::new(&db, e).knn(&query, k);
            for config in histogram_configs() {
                let engine = CombinedKnn::build(&db, e, config);
                prop_assert_eq!(
                    engine.knn(&query, k).distances(),
                    truth.distances(),
                    "{} k {}", engine.name(), k
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// No false dismissals for arbitrary databases, pool sizes, k.
        #[test]
        fn near_triangle_only_has_no_false_dismissals(
            seed in 0u64..1000,
            max_t in 0usize..20,
            k in 1usize..6,
            e in 0.1..2.0f64,
        ) {
            let db = scatter_db(seed, 25, (1, 18));
            let query = scatter_db(seed + 31337, 1, (1, 18)).trajectories()[0].clone();
            let e = eps(e);
            let truth = SequentialScan::new(&db, e).knn(&query, k);
            let engine = CombinedKnn::build(&db, e, CombinedConfig::near_triangle_only(max_t));
            prop_assert_eq!(engine.knn(&query, k).distances(), truth.distances());
        }
    }
}
