//! Query results, statistics, per-stage timings, and the engine trait.

use serde_json::{json, Value};
use std::time::Instant;
use trajsim_core::{CoordSeq, Trajectory};
use trajsim_distance::{EdrWorkspace, QueryContext};

/// A filter stage of the k-NN funnel, in pipeline order: the one list of
/// stages. Every per-stage field, key, metric and report row is derived
/// from [`Stage::ALL`] and [`Stage::keys`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The trajectory-histogram lower bound (§4.3), quick and exact.
    Histogram,
    /// The mean-value q-gram count filter (§4.1).
    Qgram,
    /// The (near-)triangle-inequality filter (§4.2).
    Triangle,
}

/// The names derived from a [`Stage`]'s name and flight-key prefix; the
/// examples are the histogram's.
#[derive(Debug)]
pub struct StageKeys {
    /// `histogram`: JSON key, report row, stats-store key and SLO stage.
    pub name: &'static str,
    /// `h_in`: flight key of the candidates entering the stage.
    pub candidates_in: &'static str,
    /// `h_out`: flight key of the candidates leaving it.
    pub candidates_out: &'static str,
    /// `h_ns`: flight key of its wall time.
    pub filter_ns: &'static str,
    /// `pruned_h`: flight key of the candidates it dismissed.
    pub pruned: &'static str,
    /// `pruned_by_histogram`: [`QueryStats`] JSON key of the same count.
    pub pruned_by: &'static str,
    /// `knn.stage.histogram_ns`: metrics counter of its wall time.
    pub counter: &'static str,
}

macro_rules! stage_keys {
    ($name:literal, $prefix:literal) => {
        StageKeys {
            name: $name,
            candidates_in: concat!($prefix, "_in"),
            candidates_out: concat!($prefix, "_out"),
            filter_ns: concat!($prefix, "_ns"),
            pruned: concat!("pruned_", $prefix),
            pruned_by: concat!("pruned_by_", $name),
            counter: concat!("knn.stage.", $name, "_ns"),
        }
    };
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Histogram, Stage::Qgram, Stage::Triangle];

    /// The stage name (`histogram`, `qgram`, `triangle`).
    pub fn name(self) -> &'static str {
        self.keys().name
    }

    /// Every name derived from the stage.
    pub fn keys(self) -> &'static StageKeys {
        const KEYS: [StageKeys; Stage::ALL.len()] = [
            stage_keys!("histogram", "h"),
            stage_keys!("qgram", "q"),
            stage_keys!("triangle", "t"),
        ];
        &KEYS[self as usize]
    }
}

/// How many timed parts a query has ([`StageTimings::parts`]).
pub const PARTS: usize = Stage::ALL.len() + 2;

/// Candidate flow and wall time through one pruning filter: how many
/// candidates the filter judged, how many survived it, and how long the
/// filter's own work took (bound computation and comparison — not the EDR
/// refinement of the survivors). A candidate the stage dismisses enters
/// it and does not leave it, so [`Self::pruned`] is its whole credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Candidates the filter judged.
    pub candidates_in: usize,
    /// Candidates that survived the filter (passed on downstream).
    pub candidates_out: usize,
    /// Wall time spent inside the filter, in nanoseconds.
    pub filter_ns: u64,
}

impl StageStats {
    /// Candidates this filter eliminated.
    pub fn pruned(&self) -> usize {
        self.candidates_in.saturating_sub(self.candidates_out)
    }

    /// Fraction of judged candidates that survived (`out / in`); 0 when
    /// the filter judged nothing.
    pub fn selectivity(&self) -> f64 {
        if self.candidates_in == 0 {
            0.0
        } else {
            self.candidates_out as f64 / self.candidates_in as f64
        }
    }

    /// Whether the filter did any work.
    pub fn ran(&self) -> bool {
        self.candidates_in > 0 || self.filter_ns > 0
    }

    /// Merges another stage's counters into this one.
    pub fn accumulate(&mut self, other: &StageStats) {
        self.candidates_in += other.candidates_in;
        self.candidates_out += other.candidates_out;
        self.filter_ns += other.filter_ns;
    }

    fn to_json(self) -> Value {
        json!({
            "candidates_in": self.candidates_in,
            "candidates_out": self.candidates_out,
            "filter_ns": self.filter_ns,
        })
    }
}

/// Per-stage wall-time breakdown of one k-NN query: index/embedding setup,
/// each pruning filter (with candidate flow), and the EDR refinement of
/// whatever survived. Stages an engine does not run stay zero.
///
/// Engines measure wall time directly, each part inside the query's
/// clock (the parallel scan's refine is one stopwatch around its pool
/// run), so on every path (the serial and parallel scans, `QgramKnn`,
/// `CseKnn`, every `CombinedKnn` stage list, `range`, and each query of
/// a batch) the parts sum to at most `total_ns` and [`Self::other_ns`]
/// never saturates (`tests/refine_kernels.rs` pins it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Query-side setup before any candidate is examined (query histogram
    /// embedding, reference-row lookup).
    pub setup_ns: u64,
    /// The histogram lower-bound filter (quick and exact bounds, candidate
    /// generation and the HSR visit-order build where applicable).
    pub histogram: StageStats,
    /// The q-gram count filter.
    pub qgram: StageStats,
    /// The (near-)triangle-inequality filter.
    pub triangle: StageStats,
    /// True-distance (EDR/LCSS) computation over surviving candidates.
    pub refine_ns: u64,
    /// End-to-end wall time of the query.
    pub total_ns: u64,
    /// Smallest per-query `total_ns` folded in by [`Self::accumulate`].
    /// Zero together with `max_total_ns` means "raw single-query value";
    /// read through [`Self::total_range`].
    pub min_total_ns: u64,
    /// Largest per-query `total_ns` folded in (see `min_total_ns`).
    pub max_total_ns: u64,
    /// Smallest per-query `refine_ns` folded in (see `min_total_ns`).
    pub min_refine_ns: u64,
    /// Largest per-query `refine_ns` folded in (see `min_total_ns`).
    pub max_refine_ns: u64,
}

impl StageTimings {
    /// The flow and time of one filter stage.
    pub fn stage(&self, stage: Stage) -> &StageStats {
        match stage {
            Stage::Histogram => &self.histogram,
            Stage::Qgram => &self.qgram,
            Stage::Triangle => &self.triangle,
        }
    }

    /// The flow and time of one filter stage, for updating.
    pub fn stage_mut(&mut self, stage: Stage) -> &mut StageStats {
        match stage {
            Stage::Histogram => &mut self.histogram,
            Stage::Qgram => &mut self.qgram,
            Stage::Triangle => &mut self.triangle,
        }
    }

    /// The wall time of every timed part, in pipeline order: `setup`, each
    /// [`Stage`]'s filter, `refine`. [`Self::other_ns`] is what they leave
    /// of `total_ns`.
    pub fn parts(&self) -> [(&'static str, u64); PARTS] {
        let mut parts = [("setup", self.setup_ns); PARTS];
        for stage in Stage::ALL {
            parts[1 + stage as usize] = (stage.name(), self.stage(stage).filter_ns);
        }
        parts[PARTS - 1] = ("refine", self.refine_ns);
        parts
    }

    /// Each of [`Self::parts`], then `other`, as a share of `total_ns`;
    /// all zero when `total_ns` is.
    pub fn shares(&self) -> [(&'static str, f64); PARTS + 1] {
        let mut shares = [("other", 0.0); PARTS + 1];
        let parts = self.parts().into_iter().chain([("other", self.other_ns())]);
        let total = self.total_ns as f64;
        for (share, (name, ns)) in shares.iter_mut().zip(parts) {
            *share = (name, if total > 0.0 { ns as f64 / total } else { 0.0 });
        }
        shares
    }

    /// `(min, max)` of the per-query total wall time across every query
    /// folded in with [`Self::accumulate`]. A raw single-query value —
    /// engines only fill `total_ns` — reports `(total_ns, total_ns)`.
    pub fn total_range(&self) -> (u64, u64) {
        if self.min_total_ns == 0 && self.max_total_ns == 0 {
            (self.total_ns, self.total_ns)
        } else {
            (self.min_total_ns, self.max_total_ns)
        }
    }

    /// `(min, max)` of the per-query refine time across every query
    /// folded in (same sentinel convention as [`Self::total_range`]).
    pub fn refine_range(&self) -> (u64, u64) {
        if self.min_refine_ns == 0 && self.max_refine_ns == 0 {
            (self.refine_ns, self.refine_ns)
        } else {
            (self.min_refine_ns, self.max_refine_ns)
        }
    }

    /// Merges another query's stage breakdown into this one (for averaging
    /// over query workloads). Alongside the totals it keeps the per-batch
    /// extremes of the total and refine times, so aggregated reports can
    /// show tail behavior instead of only means; the fold is associative —
    /// any grouping of the same queries yields the same extremes.
    pub fn accumulate(&mut self, other: &StageTimings) {
        // Ranges are taken before the sums mutate `self`: a raw
        // single-query left operand contributes (total_ns, total_ns).
        let fresh = *self == StageTimings::default();
        let (self_min_total, self_max_total) = self.total_range();
        let (self_min_refine, self_max_refine) = self.refine_range();
        let (other_min_total, other_max_total) = other.total_range();
        let (other_min_refine, other_max_refine) = other.refine_range();
        self.setup_ns += other.setup_ns;
        for stage in Stage::ALL {
            self.stage_mut(stage).accumulate(other.stage(stage));
        }
        self.refine_ns += other.refine_ns;
        self.total_ns += other.total_ns;
        if fresh {
            // A default accumulator adopts the other side's extremes
            // instead of folding its own zeros into the minima.
            self.min_total_ns = other_min_total;
            self.max_total_ns = other_max_total;
            self.min_refine_ns = other_min_refine;
            self.max_refine_ns = other_max_refine;
        } else {
            self.min_total_ns = self_min_total.min(other_min_total);
            self.max_total_ns = self_max_total.max(other_max_total);
            self.min_refine_ns = self_min_refine.min(other_min_refine);
            self.max_refine_ns = self_max_refine.max(other_max_refine);
        }
    }

    /// Wall time not attributed to any named stage (result-set upkeep,
    /// visit-order iteration, instrumentation itself).
    pub fn other_ns(&self) -> u64 {
        let attributed: u64 = self.parts().iter().map(|&(_, ns)| ns).sum();
        self.total_ns.saturating_sub(attributed)
    }

    /// JSON object mirroring the struct, shared by the CLI's
    /// `--metrics-out` and the bench harness result files. The min/max
    /// keys report [`Self::total_range`] / [`Self::refine_range`], so a
    /// raw single-query value serializes its own totals as both extremes.
    pub fn to_json(&self) -> Value {
        let (min_total, max_total) = self.total_range();
        let (min_refine, max_refine) = self.refine_range();
        let mut entries = vec![("setup_ns", self.setup_ns.into())];
        entries.extend(Stage::ALL.map(|s| (s.name(), self.stage(s).to_json())));
        entries.extend([
            ("refine_ns", self.refine_ns.into()),
            ("total_ns", self.total_ns.into()),
            ("min_total_ns", min_total.into()),
            ("max_total_ns", max_total.into()),
            ("min_refine_ns", min_refine.into()),
            ("max_refine_ns", max_refine.into()),
        ]);
        object(entries)
    }
}

/// A JSON object of `entries`, in order.
fn object(entries: Vec<(&'static str, Value)>) -> Value {
    let mut map = serde_json::Map::new();
    for (key, value) in entries {
        map.insert(key.to_string(), value);
    }
    Value::Object(map)
}

/// One k-NN answer: a database trajectory id and its EDR distance to the
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// Database id of the trajectory.
    pub id: usize,
    /// Its EDR distance to the query.
    pub dist: usize,
}

/// Counters describing how a query was answered — the raw material of the
/// paper's *pruning power* metric ("the fraction of the trajectories S in
/// the data set for which the true distance EDR(Q, S) is not computed",
/// §5). Every database id leaves the funnel once, dismissed by one stage
/// or refined: `database_size == Σ pruned_by_* + edr_computed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Database size N.
    pub database_size: usize,
    /// Number of true EDR computations performed.
    pub edr_computed: usize,
    /// Candidates eliminated by a histogram lower bound.
    pub pruned_by_histogram: usize,
    /// Candidates eliminated by the q-gram count filter.
    pub pruned_by_qgram: usize,
    /// Candidates eliminated by the near triangle inequality.
    pub pruned_by_triangle: usize,
    /// DP cells the EDR kernels materialized answering this query — the
    /// work the pruning saved shows up here as *missing* cells (cf. the
    /// kernel accounting in `trajsim-distance::kernel`). The bit-vector
    /// kernels count 64 lanes per word per DP row they process: the scan's
    /// full DP counts `64·⌈n/64⌉` per row (`n` the shorter side), an
    /// engine's refine `64·⌈(2·bound+1)/64⌉`, capped at the query's words
    /// (so an exact refine against a shorter candidate can count more
    /// than the full DP). A narrow bounded refine counts more lanes than
    /// the band cells a scalar DP would fill, while it takes less time.
    pub dp_cells: u64,
    /// Per-stage wall-time breakdown and per-filter candidate flow.
    pub timings: StageTimings,
}

impl QueryStats {
    /// Candidates eliminated by `stage`: its `pruned_by_*` counter.
    pub fn pruned_by(&self, stage: Stage) -> usize {
        match stage {
            Stage::Histogram => self.pruned_by_histogram,
            Stage::Qgram => self.pruned_by_qgram,
            Stage::Triangle => self.pruned_by_triangle,
        }
    }

    /// The `pruned_by_*` counter of `stage`, for updating.
    pub fn pruned_by_mut(&mut self, stage: Stage) -> &mut usize {
        match stage {
            Stage::Histogram => &mut self.pruned_by_histogram,
            Stage::Qgram => &mut self.pruned_by_qgram,
            Stage::Triangle => &mut self.pruned_by_triangle,
        }
    }

    /// Total candidates pruned (true distance never computed).
    pub fn pruned(&self) -> usize {
        debug_assert!(
            self.edr_computed <= self.database_size,
            "edr_computed ({}) exceeds database_size ({})",
            self.edr_computed,
            self.database_size
        );
        self.database_size.saturating_sub(self.edr_computed)
    }

    /// The paper's pruning power: `pruned / N` (0 for an empty database).
    pub fn pruning_power(&self) -> f64 {
        if self.database_size == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.database_size as f64
        }
    }

    /// Merges per-filter counters of another query into this one (for
    /// averaging over query workloads).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.database_size += other.database_size;
        self.edr_computed += other.edr_computed;
        for stage in Stage::ALL {
            *self.pruned_by_mut(stage) += other.pruned_by(stage);
        }
        self.dp_cells += other.dp_cells;
        self.timings.accumulate(&other.timings);
    }

    /// Adds a refine step's counters: EDR computations, DP cells and
    /// refine time.
    pub(crate) fn add_refine(&mut self, refine: &Refine) {
        self.edr_computed += refine.edr_computed;
        self.dp_cells += refine.dp_cells;
        self.timings.refine_ns += refine.refine_ns;
    }

    /// JSON object with every counter plus the stage breakdown under
    /// `"stages"` — the shared shape for `--metrics-out` and bench files.
    pub fn to_json(&self) -> Value {
        let mut entries = vec![
            ("database_size", self.database_size.into()),
            ("edr_computed", self.edr_computed.into()),
            ("pruned", self.pruned().into()),
        ];
        entries.extend(Stage::ALL.map(|s| (s.keys().pruned_by, self.pruned_by(s).into())));
        entries.extend([
            ("pruning_power", self.pruning_power().into()),
            ("dp_cells", self.dp_cells.into()),
            ("stages", self.timings.to_json()),
        ]);
        object(entries)
    }
}

/// Trace-record name of the flight-recorder event emitted by
/// `finalize_query` — one flat, non-span record per finished query,
/// carrying the full per-stage candidate flow and timing breakdown. The
/// `trajsim-profile` flight recorder filters on this name; chrome-trace
/// renders it as an instant event (it has no `elapsed_ns`), so it never
/// double-counts against the `knn.query` span.
pub const FLIGHT_EVENT: &str = "knn.flight";

/// Monotone per-process sequence number stamped on every flight record so
/// recordings preserve emission order even when engines run queries on
/// worker threads.
static FLIGHT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Elapsed nanoseconds since `start`, saturating into `u64` — the stage
/// stopwatch used by every engine.
#[inline]
pub(crate) fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The one query epilogue every engine path ends in: stamps the query's
/// total wall time from its start instant, writes each `pruned_by_*`
/// counter from its stage's flow, bumps the global metrics registry,
/// emits the `knn.query` / `knn.stage.*` debug records plus the flat
/// [`FLIGHT_EVENT`] record the flight recorder persists, and packages
/// the [`KnnResult`]. Metrics are relaxed atomics; with tracing off the
/// whole trace block costs one atomic load. Debug builds check the
/// funnel: every database id was dismissed by one stage or refined.
///
/// `query_len`, `k` and `neighbors` exist only for the flight record:
/// `neighbors` is serialized as a compact `"id:dist id:dist"` string so
/// `trajsim replay` can verify answer sets.
///
/// The stage records are span-shaped (they carry `elapsed_ns` from the
/// engine's own stage stopwatches) so profile exporters can render the
/// per-stage breakdown. They are emitted at query end, which makes their
/// reconstructed start times end-aligned approximations — fine for
/// selectivity/duration analysis, documented in `DESIGN.md` §9.
pub(crate) fn finalize_query(
    engine: &str,
    query_len: usize,
    k: usize,
    started: std::time::Instant,
    neighbors: Vec<Neighbor>,
    mut stats: QueryStats,
) -> KnnResult {
    stats.timings.total_ns = elapsed_ns(started);
    for stage in Stage::ALL {
        *stats.pruned_by_mut(stage) = stats.timings.stage(stage).pruned();
    }
    let dismissed: usize = Stage::ALL.map(|s| stats.pruned_by(s)).iter().sum();
    debug_assert_eq!(
        dismissed + stats.edr_computed,
        stats.database_size,
        "{engine}: the funnel lost or double-counted a candidate: {stats:?}"
    );
    let t = &stats.timings;
    let m = trajsim_obs::metrics::global();
    m.counter("knn.queries").inc();
    m.counter("knn.edr_computed").add(stats.edr_computed as u64);
    m.counter("knn.pruned").add(stats.pruned() as u64);
    m.counter("knn.dp_cells").add(stats.dp_cells);
    m.histogram("knn.query_ns").record(t.total_ns);
    m.histogram("knn.refine_ns").record(t.refine_ns);
    // Per-stage time counters, always on (relaxed adds): these are what
    // the live endpoint's dominant-stage rollups (`trajsim watch`) read.
    // The Debug-gated span records below carry the same numbers per
    // query; the counters carry them cumulatively even with tracing off.
    m.counter("knn.stage.setup_ns").add(t.setup_ns);
    for stage in Stage::ALL {
        m.counter(stage.keys().counter)
            .add(t.stage(stage).filter_ns);
    }
    m.counter("knn.stage.refine_ns").add(t.refine_ns);
    if trajsim_obs::enabled(trajsim_obs::Level::Debug) {
        if t.setup_ns > 0 {
            trajsim_obs::emit_span(
                trajsim_obs::Level::Debug,
                "knn.stage.setup",
                t.setup_ns,
                &[],
            );
        }
        for stage in Stage::ALL {
            let s = t.stage(stage);
            if s.ran() {
                trajsim_obs::emit_span(
                    trajsim_obs::Level::Debug,
                    &format!("knn.stage.{}", stage.name()),
                    s.filter_ns,
                    &[
                        ("candidates_in", s.candidates_in.into()),
                        ("candidates_out", s.candidates_out.into()),
                        ("pruned", s.pruned().into()),
                    ],
                );
            }
        }
        if t.refine_ns > 0 {
            trajsim_obs::emit_span(
                trajsim_obs::Level::Debug,
                "knn.stage.refine",
                t.refine_ns,
                &[("edr_computed", stats.edr_computed.into())],
            );
        }
        trajsim_obs::emit_span(
            trajsim_obs::Level::Debug,
            "knn.query",
            t.total_ns,
            &[
                ("engine", engine.into()),
                ("database_size", stats.database_size.into()),
                ("edr_computed", stats.edr_computed.into()),
                ("pruned", stats.pruned().into()),
                ("dp_cells", stats.dp_cells.into()),
                ("total_ns", t.total_ns.into()),
                ("refine_ns", t.refine_ns.into()),
            ],
        );
        // The flight record: everything the recorder persists, flat, in
        // one event. Emitted as a non-span record (no elapsed_ns) so the
        // chrome-trace exporter draws it as an instant marker.
        let seq = FLIGHT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut answer = String::with_capacity(neighbors.len() * 8);
        for n in &neighbors {
            if !answer.is_empty() {
                answer.push(' ');
            }
            answer.push_str(&format!("{}:{}", n.id, n.dist));
        }
        let mut fields: Vec<(&'static str, trajsim_obs::FieldValue)> = vec![
            ("engine", engine.into()),
            ("seq", seq.into()),
            ("query_len", query_len.into()),
            ("k", k.into()),
            ("database_size", stats.database_size.into()),
            ("edr_computed", stats.edr_computed.into()),
            ("pruned", stats.pruned().into()),
            ("dp_cells", stats.dp_cells.into()),
            ("setup_ns", t.setup_ns.into()),
        ];
        for stage in Stage::ALL {
            let (s, keys) = (t.stage(stage), stage.keys());
            fields.extend([
                (keys.candidates_in, s.candidates_in.into()),
                (keys.candidates_out, s.candidates_out.into()),
                (keys.filter_ns, s.filter_ns.into()),
                (keys.pruned, s.pruned().into()),
            ]);
        }
        fields.extend([
            ("refine_ns", t.refine_ns.into()),
            ("total_ns", t.total_ns.into()),
            (
                "scratch_reuses",
                m.counter("refine.scratch_reuses").get().into(),
            ),
            ("neighbors", answer.into()),
        ]);
        trajsim_obs::emit(trajsim_obs::Level::Debug, FLIGHT_EVENT, &fields);
    }
    KnnResult { neighbors, stats }
}

/// The result of a k-NN query: up to `k` neighbours in ascending distance
/// order (ties by database id), plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnResult {
    /// The neighbours, nearest first.
    pub neighbors: Vec<Neighbor>,
    /// How the query was answered.
    pub stats: QueryStats,
}

impl KnnResult {
    /// The distances only, in ascending order — what engines are compared
    /// on (ids can legitimately differ under distance ties).
    pub fn distances(&self) -> Vec<usize> {
        self.neighbors.iter().map(|n| n.dist).collect()
    }
}

/// A k-NN retrieval engine over a fixed database.
pub trait KnnEngine<const D: usize> {
    /// The `k` nearest database trajectories to `query` under EDR, with no
    /// false dismissals.
    fn knn(&self, query: &Trajectory<D>, k: usize) -> KnnResult;

    /// Short name for experiment tables (e.g. "PS2", "2HE-HSR").
    fn name(&self) -> String;

    /// Answers a batch of queries, returning results in query order:
    /// one task per query in parallel (dynamic chunking; thread count per
    /// `trajsim-parallel`), so each answer, its ids and its per-query
    /// counters are exactly those of [`Self::knn`]. Every engine uses
    /// it. Engines answer through `&self`, so one instance serves every
    /// worker thread; a parallel call inside `knn` runs serially on a
    /// worker.
    fn knn_batch(&self, queries: &[Trajectory<D>], k: usize) -> Vec<KnnResult>
    where
        Self: Sync,
    {
        trajsim_parallel::par_map(queries, |_, q| self.knn(q, k))
    }
}

/// Maintains the best `k` (id, dist) pairs seen so far, sorted ascending
/// by (dist, insertion order) — the `result` array of the paper's
/// pseudocode — or, in the radius form, every pair below `limit` =
/// radius + 1 (`usize::MAX` in the k-NN form), sorted by (dist, id) once
/// at the end.
#[derive(Debug, Clone)]
pub(crate) struct ResultSet {
    /// `usize::MAX` in the radius form only.
    k: usize,
    limit: usize,
    entries: Vec<Neighbor>,
}

impl ResultSet {
    /// `k` is capped below the radius form's `usize::MAX`, which no set
    /// can reach; the entries grow with the hits, not with `k`.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        ResultSet {
            k: k.min(usize::MAX - 1),
            limit: usize::MAX,
            entries: Vec::new(),
        }
    }

    pub(crate) fn within(radius: usize) -> Self {
        ResultSet {
            k: usize::MAX,
            limit: radius.saturating_add(1),
            entries: Vec::new(),
        }
    }

    /// The admission cutoff: the current k-th distance (the paper's
    /// `bestSoFar`), or the limit while fewer than `k` candidates have
    /// been admitted — `usize::MAX` in the k-NN form, and always in the
    /// radius form. It is strict: [`Self::offer`] is stable, so a
    /// candidate enters only if its distance is *below* the cutoff, and
    /// one whose lower bound reaches it can be dismissed.
    pub(crate) fn cutoff(&self) -> usize {
        if self.entries.len() < self.k {
            self.limit
        } else {
            self.entries[self.k - 1].dist
        }
    }

    /// The refine bound that keeps exactly the distances that can still
    /// enter: `cutoff − 1`, saturating at 0 (the O(m) pointwise check),
    /// or `usize::MAX` — the exact refine — while the set is not full.
    pub(crate) fn admission_bound(&self) -> usize {
        match self.cutoff() {
            usize::MAX => usize::MAX,
            cutoff => cutoff.saturating_sub(1),
        }
    }

    /// Offers a candidate; keeps it if it is below the limit or improves
    /// the k-NN set. Insertion is stable: among equal distances,
    /// earlier-offered candidates rank first (matching the paper's
    /// sorted-array update).
    pub(crate) fn offer(&mut self, id: usize, dist: usize) {
        if self.k == usize::MAX {
            if dist < self.limit {
                self.entries.push(Neighbor { id, dist });
            }
            return;
        }
        let pos = self.entries.partition_point(|n| n.dist <= dist);
        if pos >= self.k {
            return;
        }
        self.entries.insert(pos, Neighbor { id, dist });
        self.entries.truncate(self.k);
    }

    pub(crate) fn into_neighbors(mut self) -> Vec<Neighbor> {
        if self.k == usize::MAX {
            self.entries.sort_unstable_by_key(|n| (n.dist, n.id));
        }
        self.entries
    }
}

/// The refine step every k-NN engine runs on a candidate that survived
/// its filters, plus the work it did: true-distance computations, the DP
/// cells they filled and, for a timed step, their wall time. Engines fold
/// the counters into [`QueryStats`] with [`QueryStats::add_refine`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Refine {
    timed: bool,
    kernel: Kernel,
    pub(crate) edr_computed: usize,
    pub(crate) dp_cells: u64,
    pub(crate) refine_ns: u64,
}

/// The DP a [`Refine`] runs, fixed when the step is built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Kernel {
    /// [`QueryContext::edr_within_counted`] under the step's bound: the
    /// rank-mask band kernel, exact under `usize::MAX`.
    #[default]
    Band,
    /// [`QueryContext::edr_counted`], the compare-built full DP, whatever
    /// the bound: the plain `SequentialScan` alone, whose time is the
    /// denominator of every speed-up the benchmarks report.
    FullDp,
}

impl Refine {
    /// The pruning engines' step: every refine on the band kernel, timed
    /// one by one (the engines interleave filters with refines).
    pub(crate) fn timed() -> Self {
        Refine {
            timed: true,
            ..Refine::default()
        }
    }

    /// The sequential scan's step: the compare-built full DP for the
    /// plain scan, the band kernel under the running bound with early
    /// abandoning. It leaves `refine_ns` at zero: the scans, whose whole
    /// loop is refinement, time the loop instead (two clock reads per
    /// query rather than per candidate).
    pub(crate) fn scan(early_abandon: bool) -> Self {
        Refine {
            kernel: if early_abandon {
                Kernel::Band
            } else {
                Kernel::FullDp
            },
            ..Refine::default()
        }
    }

    /// Computes `EDR(query, candidate)` under `bound` and offers it to
    /// `result`, returning the distance if the DP produced one.
    ///
    /// On the band kernel, `bound == usize::MAX` never abandons and gives
    /// the exact distance: pass it while the top-k is not yet full, and
    /// whenever the caller needs the exact distance (an id joining a
    /// triangle/CSE reference pool). Any other bound returns every
    /// `d <= bound` exactly and `None` above it. The pruning engines pass
    /// [`ResultSet::admission_bound`], `cutoff − 1`: once the set is full,
    /// [`ResultSet::offer`] is stable and drops every `d >= cutoff`, so
    /// each offer that can change the answer is the same as the full
    /// DP's, and a bound of 0 is the O(m) pointwise check. The
    /// early-abandoning scan passes the cutoff itself (see
    /// `SequentialScan`). A [`Refine::scan`] step of the plain scan runs
    /// the full DP and ignores the bound. Either way the call counts as
    /// one true-distance computation.
    #[inline]
    pub(crate) fn step<const D: usize, S: CoordSeq<D>>(
        &mut self,
        ctx: &QueryContext<D>,
        id: usize,
        candidate: S,
        bound: usize,
        result: &mut ResultSet,
        ws: &mut EdrWorkspace,
    ) -> Option<usize> {
        let started = self.timed.then(Instant::now);
        let (d, cells) = match self.kernel {
            Kernel::FullDp => {
                let (d, cells) = ctx.edr_counted(candidate, ws);
                (Some(d), cells)
            }
            Kernel::Band => ctx.edr_within_counted(candidate, bound, ws),
        };
        if let Some(t) = started {
            self.refine_ns += elapsed_ns(t);
        }
        self.dp_cells += cells;
        self.edr_computed += 1;
        if let Some(d) = d {
            result.offer(id, d);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_set_keeps_k_smallest_stably() {
        let mut rs = ResultSet::new(3);
        assert_eq!(rs.cutoff(), usize::MAX);
        assert_eq!(rs.admission_bound(), usize::MAX);
        rs.offer(0, 5);
        rs.offer(1, 2);
        rs.offer(2, 5);
        assert_eq!(rs.cutoff(), 5);
        assert_eq!(rs.admission_bound(), 4);
        rs.offer(3, 1);
        // The later 5 (id 2) is evicted; the earlier 5 (id 0) stays.
        assert_eq!(
            rs.into_neighbors(),
            vec![
                Neighbor { id: 3, dist: 1 },
                Neighbor { id: 1, dist: 2 },
                Neighbor { id: 0, dist: 5 },
            ]
        );
    }

    #[test]
    fn ordering_is_by_distance_then_insertion() {
        let mut rs = ResultSet::new(4);
        rs.offer(10, 3);
        rs.offer(11, 1);
        rs.offer(12, 3);
        rs.offer(13, 2);
        let n = rs.into_neighbors();
        let dists: Vec<usize> = n.iter().map(|x| x.dist).collect();
        assert_eq!(dists, vec![1, 2, 3, 3]);
        assert_eq!(n[2].id, 10); // first 3 offered wins the tie
        assert_eq!(n[3].id, 12);
    }

    #[test]
    fn worse_candidates_are_rejected_once_full() {
        let mut rs = ResultSet::new(2);
        rs.offer(0, 1);
        rs.offer(1, 2);
        rs.offer(2, 3); // strictly worse
        rs.offer(3, 2); // ties the kth: rejected (stable)
        let n = rs.into_neighbors();
        assert_eq!(n.len(), 2);
        assert_eq!(n[1], Neighbor { id: 1, dist: 2 });
    }

    #[test]
    fn a_zero_cutoff_admits_nothing_more() {
        let mut rs = ResultSet::new(2);
        rs.offer(0, 0);
        rs.offer(1, 0);
        assert_eq!((rs.cutoff(), rs.admission_bound()), (0, 0));
        rs.offer(2, 0); // a third exact copy ties the cutoff: rejected
        let ids: Vec<usize> = rs.into_neighbors().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn the_radius_form_keeps_every_hit_below_its_limit() {
        let mut rs = ResultSet::within(3);
        assert_eq!((rs.cutoff(), rs.admission_bound()), (4, 3));
        for (id, dist) in [(7, 3), (2, 4), (5, 0), (1, 3), (9, 12), (4, 0)] {
            rs.offer(id, dist);
        }
        // The limit never tightens, and hits come back by (dist, id).
        assert_eq!(rs.cutoff(), 4);
        let got: Vec<(usize, usize)> = rs.into_neighbors().iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(got, vec![(4, 0), (5, 0), (1, 3), (7, 3)]);
        // Radius 0 is the pointwise check; a radius at usize::MAX
        // saturates to no limit at all, so every offer is kept.
        assert_eq!(ResultSet::within(0).admission_bound(), 0);
        let mut all = ResultSet::within(usize::MAX);
        assert_eq!(all.admission_bound(), usize::MAX);
        all.offer(0, usize::MAX - 1);
        assert_eq!(all.into_neighbors().len(), 1);
    }

    #[test]
    fn a_k_of_usize_max_stays_in_the_k_nn_form() {
        // Ties keep their offer order, which the radius form's (dist, id)
        // sort would not.
        let mut rs = ResultSet::new(usize::MAX);
        for (id, dist) in [(7, 3), (2, 3), (5, 0)] {
            rs.offer(id, dist);
        }
        let ids: Vec<usize> = rs.into_neighbors().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![5, 7, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let _ = ResultSet::new(0);
    }

    #[test]
    fn stats_pruning_power() {
        let s = QueryStats {
            database_size: 100,
            edr_computed: 25,
            ..Default::default()
        };
        assert_eq!(s.pruned(), 75);
        assert!((s.pruning_power() - 0.75).abs() < 1e-12);
        assert_eq!(QueryStats::default().pruning_power(), 0.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = QueryStats {
            database_size: 10,
            edr_computed: 4,
            pruned_by_histogram: 3,
            pruned_by_qgram: 2,
            pruned_by_triangle: 1,
            dp_cells: 640,
            ..Default::default()
        };
        a.accumulate(&a.clone());
        assert_eq!(a.database_size, 20);
        assert_eq!(a.edr_computed, 8);
        assert_eq!(a.pruned_by_histogram, 6);
        assert_eq!(a.dp_cells, 1280);
    }

    #[test]
    fn stage_timings_accumulate_adds_every_field() {
        let one = StageTimings {
            setup_ns: 10,
            histogram: StageStats {
                candidates_in: 100,
                candidates_out: 40,
                filter_ns: 7,
            },
            qgram: StageStats {
                candidates_in: 40,
                candidates_out: 25,
                filter_ns: 5,
            },
            triangle: StageStats {
                candidates_in: 25,
                candidates_out: 20,
                filter_ns: 3,
            },
            refine_ns: 50,
            total_ns: 90,
            ..Default::default()
        };
        let mut acc = StageTimings::default();
        acc.accumulate(&one);
        acc.accumulate(&one);
        assert_eq!(acc.setup_ns, 20);
        assert_eq!(acc.histogram.candidates_in, 200);
        assert_eq!(acc.histogram.candidates_out, 80);
        assert_eq!(acc.histogram.pruned(), 120);
        assert_eq!(acc.qgram.filter_ns, 10);
        assert_eq!(acc.triangle.candidates_out, 40);
        assert_eq!(acc.refine_ns, 100);
        assert_eq!(acc.total_ns, 180);
        // Unattributed remainder: 180 − (20 + 14 + 10 + 6 + 100).
        assert_eq!(acc.other_ns(), 30);
    }

    /// A raw single-query timings value (engines fill only the sums).
    fn raw_query(total: u64, refine: u64) -> StageTimings {
        StageTimings {
            refine_ns: refine,
            total_ns: total,
            ..Default::default()
        }
    }

    #[test]
    fn accumulate_tracks_per_batch_extremes() {
        let mut acc = StageTimings::default();
        for (t, r) in [(90, 50), (10, 4), (200, 120)] {
            acc.accumulate(&raw_query(t, r));
        }
        assert_eq!(acc.total_ns, 300);
        assert_eq!(acc.total_range(), (10, 200));
        assert_eq!(acc.refine_range(), (4, 120));
    }

    #[test]
    fn extremes_fold_is_associative() {
        // Any grouping of the same queries yields the same extremes:
        // ((a+b)+c) vs (a+(b+c)) vs one flat fold.
        let qs = [raw_query(90, 50), raw_query(10, 4), raw_query(200, 120)];
        let mut flat = StageTimings::default();
        for q in &qs {
            flat.accumulate(q);
        }
        let mut left = StageTimings::default();
        left.accumulate(&qs[0]);
        left.accumulate(&qs[1]);
        let mut grouped_left = StageTimings::default();
        grouped_left.accumulate(&left);
        grouped_left.accumulate(&qs[2]);
        let mut right = StageTimings::default();
        right.accumulate(&qs[1]);
        right.accumulate(&qs[2]);
        let mut grouped_right = qs[0];
        grouped_right.accumulate(&right);
        for (label, got) in [("left", grouped_left), ("right", grouped_right)] {
            assert_eq!(got.total_range(), flat.total_range(), "{label} grouping");
            assert_eq!(got.refine_range(), flat.refine_range(), "{label} grouping");
            assert_eq!(got.total_ns, flat.total_ns, "{label} grouping");
        }
    }

    #[test]
    fn single_query_range_is_its_own_total() {
        let one = raw_query(42, 17);
        assert_eq!(one.total_range(), (42, 42));
        assert_eq!(one.refine_range(), (17, 17));
        let v = one.to_json();
        assert_eq!(v.get("min_total_ns").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("max_total_ns").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("min_refine_ns").and_then(Value::as_u64), Some(17));
        assert_eq!(v.get("max_refine_ns").and_then(Value::as_u64), Some(17));
    }

    #[test]
    fn stage_timings_survive_stats_accumulate() {
        let mut a = QueryStats {
            database_size: 10,
            edr_computed: 4,
            ..Default::default()
        };
        a.timings.refine_ns = 11;
        a.timings.total_ns = 13;
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.timings.refine_ns, 22);
        assert_eq!(a.timings.total_ns, 26);
    }

    #[test]
    fn pruned_saturates_instead_of_wrapping() {
        // Release builds must degrade gracefully on inconsistent counters
        // (debug builds assert).
        let s = QueryStats {
            database_size: 3,
            edr_computed: 5,
            ..Default::default()
        };
        if cfg!(debug_assertions) {
            assert!(std::panic::catch_unwind(|| s.pruned()).is_err());
        } else {
            assert_eq!(s.pruned(), 0);
        }
    }

    #[test]
    fn stats_json_has_the_stage_keys() {
        let mut s = QueryStats {
            database_size: 8,
            edr_computed: 2,
            ..Default::default()
        };
        s.timings.setup_ns = 5;
        s.timings.qgram = StageStats {
            candidates_in: 8,
            candidates_out: 2,
            filter_ns: 3,
        };
        let v = s.to_json();
        assert_eq!(v.get("pruned").and_then(Value::as_u64), Some(6));
        let stages = v.get("stages").expect("stages key");
        assert_eq!(stages.get("setup_ns").and_then(Value::as_u64), Some(5));
        let qgram = stages.get("qgram").expect("qgram stage");
        assert_eq!(qgram.get("candidates_in").and_then(Value::as_u64), Some(8));
        assert_eq!(qgram.get("candidates_out").and_then(Value::as_u64), Some(2));
        // The serialized form round-trips through the parser.
        let text = serde_json::to_string(&v).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(
            back.get("stages")
                .and_then(|s| s.get("qgram"))
                .and_then(|q| q.get("filter_ns"))
                .and_then(Value::as_u64),
            Some(3)
        );
    }
}
