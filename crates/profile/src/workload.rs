//! The persisted workload stats store: aggregates flight recordings
//! into per-filter selectivity and latency distributions that survive
//! the process — the input the ROADMAP's cost-based adaptive planner
//! consumes. Backed by the same bucket layout and quantile estimator as
//! the live `trajsim-obs` histograms, so `trajsim stats show` and
//! `--metrics-out` report identical percentiles for identical counts.
//!
//! Version 2 stores each stage's flow under the one accounting rule of
//! recording version 2 (`candidates_in − candidates_out` is the stage's
//! prune credit); a version-1 store is upgraded on read with
//! `candidates_in = candidates_out + pruned`, as recordings are.

use crate::recorder::{FlightRecord, Recording};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use trajsim_obs::metrics::quantile_from_buckets;
use trajsim_obs::DEFAULT_LATENCY_BOUNDS_NS;
use trajsim_prune::{Stage, StageStats, StageTimings};

/// The `format` field of a stats store file.
pub const STATS_FORMAT: &str = "trajsim-workload-stats";

/// The stats store format version this build reads and writes.
pub const STATS_VERSION: u64 = 2;

/// A mergeable latency distribution: bucket counts over the standard
/// latency bounds plus exact min/max/sum, so merged stores report true
/// extremes and means alongside estimated percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyDist {
    /// Upper-inclusive bucket bounds, ns (the live histogram layout).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one extra overflow bucket at the end.
    pub counts: Vec<u64>,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values, ns.
    pub sum_ns: u64,
    /// Smallest recorded value, ns (0 when empty).
    pub min_ns: u64,
    /// Largest recorded value, ns.
    pub max_ns: u64,
}

impl Default for LatencyDist {
    fn default() -> Self {
        LatencyDist {
            bounds: DEFAULT_LATENCY_BOUNDS_NS.to_vec(),
            counts: vec![0; DEFAULT_LATENCY_BOUNDS_NS.len() + 1],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyDist {
    /// Records one observation standing in for `weight` population
    /// values (tail-sampled recordings): the bucket count, total count,
    /// and sum scale by the weight; min/max stay exact observations.
    fn record_weighted(&mut self, ns: u64, weight: u64) {
        // Same bracket as `Histogram::bucket_index`: bucket i counts
        // v <= bounds[i]; the trailing bucket is the overflow.
        let idx = self.bounds.partition_point(|&b| b < ns);
        self.counts[idx] += weight;
        self.sum_ns += ns * weight;
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
        self.count += weight;
    }

    fn merge(&mut self, other: &LatencyDist) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err("latency bucket layouts differ between inputs".into());
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if other.count > 0 {
            self.min_ns = if self.count == 0 {
                other.min_ns
            } else {
                self.min_ns.min(other.min_ns)
            };
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        Ok(())
    }

    /// Estimated `q`-quantile, ns — the shared estimator of
    /// [`trajsim_obs::metrics::quantile_from_buckets`].
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.bounds, &self.counts, q)
    }

    /// Mean recorded value, ns (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    fn to_json(&self) -> Value {
        json!({
            "bounds": self.bounds.clone(),
            "counts": self.counts.clone(),
            "count": self.count,
            "sum_ns": self.sum_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        })
    }

    fn from_json(v: &Value, what: &str) -> Result<Self, String> {
        let vec_u64 = |key: &str| -> Result<Vec<u64>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{what}: missing {key} array"))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("{what}: non-integer in {key}"))
                })
                .collect()
        };
        let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let bounds = vec_u64("bounds")?;
        let counts = vec_u64("counts")?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!("{what}: counts/bounds length mismatch"));
        }
        Ok(LatencyDist {
            bounds,
            counts,
            count: u("count"),
            sum_ns: u("sum_ns"),
            min_ns: u("min_ns"),
            max_ns: u("max_ns"),
        })
    }
}

/// A stage's flow as a stats-store JSON object.
fn stage_json(s: &StageStats) -> Value {
    json!({
        "candidates_in": s.candidates_in,
        "candidates_out": s.candidates_out,
        "pruned": s.pruned(),
        "filter_ns": s.filter_ns,
        "selectivity": s.selectivity(),
    })
}

/// Parses [`stage_json`]'s object from a store of format `version`.
fn stage_from_json(v: &Value, version: u64) -> StageStats {
    let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0) as usize;
    StageStats {
        candidates_in: if version < 2 {
            u("candidates_out").saturating_add(u("pruned"))
        } else {
            u("candidates_in")
        },
        candidates_out: u("candidates_out"),
        filter_ns: u("filter_ns") as u64,
    }
}

/// The on-disk cross-run stats store: everything `trajsim stats
/// merge/show/diff` persists about one or more recorded workloads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadStats {
    /// Recordings merged into this store.
    pub runs: u64,
    /// Queries aggregated — the *weighted* (full-population) estimate:
    /// each flight record contributes its sampling weight. Equals
    /// `recorded_queries` for unsampled recordings.
    pub queries: u64,
    /// Flight records actually read (one per persisted line).
    pub recorded_queries: u64,
    /// Queries answered by a shared-scan batch traversal (weighted).
    pub batched_queries: u64,
    /// Query count per engine name.
    pub engines: BTreeMap<String, u64>,
    /// Database size summed over queries.
    pub database_size: u64,
    /// True EDR computations performed.
    pub edr_computed: u64,
    /// Candidates whose true distance was never computed.
    pub pruned: u64,
    /// DP cells materialized.
    pub dp_cells: u64,
    /// Query-side setup time summed over queries, ns (weighted) — one
    /// input to the per-stage time-share attribution.
    pub setup_ns: u64,
    /// Each [`Stage`]'s candidate flow and wall time, summed over
    /// queries, indexed by `Stage as usize`.
    pub stages: [StageStats; Stage::ALL.len()],
    /// Distribution of per-query end-to-end wall time.
    pub total_latency: LatencyDist,
    /// Distribution of per-query refine time.
    pub refine_latency: LatencyDist,
}

impl WorkloadStats {
    /// Aggregates one recording into a fresh store.
    pub fn from_recording(rec: &Recording) -> Self {
        let mut w = WorkloadStats {
            runs: 1,
            ..Default::default()
        };
        for r in &rec.records {
            w.add_record(r);
        }
        w
    }

    /// Folds one flight record in. A uniform keep carrying [`Absorbed`]
    /// sums contributes its own counters plus the *exact* sums of the
    /// drops it closed over, so flow totals match the full population
    /// (up to the unclosed trailing run, < `every` queries). A weighted
    /// record without absorbed sums (tail keeps are weight 1; older
    /// sampled recordings) falls back to scaling by its weight — as if
    /// `weight` identical queries had been recorded. Latency
    /// *distributions* always reweight by run length: drops' individual
    /// latencies are gone, only their sum survives.
    fn add_record(&mut self, r: &FlightRecord) {
        let w = r.weight.max(1);
        let absorbed = r.absorbed.as_ref();
        let flow = |own: u64, key: &str| match absorbed {
            Some(a) => own + a.sums.get(key).copied().unwrap_or(0),
            None => w * own,
        };
        self.queries += w;
        self.recorded_queries += 1;
        self.batched_queries += match absorbed {
            Some(a) => u64::from(r.batch.is_some()) + a.batched,
            None if r.batch.is_some() => w,
            None => 0,
        };
        *self.engines.entry(r.engine.clone()).or_insert(0) += w;
        self.database_size += flow(r.database_size, "database_size");
        self.edr_computed += flow(r.edr_computed, "edr_computed");
        self.pruned += flow(r.pruned, "pruned");
        self.dp_cells += flow(r.dp_cells, "dp_cells");
        let t = &r.timings;
        self.setup_ns += flow(t.setup_ns, "setup_ns");
        for stage in Stage::ALL {
            let (keys, own) = (stage.keys(), t.stage(stage));
            let s = &mut self.stages[stage as usize];
            s.candidates_in += flow(own.candidates_in as u64, keys.candidates_in) as usize;
            s.candidates_out += flow(own.candidates_out as u64, keys.candidates_out) as usize;
            s.filter_ns += flow(own.filter_ns, keys.filter_ns);
        }
        self.total_latency.record_weighted(t.total_ns, w);
        self.refine_latency.record_weighted(t.refine_ns, w);
    }

    /// Merges another store into this one (the `stats merge` operation).
    pub fn merge(&mut self, other: &WorkloadStats) -> Result<(), String> {
        self.runs += other.runs;
        self.queries += other.queries;
        self.recorded_queries += other.recorded_queries;
        self.batched_queries += other.batched_queries;
        for (engine, n) in &other.engines {
            *self.engines.entry(engine.clone()).or_insert(0) += n;
        }
        self.database_size += other.database_size;
        self.edr_computed += other.edr_computed;
        self.pruned += other.pruned;
        self.dp_cells += other.dp_cells;
        self.setup_ns += other.setup_ns;
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.accumulate(theirs);
        }
        self.total_latency.merge(&other.total_latency)?;
        self.refine_latency.merge(&other.refine_latency)?;
        Ok(())
    }

    /// The paper's pruning power over the whole aggregated workload.
    pub fn pruning_power(&self) -> f64 {
        if self.database_size == 0 {
            0.0
        } else {
            self.pruned as f64 / self.database_size as f64
        }
    }

    /// The store as a versioned JSON document (the on-disk format).
    pub fn to_json(&self) -> Value {
        let mut engines = serde_json::Map::new();
        for (k, v) in &self.engines {
            engines.insert(k.clone(), Value::from(*v));
        }
        let mut stages = serde_json::Map::new();
        for stage in Stage::ALL {
            stages.insert(
                stage.name().to_string(),
                stage_json(&self.stages[stage as usize]),
            );
        }
        json!({
            "format": STATS_FORMAT,
            "version": STATS_VERSION,
            "runs": self.runs,
            "queries": self.queries,
            "recorded_queries": self.recorded_queries,
            "batched_queries": self.batched_queries,
            "engines": Value::Object(engines),
            "database_size": self.database_size,
            "edr_computed": self.edr_computed,
            "pruned": self.pruned,
            "pruning_power": self.pruning_power(),
            "dp_cells": self.dp_cells,
            "setup_ns": self.setup_ns,
            "stages": Value::Object(stages),
            "total_latency": self.total_latency.to_json(),
            "refine_latency": self.refine_latency.to_json(),
        })
    }

    /// Parses a store document written by [`Self::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        match v.get("format").and_then(Value::as_str) {
            Some(STATS_FORMAT) => {}
            Some(other) => return Err(format!("not a workload stats store (format {other:?})")),
            None => return Err("not a workload stats store (no format field)".into()),
        }
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("stats store has no version field")?;
        if version > STATS_VERSION {
            return Err(format!(
                "stats store version {version} is newer than this build understands ({STATS_VERSION})"
            ));
        }
        let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let mut engines = BTreeMap::new();
        if let Some(obj) = v.get("engines").and_then(Value::as_object) {
            for (k, n) in obj.iter() {
                engines.insert(k.clone(), n.as_u64().unwrap_or(0));
            }
        }
        let stages = Stage::ALL.map(|stage| {
            v.get("stages")
                .and_then(|s| s.get(stage.name()))
                .map_or_else(StageStats::default, |s| stage_from_json(s, version))
        });
        Ok(WorkloadStats {
            runs: u("runs"),
            queries: u("queries"),
            // Stores written before sampling existed have no
            // recorded_queries key; there every query was recorded.
            recorded_queries: v
                .get("recorded_queries")
                .and_then(Value::as_u64)
                .unwrap_or_else(|| u("queries")),
            batched_queries: u("batched_queries"),
            engines,
            database_size: u("database_size"),
            edr_computed: u("edr_computed"),
            pruned: u("pruned"),
            dp_cells: u("dp_cells"),
            setup_ns: u("setup_ns"),
            stages,
            total_latency: LatencyDist::from_json(
                v.get("total_latency").ok_or("missing total_latency")?,
                "total_latency",
            )?,
            refine_latency: LatencyDist::from_json(
                v.get("refine_latency").ok_or("missing refine_latency")?,
                "refine_latency",
            )?,
        })
    }

    /// The aggregate's timed parts and stage flows as a [`StageTimings`]:
    /// setup, stage and refine sums, with the total latency sum as
    /// `total_ns`. Its [`StageTimings::shares`] are ratios of weighted
    /// sums, so a tail-sampled store attributes time like its
    /// full-population counterpart.
    pub fn timings(&self) -> StageTimings {
        let mut t = StageTimings {
            setup_ns: self.setup_ns,
            refine_ns: self.refine_latency.sum_ns,
            total_ns: self.total_latency.sum_ns,
            ..StageTimings::default()
        };
        for stage in Stage::ALL {
            *t.stage_mut(stage) = self.stages[stage as usize];
        }
        t
    }

    /// Renders the human-readable `stats show` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.recorded_queries == self.queries {
            out.push_str(&format!(
                "workload stats  runs={}  queries={} ({} batched)\n",
                self.runs, self.queries, self.batched_queries
            ));
        } else {
            // Tail-sampled input: the totals are reweighted estimates.
            out.push_str(&format!(
                "workload stats  runs={}  queries=~{} (reweighted from {} sampled records, {} batched)\n",
                self.runs, self.queries, self.recorded_queries, self.batched_queries
            ));
        }
        if self.queries == 0 {
            // A header-only recording: nothing to aggregate, and none of
            // the ratio lines below would be meaningful.
            out.push_str("  (no queries recorded)\n");
            return out;
        }
        for (engine, n) in &self.engines {
            out.push_str(&format!("  engine {engine}: {n} queries\n"));
        }
        out.push_str(&format!(
            "  pruning power: {:.4}  ({} of {} EDR calls saved, {} DP cells)\n",
            self.pruning_power(),
            self.pruned,
            self.database_size,
            self.dp_cells
        ));
        let active: Vec<(&str, &StageStats)> = Stage::ALL
            .into_iter()
            .map(|stage| (stage.name(), &self.stages[stage as usize]))
            .filter(|(_, s)| s.ran())
            .collect();
        if !active.is_empty() {
            out.push_str(&format!(
                "  {:<10} {:>12} {:>12} {:>12} {:>12}\n",
                "stage", "cand_in", "cand_out", "pruned", "selectivity"
            ));
            for (name, s) in active {
                out.push_str(&format!(
                    "  {:<10} {:>12} {:>12} {:>12} {:>11.1}%\n",
                    name,
                    s.candidates_in,
                    s.candidates_out,
                    s.pruned(),
                    s.selectivity() * 100.0
                ));
            }
        }
        for (label, d) in [
            ("query", &self.total_latency),
            ("refine", &self.refine_latency),
        ] {
            out.push_str(&format!(
                "  {label} latency: mean {:.0}ns  p50 {:.0}ns  p95 {:.0}ns  p99 {:.0}ns  (min {}ns, max {}ns)\n",
                d.mean(),
                d.quantile(0.50),
                d.quantile(0.95),
                d.quantile(0.99),
                d.min_ns,
                d.max_ns
            ));
        }
        out
    }
}

/// One compared quantity in a [`DiffReport`] row.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// What was compared (`pruning power`, `histogram selectivity`,
    /// `query p95`, ...).
    pub metric: String,
    /// The value in the first input.
    pub a: f64,
    /// The value in the second input.
    pub b: f64,
    /// Whether the difference exceeds the tolerance for this quantity.
    pub drifted: bool,
}

/// The `stats diff` verdict: per-metric comparison rows plus an overall
/// drift flag.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every compared quantity.
    pub rows: Vec<DiffRow>,
    /// Latency tolerance used (relative factor on percentiles).
    pub latency_tolerance: f64,
    /// Relative tolerance applied to workload-shape quantities (0 means
    /// exact up to float noise).
    pub shape_tolerance: f64,
}

impl DiffReport {
    /// Compares two stores with exact shape matching — see
    /// [`Self::compare_with`]; this is `compare_with(a, b, tol, 0.0)`.
    pub fn compare(a: &WorkloadStats, b: &WorkloadStats, latency_tolerance: f64) -> Self {
        Self::compare_with(a, b, latency_tolerance, 0.0)
    }

    /// Compares two stores. Workload-shape quantities (query counts,
    /// candidate flow, selectivity, pruning power) are compared with the
    /// relative `shape_tolerance` — 0 demands an effectively exact match
    /// (two full recordings of the same workload prune identically),
    /// while a few percent absorbs the reweighting variance of a
    /// tail-sampled recording against its full counterpart. Latency
    /// percentiles are compared with the relative `latency_tolerance`
    /// (e.g. `0.5` allows ±50%), since wall time is machine- and
    /// run-dependent.
    pub fn compare_with(
        a: &WorkloadStats,
        b: &WorkloadStats,
        latency_tolerance: f64,
        shape_tolerance: f64,
    ) -> Self {
        let mut rows = Vec::new();
        let shape_tol = shape_tolerance.max(1e-9);
        let mut exact = |metric: &str, x: f64, y: f64| {
            rows.push(DiffRow {
                metric: metric.to_string(),
                a: x,
                b: y,
                drifted: (x - y).abs() > shape_tol * x.abs().max(y.abs()).max(1.0),
            });
        };
        exact("queries", a.queries as f64, b.queries as f64);
        exact("edr_computed", a.edr_computed as f64, b.edr_computed as f64);
        exact("pruned", a.pruned as f64, b.pruned as f64);
        exact("pruning power", a.pruning_power(), b.pruning_power());
        for stage in Stage::ALL {
            let name = stage.name();
            let (sa, sb) = (a.stages[stage as usize], b.stages[stage as usize]);
            if !sa.ran() && !sb.ran() {
                continue;
            }
            exact(
                &format!("{name} cand_in"),
                sa.candidates_in as f64,
                sb.candidates_in as f64,
            );
            exact(
                &format!("{name} selectivity"),
                sa.selectivity(),
                sb.selectivity(),
            );
        }
        for (label, da, db) in [
            ("query", &a.total_latency, &b.total_latency),
            ("refine", &a.refine_latency, &b.refine_latency),
        ] {
            for q in [0.50, 0.95, 0.99] {
                let (x, y) = (da.quantile(q), db.quantile(q));
                let rel = if x.max(y) == 0.0 {
                    0.0
                } else {
                    (x - y).abs() / x.max(y)
                };
                rows.push(DiffRow {
                    metric: format!("{label} p{:.0}", q * 100.0),
                    a: x,
                    b: y,
                    drifted: rel > latency_tolerance,
                });
            }
        }
        DiffReport {
            rows,
            latency_tolerance,
            shape_tolerance,
        }
    }

    /// Whether any compared quantity exceeded its tolerance.
    pub fn drifted(&self) -> bool {
        self.rows.iter().any(|r| r.drifted)
    }

    /// Renders the human-readable diff table with a final verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>14} {:>14}  status\n",
            "metric", "a", "b"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>14.2} {:>14.2}  {}\n",
                r.metric,
                r.a,
                r.b,
                if r.drifted { "DRIFT" } else { "ok" }
            ));
        }
        if self.drifted() {
            out.push_str("verdict: SIGNIFICANT DRIFT\n");
        } else if self.shape_tolerance > 0.0 {
            out.push_str(&format!(
                "verdict: no significant drift (shape tolerance ±{:.0}%, latency tolerance ±{:.0}%)\n",
                self.shape_tolerance * 100.0,
                self.latency_tolerance * 100.0
            ));
        } else {
            out.push_str(&format!(
                "verdict: no significant drift (latency tolerance ±{:.0}%)\n",
                self.latency_tolerance * 100.0
            ));
        }
        out
    }
}

/// One stage's latency share in each of two workloads, for drift
/// attribution: which stage's slice of total latency moved the most.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Stage name (`setup`, `histogram`, `qgram`, `triangle`, `refine`,
    /// `other`).
    pub stage: &'static str,
    /// Share of total latency in workload `a` (0..=1).
    pub share_a: f64,
    /// Share of total latency in workload `b` (0..=1).
    pub share_b: f64,
}

impl AttributionRow {
    /// Signed share movement, `b` minus `a` (in share units, not points).
    pub fn delta(&self) -> f64 {
        self.share_b - self.share_a
    }
}

/// Localizes a latency regression to a pipeline stage by comparing the
/// per-stage time shares of two workloads: the stage whose share of
/// total latency moved the most is the prime suspect. Shares (rather
/// than absolute times) cancel machine-speed differences between the
/// two runs, so the attribution survives comparing recordings from
/// different hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// All stages, sorted by absolute share movement, largest first.
    pub rows: Vec<AttributionRow>,
}

impl Attribution {
    /// Compares the per-stage time shares of `a` and `b`.
    pub fn compare(a: &WorkloadStats, b: &WorkloadStats) -> Self {
        let (sa, sb) = (a.timings().shares(), b.timings().shares());
        let mut rows: Vec<AttributionRow> = sa
            .iter()
            .zip(sb.iter())
            .map(|(&(stage, share_a), &(_, share_b))| AttributionRow {
                stage,
                share_a,
                share_b,
            })
            .collect();
        rows.sort_by(|x, y| {
            y.delta()
                .abs()
                .partial_cmp(&x.delta().abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Attribution { rows }
    }

    /// The stage whose time share moved the most.
    pub fn culprit(&self) -> &AttributionRow {
        &self.rows[0]
    }

    /// Renders the attribution table: per-stage shares in percent, the
    /// movement in percentage points, and a callout naming the culprit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>9} {:>9} {:>9}\n",
            "stage", "a share", "b share", "Δ pts"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>8.1}% {:>8.1}% {:>+9.1}\n",
                r.stage,
                r.share_a * 100.0,
                r.share_b * 100.0,
                r.delta() * 100.0
            ));
        }
        let c = self.culprit();
        out.push_str(&format!(
            "largest shift: {} ({:+.1} pts of total latency)\n",
            c.stage,
            c.delta() * 100.0
        ));
        out
    }
}

/// Reads a `stats` input file, accepting either a flight recording
/// (aggregated on the fly) or an existing stats store — dispatched on
/// the header's `format` field, so `stats merge` can mix both.
pub fn read_stats_input(path: &str) -> Result<WorkloadStats, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!("{path}: empty file"));
    }
    // A stats store is one (possibly pretty-printed) JSON document; a
    // recording is JSONL whose *first line* is the header. Try the
    // whole text first, then fall back to line-oriented parsing.
    let header: Value = match serde_json::from_str(text.trim()) {
        Ok(doc) => doc,
        Err(_) => {
            let first = text
                .lines()
                .find(|l| !l.trim().is_empty())
                .expect("non-empty");
            serde_json::from_str(first).map_err(|e| format!("{path}: not valid JSON: {e}"))?
        }
    };
    match header.get("format").and_then(Value::as_str) {
        Some(crate::recorder::FLIGHT_FORMAT) => {
            let rec = Recording::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok(WorkloadStats::from_recording(&rec))
        }
        Some(STATS_FORMAT) => WorkloadStats::from_json(&header).map_err(|e| format!("{path}: {e}")),
        Some(other) => Err(format!("{path}: unknown format {other:?}")),
        None => Err(format!(
            "{path}: no format field (expected a flight recording or stats store)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Absorbed;

    fn flow(candidates_in: usize, candidates_out: usize, filter_ns: u64) -> StageStats {
        StageStats {
            candidates_in,
            candidates_out,
            filter_ns,
        }
    }

    fn sample_record(seq: u64, total_ns: u64) -> FlightRecord {
        FlightRecord {
            seq,
            engine: "1HPN".into(),
            query_len: 16,
            k: 4,
            batch: if seq.is_multiple_of(2) { Some(1) } else { None },
            database_size: 100,
            edr_computed: 20,
            pruned: 80,
            dp_cells: 5_000,
            timings: StageTimings {
                setup_ns: 50,
                histogram: flow(100, 40, 400),
                qgram: flow(40, 25, 200),
                triangle: flow(25, 20, 100),
                refine_ns: total_ns / 2,
                total_ns,
                ..Default::default()
            },
            scratch_reuses: seq,
            neighbors: vec![(1, 0), (2, 3)],
            weight: 1,
            sampled: None,
            absorbed: None,
        }
    }

    /// The exact aggregate a uniform keep would carry for these drops —
    /// mirrors the recorder's fold over the wire fields.
    fn absorb(records: &[FlightRecord]) -> Absorbed {
        let mut a = Absorbed::default();
        for r in records {
            a.queries += 1;
            a.batched += u64::from(r.batch.is_some());
            let stage_fields = Stage::ALL.into_iter().flat_map(|stage| {
                let (keys, s) = (stage.keys(), r.timings.stage(stage));
                [
                    (keys.candidates_in, s.candidates_in as u64),
                    (keys.candidates_out, s.candidates_out as u64),
                    (keys.filter_ns, s.filter_ns),
                    (keys.pruned, s.pruned() as u64),
                ]
            });
            for (k, v) in [
                ("query_len", r.query_len),
                ("k", r.k),
                ("database_size", r.database_size),
                ("edr_computed", r.edr_computed),
                ("pruned", r.pruned),
                ("dp_cells", r.dp_cells),
                ("setup_ns", r.timings.setup_ns),
                ("refine_ns", r.timings.refine_ns),
                ("total_ns", r.timings.total_ns),
                ("scratch_reuses", r.scratch_reuses),
            ]
            .into_iter()
            .chain(stage_fields)
            {
                *a.sums.entry(k.to_string()).or_insert(0) += v;
            }
        }
        a
    }

    fn sample_recording(n: u64, base_ns: u64) -> Recording {
        Recording {
            version: 1,
            meta: json!({}),
            records: (0..n)
                .map(|i| sample_record(i, base_ns + i * 100))
                .collect(),
        }
    }

    #[test]
    fn aggregation_sums_flow_and_brackets_latency() {
        let w = WorkloadStats::from_recording(&sample_recording(10, 10_000));
        assert_eq!(w.queries, 10);
        assert_eq!(w.batched_queries, 5);
        assert_eq!(w.engines.get("1HPN"), Some(&10));
        assert_eq!(w.database_size, 1_000);
        assert_eq!(w.edr_computed, 200);
        assert_eq!(w.pruned, 800);
        assert!((w.pruning_power() - 0.8).abs() < 1e-12);
        let h = &w.stages[Stage::Histogram as usize];
        assert_eq!(h.candidates_in, 1_000);
        assert_eq!(h.candidates_out, 400);
        assert_eq!(h.pruned(), 600);
        assert!((h.selectivity() - 0.4).abs() < 1e-12);
        assert_eq!(w.total_latency.count, 10);
        assert_eq!(w.total_latency.min_ns, 10_000);
        assert_eq!(w.total_latency.max_ns, 10_900);
        // All ten totals land in the same power-of-4 bucket, so every
        // percentile estimate is inside it.
        let p95 = w.total_latency.quantile(0.95);
        assert!((4_096.0..=16_384.0).contains(&p95), "p95={p95}");
    }

    #[test]
    fn store_round_trips_through_json() {
        let w = WorkloadStats::from_recording(&sample_recording(7, 3_000));
        let doc = w.to_json();
        assert_eq!(
            doc.get("format").and_then(Value::as_str),
            Some(STATS_FORMAT)
        );
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back = WorkloadStats::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn merge_equals_aggregating_the_concatenation() {
        let a = sample_recording(4, 2_000);
        let b = sample_recording(6, 9_000);
        let mut merged = WorkloadStats::from_recording(&a);
        merged.merge(&WorkloadStats::from_recording(&b)).unwrap();
        let mut concat = a.clone();
        concat.records.extend(b.records.clone());
        let direct = WorkloadStats::from_recording(&concat);
        assert_eq!(merged.queries, direct.queries);
        assert_eq!(merged.stages, direct.stages);
        assert_eq!(merged.total_latency, direct.total_latency);
        assert_eq!(merged.runs, 2);
        // Identical counts ⇒ identical percentile estimates (the shared
        // estimator sees the same buckets).
        assert_eq!(
            merged.total_latency.quantile(0.95),
            direct.total_latency.quantile(0.95)
        );
    }

    #[test]
    fn diff_of_identical_workloads_reports_no_drift() {
        // Same workload, different absolute timings within tolerance.
        let a = WorkloadStats::from_recording(&sample_recording(8, 10_000));
        let b = WorkloadStats::from_recording(&sample_recording(8, 11_000));
        let d = DiffReport::compare(&a, &b, 0.5);
        assert!(!d.drifted(), "{}", d.render());
        assert!(d.render().contains("no significant drift"));
    }

    #[test]
    fn diff_flags_selectivity_and_latency_drift() {
        let a = WorkloadStats::from_recording(&sample_recording(8, 10_000));
        let mut shifted = sample_recording(8, 10_000);
        for r in &mut shifted.records {
            r.timings.histogram.candidates_out += 20; // selectivity changes
            r.timings.total_ns *= 40; // latency blows past any bucket tolerance
        }
        let b = WorkloadStats::from_recording(&shifted);
        let d = DiffReport::compare(&a, &b, 0.5);
        assert!(d.drifted());
        let r = d.render();
        assert!(r.contains("SIGNIFICANT DRIFT"));
        assert!(
            d.rows
                .iter()
                .any(|row| row.metric.contains("selectivity") && row.drifted),
            "{r}"
        );
        assert!(
            d.rows
                .iter()
                .any(|row| row.metric.starts_with("query p") && row.drifted),
            "{r}"
        );
    }

    #[test]
    fn weighted_records_reweight_to_population_estimates() {
        // A sampled recording where one kept record stands in for four
        // population queries must aggregate like four copies of it —
        // except recorded_queries (actual lines) and the exact min/max.
        let mut sampled = sample_recording(3, 10_000);
        sampled.records[1].weight = 4;
        sampled.records[1].sampled = Some("uniform".into());
        let mut full = sample_recording(3, 10_000);
        for _ in 0..3 {
            full.records.push(full.records[1].clone());
        }
        let ws = WorkloadStats::from_recording(&sampled);
        let wf = WorkloadStats::from_recording(&full);
        assert_eq!(ws.queries, 6);
        assert_eq!(ws.recorded_queries, 3);
        assert_eq!(wf.recorded_queries, 6);
        assert_eq!(ws.edr_computed, wf.edr_computed);
        assert_eq!(ws.stages, wf.stages);
        assert_eq!(ws.total_latency.sum_ns, wf.total_latency.sum_ns);
        assert_eq!(ws.total_latency.count, wf.total_latency.count);
        assert_eq!(
            ws.total_latency.quantile(0.95),
            wf.total_latency.quantile(0.95)
        );
        let rendered = ws.render();
        assert!(
            rendered.contains("reweighted from 3 sampled records"),
            "{rendered}"
        );
    }

    #[test]
    fn absorbed_sums_make_reweighted_flow_totals_exact() {
        // A heterogeneous workload where per-record values vary wildly —
        // exactly the case where scaling one keep by its weight gets
        // flow totals badly wrong. With absorbed sums, the sampled
        // store's flows must equal the full store's *exactly*.
        let mut full = sample_recording(9, 10_000);
        for (i, r) in full.records.iter_mut().enumerate() {
            let i = i as u64;
            r.edr_computed = 10 + 17 * i;
            r.pruned = 90 + 3 * i * i;
            r.database_size = r.edr_computed + r.pruned;
            r.timings.histogram.candidates_out = 30 + 11 * i as usize;
            r.timings.histogram.filter_ns = 100 + 333 * i;
            r.dp_cells = 1_000 * (i + 1);
        }
        let mut sampled = Recording {
            version: 1,
            meta: json!({}),
            records: Vec::new(),
        };
        for chunk in full.records.chunks(3) {
            let mut keep = chunk[2].clone();
            keep.weight = 3;
            keep.sampled = Some("uniform".into());
            keep.absorbed = Some(absorb(&chunk[..2]));
            sampled.records.push(keep);
        }
        let wf = WorkloadStats::from_recording(&full);
        let ws = WorkloadStats::from_recording(&sampled);
        assert_eq!(ws.queries, wf.queries);
        assert_eq!(ws.recorded_queries, 3);
        assert_eq!(ws.batched_queries, wf.batched_queries);
        assert_eq!(ws.database_size, wf.database_size);
        assert_eq!(ws.edr_computed, wf.edr_computed);
        assert_eq!(ws.pruned, wf.pruned);
        assert_eq!(ws.dp_cells, wf.dp_cells);
        assert_eq!(ws.setup_ns, wf.setup_ns);
        assert_eq!(ws.stages, wf.stages);
        assert_eq!(ws.pruning_power(), wf.pruning_power());
        // An exact-flow sampled store passes even a zero-shape-tolerance
        // diff against its full counterpart (latencies aside).
        let d = DiffReport::compare(&wf, &ws, 1.0);
        assert!(!d.drifted(), "{}", d.render());
    }

    #[test]
    fn zero_query_stats_render_without_panicking() {
        let w = WorkloadStats::from_recording(&sample_recording(0, 0));
        assert_eq!(w.queries, 0);
        assert_eq!(w.total_latency.quantile(0.99), 0.0);
        assert_eq!(w.total_latency.mean(), 0.0);
        let rendered = w.render();
        assert!(rendered.contains("no queries recorded"), "{rendered}");
        assert!(!rendered.contains("NaN"), "{rendered}");
        // A zero-query store still round-trips.
        let back = WorkloadStats::from_json(&w.to_json()).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn from_json_defaults_recorded_queries_for_old_stores() {
        // Stores written before sampling existed lack the key; the
        // parser falls back to `queries` (every record had weight 1).
        let w = WorkloadStats::from_recording(&sample_recording(5, 4_000));
        let doc = w.to_json();
        let mut stripped = serde_json::Map::new();
        for (key, value) in doc.as_object().unwrap().iter() {
            if key != "recorded_queries" {
                stripped.insert(key.clone(), value.clone());
            }
        }
        let back = WorkloadStats::from_json(&Value::Object(stripped)).unwrap();
        assert_eq!(back.recorded_queries, w.queries);
    }

    #[test]
    fn shape_tolerance_absorbs_small_reweighting_variance() {
        let a = WorkloadStats::from_recording(&sample_recording(8, 10_000));
        let mut near = sample_recording(8, 10_000);
        for r in &mut near.records {
            r.edr_computed += 1; // ~2% flow wobble, as reweighting causes
        }
        let b = WorkloadStats::from_recording(&near);
        assert!(DiffReport::compare(&a, &b, 1.0).drifted());
        let d = DiffReport::compare_with(&a, &b, 1.0, 0.05);
        assert!(!d.drifted(), "{}", d.render());
        assert!(d.render().contains("shape tolerance ±5%"));
    }

    #[test]
    fn attribution_names_the_stage_that_slowed_down() {
        let a = WorkloadStats::from_recording(&sample_recording(8, 10_000));
        let mut slowed = sample_recording(8, 10_000);
        for r in &mut slowed.records {
            // Inject a histogram-stage slowdown: its time grows by 50×
            // and the total grows by the same absolute amount.
            let extra = r.timings.histogram.filter_ns * 49;
            r.timings.histogram.filter_ns += extra;
            r.timings.total_ns += extra;
        }
        let b = WorkloadStats::from_recording(&slowed);
        let attr = Attribution::compare(&a, &b);
        assert_eq!(attr.culprit().stage, "histogram");
        assert!(attr.culprit().delta() > 0.0);
        let rendered = attr.render();
        assert!(rendered.contains("largest shift: histogram"), "{rendered}");
        // Identical workloads attribute nothing in particular: every
        // delta is zero.
        let none = Attribution::compare(&a, &a);
        assert!(none.rows.iter().all(|r| r.delta() == 0.0));
    }

    #[test]
    fn time_shares_cover_the_pipeline_and_sum_to_one() {
        let w = WorkloadStats::from_recording(&sample_recording(6, 10_000));
        let shares = w.timings().shares();
        let names: Vec<&str> = shares.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            ["setup", "histogram", "qgram", "triangle", "refine", "other"]
        );
        let total: f64 = shares.iter().map(|&(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        // Zero-query stats: all shares zero, no NaN.
        let empty = WorkloadStats::from_recording(&sample_recording(0, 0));
        assert!(empty.timings().shares().iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn read_stats_input_accepts_both_formats() {
        let dir = std::env::temp_dir().join(format!("trajsim-wl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec_path = dir.join("run.flight.jsonl");
        let mut text = format!(
            "{{\"format\":\"{}\",\"version\":1,\"meta\":{{}}}}\n",
            crate::recorder::FLIGHT_FORMAT
        );
        text.push_str(
            "{\"engine\":\"scan\",\"seq\":0,\"query_len\":4,\"k\":2,\"database_size\":10,\
             \"edr_computed\":10,\"pruned\":0,\"total_ns\":500,\"refine_ns\":400,\
             \"neighbors\":\"1:0 2:1\"}\n",
        );
        std::fs::write(&rec_path, text).unwrap();
        let from_rec = read_stats_input(rec_path.to_str().unwrap()).unwrap();
        assert_eq!(from_rec.queries, 1);
        let store_path = dir.join("store.json");
        std::fs::write(
            &store_path,
            serde_json::to_string_pretty(&from_rec.to_json()).unwrap(),
        )
        .unwrap();
        let from_store = read_stats_input(store_path.to_str().unwrap()).unwrap();
        assert_eq!(from_store, from_rec);
        assert!(read_stats_input("/nonexistent/x.json").is_err());
        let foreign = dir.join("foreign.json");
        std::fs::write(&foreign, "{\"format\":\"nope\"}").unwrap();
        assert!(read_stats_input(foreign.to_str().unwrap())
            .unwrap_err()
            .contains("unknown format"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
