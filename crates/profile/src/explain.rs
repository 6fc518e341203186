//! The pruning-power EXPLAIN report: per-stage candidate flow,
//! selectivity, estimated EDR calls saved, and wall time per candidate,
//! built from live [`QueryStats`] — the paper's §5 pruning-power metric
//! broken down by filter.

use serde_json::{json, Value};
use trajsim_prune::{QueryStats, Stage, StageStats};

/// A filter's cost per judged candidate, in nanoseconds (0 when it
/// judged none).
fn ns_per_candidate(stage: &StageStats) -> f64 {
    if stage.candidates_in == 0 {
        0.0
    } else {
        stage.filter_ns as f64 / stage.candidates_in as f64
    }
}

/// Allocation behaviour of the refine path's EDR scratch workspaces,
/// snapshotted from the global metrics registry (the
/// `refine.scratch_*` counters and `refine.workspace_peak_bytes`
/// gauge published by `trajsim-distance`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchReport {
    /// EDR calls served by an already-large-enough workspace (no heap
    /// traffic).
    pub reuses: u64,
    /// Workspace growth events (heap allocation during a kernel call).
    pub allocs: u64,
    /// High-water mark of any single workspace's scratch, in bytes.
    pub workspace_peak_bytes: i64,
}

impl ScratchReport {
    /// Reads the current scratch metrics from the global registry.
    fn snapshot() -> Self {
        let m = trajsim_obs::metrics::global();
        ScratchReport {
            reuses: m.counter(trajsim_distance::SCRATCH_REUSES).get(),
            allocs: m.counter(trajsim_distance::SCRATCH_ALLOCS).get(),
            workspace_peak_bytes: m.gauge(trajsim_distance::WORKSPACE_PEAK_BYTES).get(),
        }
    }
}

/// Probe-work view of the ART signature index, snapshotted from the
/// global metrics registry (the `art.*` counters published by
/// `trajsim-art` on every probe). All-zero when the workload never
/// probed an index — the report omits the line then.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArtReport {
    /// Trie nodes visited across all probes.
    pub nodes_visited: u64,
    /// Postings-list entries scanned across all probes.
    pub postings_scanned: u64,
    /// Candidates the probes emitted.
    pub candidates: u64,
}

impl ArtReport {
    /// Reads the current index-probe metrics from the global registry.
    fn snapshot() -> Self {
        let m = trajsim_obs::metrics::global();
        ArtReport {
            nodes_visited: m.counter(trajsim_art::NODES_VISITED).get(),
            postings_scanned: m.counter(trajsim_art::POSTINGS_SCANNED).get(),
            candidates: m.counter(trajsim_art::CANDIDATES).get(),
        }
    }

    /// Whether any probe ran this process.
    fn active(&self) -> bool {
        self.nodes_visited > 0 || self.postings_scanned > 0 || self.candidates > 0
    }
}

/// Percentile view of the per-query latency distribution, snapshotted
/// from the global `knn.query_ns` histogram — so `explain` reports tail
/// latency (p50/p95/p99), not just the mean the stage table implies.
/// Estimates use the bucket-interpolation model of
/// [`trajsim_obs::metrics::quantile_from_buckets`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyReport {
    /// Queries recorded in the histogram (process-wide).
    pub count: u64,
    /// Estimated median per-query wall time, ns.
    pub p50_ns: f64,
    /// Estimated 95th-percentile per-query wall time, ns.
    pub p95_ns: f64,
    /// Estimated 99th-percentile per-query wall time, ns.
    pub p99_ns: f64,
}

impl LatencyReport {
    /// Reads the current `knn.query_ns` distribution from the global
    /// registry.
    fn snapshot() -> Self {
        let h = trajsim_obs::metrics::global().histogram("knn.query_ns");
        LatencyReport {
            count: h.count(),
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
        }
    }
}

/// The per-stage pruning-power breakdown of a k-NN query (or of a whole
/// workload, when built from accumulated [`QueryStats`]). Counters are
/// copied verbatim from the stats — the report never re-derives what the
/// engine already measured, so it matches `--metrics-out` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// Engine name as reported by the engine itself.
    pub engine: String,
    /// Number of queries aggregated into this report.
    pub queries: usize,
    /// Database size summed over queries (`N × queries`).
    pub database_size: usize,
    /// True EDR computations performed.
    pub edr_computed: usize,
    /// Candidates whose true distance was never computed.
    pub pruned: usize,
    /// The paper's pruning power: `pruned / database_size`.
    pub pruning_power: f64,
    /// DP cells materialized by the EDR kernels.
    pub dp_cells: u64,
    /// The filter stages that ran, in pipeline order, with their flow
    /// (summed over the workload). Each pruned candidate is an EDR
    /// computation its stage saved.
    pub stages: Vec<(Stage, StageStats)>,
    /// Query-side setup time, in nanoseconds.
    pub setup_ns: u64,
    /// EDR refinement time, in nanoseconds.
    pub refine_ns: u64,
    /// End-to-end wall time, in nanoseconds.
    pub total_ns: u64,
    /// Wall time not attributed to any named stage.
    pub other_ns: u64,
    /// `(min, max)` per-query total wall time across the workload.
    pub total_range: (u64, u64),
    /// `(min, max)` per-query refine time across the workload.
    pub refine_range: (u64, u64),
    /// Refine-path scratch allocation behaviour (process-wide snapshot).
    pub scratch: ScratchReport,
    /// ART signature-index probe work (process-wide snapshot of the
    /// `art.*` counters; all-zero without `--index art`).
    pub art: ArtReport,
    /// Per-query latency percentiles (process-wide snapshot of
    /// `knn.query_ns`).
    pub latency: LatencyReport,
}

impl ExplainReport {
    /// Builds the report for `queries` queries answered by `engine`,
    /// from their (accumulated) stats. Stages the engine never ran are
    /// omitted from [`Self::stages`].
    pub fn from_stats(engine: &str, queries: usize, stats: &QueryStats) -> Self {
        let t = &stats.timings;
        let stages = Stage::ALL
            .into_iter()
            .map(|s| (s, *t.stage(s)))
            .filter(|(_, flow)| flow.ran())
            .collect();
        ExplainReport {
            engine: engine.to_string(),
            queries,
            database_size: stats.database_size,
            edr_computed: stats.edr_computed,
            pruned: stats.pruned(),
            pruning_power: stats.pruning_power(),
            dp_cells: stats.dp_cells,
            stages,
            setup_ns: t.setup_ns,
            refine_ns: t.refine_ns,
            total_ns: t.total_ns,
            other_ns: t.other_ns(),
            total_range: t.total_range(),
            refine_range: t.refine_range(),
            scratch: ScratchReport::snapshot(),
            art: ArtReport::snapshot(),
            latency: LatencyReport::snapshot(),
        }
    }

    /// The report as a JSON object (the CLI's `explain --json` output).
    pub fn to_json(&self) -> Value {
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|(stage, s)| {
                json!({
                    "name": stage.name(),
                    "candidates_in": s.candidates_in,
                    "candidates_out": s.candidates_out,
                    "pruned": s.pruned(),
                    "selectivity": s.selectivity(),
                    "filter_ns": s.filter_ns,
                    "ns_per_candidate": ns_per_candidate(s),
                })
            })
            .collect();
        json!({
            "engine": self.engine.as_str(),
            "queries": self.queries,
            "database_size": self.database_size,
            "edr_computed": self.edr_computed,
            "pruned": self.pruned,
            "pruning_power": self.pruning_power,
            "dp_cells": self.dp_cells,
            "stages": Value::Array(stages),
            "setup_ns": self.setup_ns,
            "refine_ns": self.refine_ns,
            "total_ns": self.total_ns,
            "other_ns": self.other_ns,
            "min_total_ns": self.total_range.0,
            "max_total_ns": self.total_range.1,
            "min_refine_ns": self.refine_range.0,
            "max_refine_ns": self.refine_range.1,
            "scratch": {
                "reuses": self.scratch.reuses,
                "allocs": self.scratch.allocs,
                "workspace_peak_bytes": self.scratch.workspace_peak_bytes,
            },
            "art": {
                "nodes_visited": self.art.nodes_visited,
                "postings_scanned": self.art.postings_scanned,
                "candidates": self.art.candidates,
            },
            "latency": {
                "count": self.latency.count,
                "p50_ns": self.latency.p50_ns,
                "p95_ns": self.latency.p95_ns,
                "p99_ns": self.latency.p99_ns,
            },
        })
    }

    /// Renders the human-readable EXPLAIN table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN  engine={}  queries={}  candidates={}\n",
            self.engine, self.queries, self.database_size
        ));
        if self.stages.is_empty() {
            out.push_str("  (no pruning filters ran — every candidate was refined)\n");
        } else {
            out.push_str(&format!(
                "  {:<10} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}\n",
                "stage", "cand_in", "cand_out", "pruned", "selectivity", "ns/cand", "wall"
            ));
            for (stage, s) in &self.stages {
                out.push_str(&format!(
                    "  {:<10} {:>10} {:>10} {:>10} {:>11.1}% {:>10.0} {:>10}\n",
                    stage.name(),
                    s.candidates_in,
                    s.candidates_out,
                    s.pruned(),
                    s.selectivity() * 100.0,
                    ns_per_candidate(s),
                    fmt_ns(s.filter_ns),
                ));
            }
        }
        out.push_str(&format!(
            "  refine: {} EDR calls ({} DP cells) in {}\n",
            self.edr_computed,
            self.dp_cells,
            fmt_ns(self.refine_ns)
        ));
        out.push_str(&format!(
            "  pruning power: {:.4}  ({} of {} EDR calls saved)\n",
            self.pruning_power, self.pruned, self.database_size
        ));
        out.push_str(&format!(
            "  wall: total {} (setup {}, refine {}, other {})\n",
            fmt_ns(self.total_ns),
            fmt_ns(self.setup_ns),
            fmt_ns(self.refine_ns),
            fmt_ns(self.other_ns)
        ));
        out.push_str(&format!(
            "  scratch: {} reuses, {} allocs, peak {} bytes per workspace\n",
            self.scratch.reuses, self.scratch.allocs, self.scratch.workspace_peak_bytes
        ));
        if self.art.active() {
            out.push_str(&format!(
                "  art index: {} nodes visited, {} postings scanned, {} candidates\n",
                self.art.nodes_visited, self.art.postings_scanned, self.art.candidates
            ));
        }
        if self.latency.count > 0 {
            out.push_str(&format!(
                "  latency (process, {} queries): p50 {}  p95 {}  p99 {}\n",
                self.latency.count,
                fmt_ns(self.latency.p50_ns as u64),
                fmt_ns(self.latency.p95_ns as u64),
                fmt_ns(self.latency.p99_ns as u64)
            ));
        }
        if self.queries > 1 {
            out.push_str(&format!(
                "  per query: total {} .. {}, refine {} .. {}\n",
                fmt_ns(self.total_range.0),
                fmt_ns(self.total_range.1),
                fmt_ns(self.refine_range.0),
                fmt_ns(self.refine_range.1)
            ));
        }
        out
    }
}

/// Nanoseconds as a human-readable duration (`412ns`, `3.2µs`, `1.5ms`,
/// `2.0s`).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.1}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajsim_prune::StageTimings;

    fn sample_stats() -> QueryStats {
        QueryStats {
            database_size: 200,
            edr_computed: 30,
            pruned_by_histogram: 120,
            pruned_by_qgram: 50,
            pruned_by_triangle: 0,
            dp_cells: 9_000,
            timings: StageTimings {
                setup_ns: 1_000,
                histogram: StageStats {
                    candidates_in: 200,
                    candidates_out: 80,
                    filter_ns: 40_000,
                },
                qgram: StageStats {
                    candidates_in: 80,
                    candidates_out: 30,
                    filter_ns: 24_000,
                },
                refine_ns: 600_000,
                total_ns: 700_000,
                ..Default::default()
            },
        }
    }

    #[test]
    fn report_copies_stats_verbatim() {
        let stats = sample_stats();
        let r = ExplainReport::from_stats("2HE", 1, &stats);
        assert_eq!(r.engine, "2HE");
        assert_eq!(r.pruned, 170);
        assert!((r.pruning_power - 0.85).abs() < 1e-12);
        // The idle triangle stage is omitted.
        assert_eq!(
            r.stages.iter().map(|(s, _)| s.name()).collect::<Vec<_>>(),
            ["histogram", "qgram"]
        );
        let h = &r.stages[0].1;
        assert_eq!(
            (h.candidates_in, h.candidates_out, h.pruned()),
            (200, 80, 120)
        );
        assert!((h.selectivity() - 0.4).abs() < 1e-12);
        assert!((ns_per_candidate(h) - 200.0).abs() < 1e-12);
        assert_eq!(r.other_ns, 700_000 - 1_000 - 40_000 - 24_000 - 600_000);
        assert_eq!(r.total_range, (700_000, 700_000));
    }

    #[test]
    fn json_mirrors_the_report() {
        let r = ExplainReport::from_stats("2HE", 1, &sample_stats());
        let v = r.to_json();
        assert_eq!(v.get("engine").and_then(Value::as_str), Some("2HE"));
        assert_eq!(v.get("pruned").and_then(Value::as_u64), Some(170));
        let stages = v.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].get("name").and_then(Value::as_str), Some("qgram"));
        assert_eq!(
            stages[1].get("candidates_in").and_then(Value::as_u64),
            Some(80)
        );
        // Round-trips through the parser.
        let text = serde_json::to_string_pretty(&v).unwrap();
        assert_eq!(serde_json::from_str(&text).unwrap(), v);
    }

    #[test]
    fn render_mentions_every_stage_and_the_pruning_power() {
        let r = ExplainReport::from_stats("2HE", 1, &sample_stats());
        let text = r.render();
        assert!(text.contains("engine=2HE"));
        assert!(text.contains("histogram"));
        assert!(text.contains("qgram"));
        assert!(!text.contains("triangle"));
        assert!(text.contains("pruning power: 0.8500"));
        assert!(text.contains("170 of 200 EDR calls saved"));
        assert!(text.contains("30 EDR calls"));
    }

    #[test]
    fn filterless_workload_renders_the_no_filter_note() {
        let stats = QueryStats {
            database_size: 50,
            edr_computed: 50,
            timings: StageTimings {
                refine_ns: 1_000,
                total_ns: 1_200,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = ExplainReport::from_stats("scan", 1, &stats);
        assert!(r.stages.is_empty());
        assert_eq!(r.pruning_power, 0.0);
        assert!(r.render().contains("no pruning filters ran"));
    }

    #[test]
    fn multi_query_report_shows_the_per_query_range() {
        let mut acc = QueryStats::default();
        for (t, r) in [(100u64, 60u64), (300, 200)] {
            let q = QueryStats {
                database_size: 10,
                edr_computed: 10,
                timings: StageTimings {
                    refine_ns: r,
                    total_ns: t,
                    ..Default::default()
                },
                ..Default::default()
            };
            acc.accumulate(&q);
        }
        let rep = ExplainReport::from_stats("scan", 2, &acc);
        assert_eq!(rep.total_range, (100, 300));
        assert_eq!(rep.refine_range, (60, 200));
        assert!(rep.render().contains("per query"));
    }

    #[test]
    fn scratch_metrics_appear_in_json_and_render() {
        let r = ExplainReport::from_stats("scan", 1, &sample_stats());
        let v = r.to_json();
        let s = v.get("scratch").expect("scratch section");
        assert!(s.get("reuses").and_then(Value::as_u64).is_some());
        assert!(s.get("allocs").and_then(Value::as_u64).is_some());
        assert!(s
            .get("workspace_peak_bytes")
            .and_then(Value::as_i64)
            .is_some());
        assert!(r.render().contains("scratch:"));
    }

    #[test]
    fn art_metrics_appear_in_json_and_render_only_when_probed() {
        let mut r = ExplainReport::from_stats("scan", 1, &sample_stats());
        let v = r.to_json();
        let a = v.get("art").expect("art section");
        for key in ["nodes_visited", "postings_scanned", "candidates"] {
            assert!(a.get(key).and_then(Value::as_u64).is_some(), "{key}");
        }
        // The render line is gated on actual probe work.
        r.art = ArtReport::default();
        assert!(!r.render().contains("art index:"));
        r.art = ArtReport {
            nodes_visited: 12,
            postings_scanned: 34,
            candidates: 5,
        };
        let text = r.render();
        assert!(text.contains("art index: 12 nodes visited, 34 postings scanned, 5 candidates"));
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_200), "3.2µs");
        assert_eq!(fmt_ns(1_500_000), "1.5ms");
        assert_eq!(fmt_ns(2_000_000_000), "2.0s");
    }
}
