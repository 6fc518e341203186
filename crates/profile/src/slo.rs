//! Service-level objectives over recorded workloads.
//!
//! An SLO spec is a small JSON document (`trajsim-slo-spec` v1):
//!
//! ```json
//! {
//!   "format": "trajsim-slo-spec",
//!   "version": 1,
//!   "objectives": [
//!     {"metric": "total_ns",  "p": 0.99, "max_ns": 4294967296},
//!     {"metric": "refine_ns", "p": 0.95, "max_ns": 16777216},
//!     {"metric": "stage.histogram.share",  "max": 0.5},
//!     {"metric": "stage.refine.mean_ns",   "max_ns": 1048576}
//!   ],
//!   "burn": {
//!     "threshold_ns": 16777216,
//!     "budget": 0.01,
//!     "max_rate": 2.0
//!   }
//! }
//! ```
//!
//! Two objective families:
//!
//! - **Latency percentiles** — `total_ns` / `refine_ns` with a quantile
//!   `p` and a ceiling `max_ns`, evaluated with the shared
//!   [`quantile_from_buckets`](trajsim_obs::metrics::quantile_from_buckets)
//!   estimator (identical numbers to `--metrics-out`, `stats show`, and
//!   `/metrics`-derived quantiles).
//! - **Stage time** — `stage.<name>.share` (fraction of total query
//!   time spent in the stage, ceiling `max`) and
//!   `stage.<name>.mean_ns` (per-query mean, ceiling `max_ns`), where
//!   `<name>` is one of `setup`, `histogram`, `qgram`, `triangle`,
//!   `refine` — the taxonomy of the `knn.stage.*_ns` counters.
//!
//! The optional **burn-rate gate** declares an error budget: a query is
//! *bad* when its total latency exceeds `threshold_ns`, and the budget
//! says at most `budget` (a fraction) of queries may be bad. The burn
//! rate is `bad_fraction / budget` over the whole workload — rate 1.0
//! spends the budget exactly, higher burns it faster — and the gate
//! fails when the workload burns faster than `max_rate`. A spec that
//! sets `window_intervals` asks for sliding windows, a stricter gate
//! than one whole-run window, so it is rejected rather than loosened.
//!
//! Bad-query counting is conservative from buckets: every bucket whose
//! *upper* bound exceeds the threshold counts as bad, so a threshold in
//! the interior of a bucket over-counts by at most that bucket.
//! Choosing `threshold_ns` on a bucket bound (the default latency
//! buckets are powers of four: 1 µs × 4^k) makes the count exact.

use crate::workload::WorkloadStats;
use serde_json::{json, Value};
use trajsim_prune::StageTimings;

/// The `format` field of an SLO spec file.
pub const SLO_FORMAT: &str = "trajsim-slo-spec";
/// The spec schema version this build evaluates.
pub const SLO_VERSION: u64 = 1;

/// One latency or stage-time objective.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// `metric` (`total_ns` or `refine_ns`) at quantile `p` must not
    /// exceed `max_ns`.
    Percentile {
        /// `total_ns` or `refine_ns`.
        metric: String,
        /// The quantile, `0.0..=1.0`.
        p: f64,
        /// Ceiling, nanoseconds.
        max_ns: u64,
    },
    /// The stage's share of total query time must not exceed `max`.
    StageShare {
        /// `setup`, `histogram`, `qgram`, `triangle`, or `refine`.
        stage: String,
        /// Ceiling, a fraction `0.0..=1.0`.
        max: f64,
    },
    /// The stage's mean per-query time must not exceed `max_ns`.
    StageMean {
        /// `setup`, `histogram`, `qgram`, `triangle`, or `refine`.
        stage: String,
        /// Ceiling, nanoseconds.
        max_ns: u64,
    },
}

/// The error-budget burn-rate gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Burn {
    /// A query is *bad* when `total_ns` exceeds this.
    pub threshold_ns: u64,
    /// Budgeted bad fraction (e.g. `0.01` = 1% of queries may be bad).
    pub budget: f64,
    /// Maximum tolerated burn rate (`bad_fraction / budget`).
    pub max_rate: f64,
}

/// A parsed SLO spec.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloSpec {
    /// Latency and stage-time objectives, checked in order.
    pub objectives: Vec<Objective>,
    /// The optional burn-rate gate.
    pub burn: Option<Burn>,
}

impl SloSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Rejects foreign formats, future versions, unknown metrics or
    /// stages, out-of-range quantiles/fractions, a burn gate with
    /// `window_intervals`, and empty specs.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc: Value =
            serde_json::from_str(text).map_err(|e| format!("SLO spec is not JSON: {e}"))?;
        let format = doc.get("format").and_then(Value::as_str).unwrap_or("");
        if format != SLO_FORMAT {
            return Err(format!(
                "not an SLO spec: format {format:?}, expected {SLO_FORMAT:?}"
            ));
        }
        let version = doc.get("version").and_then(Value::as_u64).unwrap_or(0);
        if version != SLO_VERSION {
            return Err(format!(
                "unsupported SLO spec version {version} (this build reads {SLO_VERSION})"
            ));
        }
        let mut spec = SloSpec::default();
        if let Some(objs) = doc.get("objectives").and_then(Value::as_array) {
            for (i, o) in objs.iter().enumerate() {
                spec.objectives.push(Self::parse_objective(o, i)?);
            }
        }
        if let Some(b) = doc.get("burn") {
            let threshold_ns = b
                .get("threshold_ns")
                .and_then(Value::as_u64)
                .ok_or("burn: missing threshold_ns")?;
            let budget = b
                .get("budget")
                .and_then(Value::as_f64)
                .ok_or("burn: missing budget")?;
            if !(budget > 0.0 && budget <= 1.0) {
                return Err(format!("burn: budget {budget} outside (0, 1]"));
            }
            let max_rate = b
                .get("max_rate")
                .and_then(Value::as_f64)
                .ok_or("burn: missing max_rate")?;
            if max_rate <= 0.0 {
                return Err(format!("burn: max_rate {max_rate} must be positive"));
            }
            if b.get("window_intervals").is_some() {
                return Err("burn: window_intervals is not supported \
                            (the burn gate is one window over the whole workload)"
                    .into());
            }
            spec.burn = Some(Burn {
                threshold_ns,
                budget,
                max_rate,
            });
        }
        if spec.objectives.is_empty() && spec.burn.is_none() {
            return Err("SLO spec declares no objectives and no burn gate".into());
        }
        Ok(spec)
    }

    fn parse_objective(o: &Value, i: usize) -> Result<Objective, String> {
        let metric = o
            .get("metric")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("objective {i}: missing metric"))?;
        match metric {
            "total_ns" | "refine_ns" => {
                let p = o
                    .get("p")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("objective {i} ({metric}): missing p"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("objective {i} ({metric}): p {p} outside [0, 1]"));
                }
                let max_ns = o
                    .get("max_ns")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("objective {i} ({metric}): missing max_ns"))?;
                Ok(Objective::Percentile {
                    metric: metric.to_string(),
                    p,
                    max_ns,
                })
            }
            _ => {
                let rest = metric
                    .strip_prefix("stage.")
                    .ok_or_else(|| format!("objective {i}: unknown metric {metric:?}"))?;
                let (stage, kind) = rest
                    .rsplit_once('.')
                    .ok_or_else(|| format!("objective {i}: malformed stage metric {metric:?}"))?;
                let stages = StageTimings::default().parts().map(|(name, _)| name);
                if !stages.contains(&stage) {
                    return Err(format!(
                        "objective {i}: unknown stage {stage:?} (expected one of {stages:?})"
                    ));
                }
                match kind {
                    "share" => {
                        let max = o
                            .get("max")
                            .and_then(Value::as_f64)
                            .ok_or_else(|| format!("objective {i} ({metric}): missing max"))?;
                        if !(0.0..=1.0).contains(&max) {
                            return Err(format!(
                                "objective {i} ({metric}): max {max} outside [0, 1]"
                            ));
                        }
                        Ok(Objective::StageShare {
                            stage: stage.to_string(),
                            max,
                        })
                    }
                    "mean_ns" => {
                        let max_ns = o
                            .get("max_ns")
                            .and_then(Value::as_u64)
                            .ok_or_else(|| format!("objective {i} ({metric}): missing max_ns"))?;
                        Ok(Objective::StageMean {
                            stage: stage.to_string(),
                            max_ns,
                        })
                    }
                    other => Err(format!(
                        "objective {i}: unknown stage metric kind {other:?} \
                         (expected share or mean_ns)"
                    )),
                }
            }
        }
    }
}

/// One evaluated objective: what was measured against what limit.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRow {
    /// Human-readable objective label, e.g. `p99 total_ns`.
    pub label: String,
    /// Observed value (ns for latency objectives, fraction for shares).
    pub observed: f64,
    /// The spec's ceiling in the same unit.
    pub limit: f64,
    /// Whether the observation stayed within the limit.
    pub pass: bool,
}

/// The evaluated burn-rate gate.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRow {
    /// The workload's burn rate (`bad_fraction / budget`).
    pub rate: f64,
    /// Bad-query fraction of the workload.
    pub bad_fraction: f64,
    /// The spec's ceiling.
    pub max_rate: f64,
    /// Whether the rate stayed under `max_rate`.
    pub pass: bool,
}

/// The outcome of checking one input against one spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// What was evaluated (`stats`).
    pub source: String,
    /// Queries the verdict is based on.
    pub queries: u64,
    /// Per-objective rows, spec order.
    pub rows: Vec<SloRow>,
    /// The burn-rate row, when the spec declares a gate.
    pub burn: Option<BurnRow>,
}

impl SloReport {
    /// True when any objective or the burn gate failed.
    pub fn violated(&self) -> bool {
        self.rows.iter().any(|r| !r.pass) || self.burn.as_ref().is_some_and(|b| !b.pass)
    }

    /// Renders the verdict as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "SLO check over {} ({} queries): {}\n",
            self.source,
            self.queries,
            if self.violated() { "VIOLATED" } else { "ok" }
        );
        for r in &self.rows {
            let unit_is_ns = r.label.contains("_ns");
            let (obs, lim) = if unit_is_ns {
                (fmt_ns(r.observed), fmt_ns(r.limit))
            } else {
                (format!("{:.3}", r.observed), format!("{:.3}", r.limit))
            };
            out.push_str(&format!(
                "  {} {:<28} {} (limit {})\n",
                if r.pass { "ok  " } else { "FAIL" },
                r.label,
                obs,
                lim
            ));
        }
        if let Some(b) = &self.burn {
            out.push_str(&format!(
                "  {} burn rate: {:.2}x (bad fraction {:.4}, limit {:.2}x)\n",
                if b.pass { "ok  " } else { "FAIL" },
                b.rate,
                b.bad_fraction,
                b.max_rate
            ));
        }
        out
    }

    /// The verdict as JSON (for tooling; the text render is for humans).
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|r| {
                json!({
                    "label": r.label.clone(),
                    "observed": r.observed,
                    "limit": r.limit,
                    "pass": r.pass,
                })
            })
            .collect();
        let burn = match &self.burn {
            Some(b) => json!({
                "rate": b.rate,
                "bad_fraction": b.bad_fraction,
                "max_rate": b.max_rate,
                "pass": b.pass,
            }),
            None => Value::Null,
        };
        json!({
            "source": self.source.clone(),
            "queries": self.queries,
            "violated": self.violated(),
            "objectives": rows,
            "burn": burn,
        })
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Conservative bad-query count from histogram buckets: every bucket
/// whose upper bound exceeds `threshold_ns` counts in full, and the
/// overflow bucket always counts. Exact when the threshold sits on a
/// bucket bound.
fn bad_count(bounds: &[u64], counts: &[u64], threshold_ns: u64) -> u64 {
    counts
        .iter()
        .enumerate()
        .filter(|(i, _)| match bounds.get(*i) {
            Some(&b) => b > threshold_ns,
            None => true, // overflow bucket
        })
        .map(|(_, &c)| c)
        .sum()
}

/// Evaluates `spec` against an aggregated workload (a flight recording
/// or stats store read via [`crate::read_stats_input`]). The whole
/// workload is the burn window.
pub fn evaluate_stats(spec: &SloSpec, stats: &WorkloadStats) -> SloReport {
    // Total query time attributed per stage, with the same taxonomy the
    // knn.stage.*_ns counters use.
    let parts = stats.timings().parts();
    let stage_ns = |stage: &str| -> u64 {
        parts
            .iter()
            .find(|&&(name, _)| name == stage)
            .map_or(0, |&(_, ns)| ns)
    };
    let total_sum = stats.total_latency.sum_ns;
    let queries = stats.queries;
    let rows = spec
        .objectives
        .iter()
        .map(|o| match o {
            Objective::Percentile { metric, p, max_ns } => {
                let dist = if metric == "refine_ns" {
                    &stats.refine_latency
                } else {
                    &stats.total_latency
                };
                let observed = dist.quantile(*p);
                SloRow {
                    label: format!("p{} {metric}", fmt_p(*p)),
                    observed,
                    limit: *max_ns as f64,
                    pass: observed <= *max_ns as f64,
                }
            }
            Objective::StageShare { stage, max } => {
                let observed = if total_sum == 0 {
                    0.0
                } else {
                    stage_ns(stage) as f64 / total_sum as f64
                };
                SloRow {
                    label: format!("stage.{stage}.share"),
                    observed,
                    limit: *max,
                    pass: observed <= *max,
                }
            }
            Objective::StageMean { stage, max_ns } => {
                let observed = if queries == 0 {
                    0.0
                } else {
                    stage_ns(stage) as f64 / queries as f64
                };
                SloRow {
                    label: format!("stage.{stage}.mean_ns"),
                    observed,
                    limit: *max_ns as f64,
                    pass: observed <= *max_ns as f64,
                }
            }
        })
        .collect();
    let burn = spec.burn.as_ref().map(|b| {
        let dist = &stats.total_latency;
        let bad = bad_count(&dist.bounds, &dist.counts, b.threshold_ns);
        let bad_fraction = if dist.count == 0 {
            0.0
        } else {
            bad as f64 / dist.count as f64
        };
        let rate = bad_fraction / b.budget;
        BurnRow {
            rate,
            bad_fraction,
            max_rate: b.max_rate,
            pass: rate <= b.max_rate,
        }
    });
    SloReport {
        source: "stats".to_string(),
        queries,
        rows,
        burn,
    }
}

fn fmt_p(p: f64) -> String {
    let pct = p * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as u64)
    } else {
        format!("{pct}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadStats;

    fn spec_json(max_p99_ns: u64) -> String {
        format!(
            r#"{{
  "format": "trajsim-slo-spec",
  "version": 1,
  "objectives": [
    {{"metric": "total_ns", "p": 0.99, "max_ns": {max_p99_ns}}},
    {{"metric": "stage.histogram.share", "max": 0.9}}
  ],
  "burn": {{"threshold_ns": {max_p99_ns}, "budget": 0.1, "max_rate": 1.0}}
}}"#
        )
    }

    #[test]
    fn parse_accepts_the_documented_schema_and_rejects_garbage() {
        let spec = SloSpec::parse(&spec_json(1 << 20)).unwrap();
        assert_eq!(spec.objectives.len(), 2);
        let burn = spec.burn.unwrap();
        assert_eq!(burn.threshold_ns, 1 << 20);

        assert!(SloSpec::parse("not json").is_err());
        assert!(SloSpec::parse(r#"{"format": "other", "version": 1}"#)
            .unwrap_err()
            .contains("not an SLO spec"));
        assert!(
            SloSpec::parse(r#"{"format": "trajsim-slo-spec", "version": 9}"#)
                .unwrap_err()
                .contains("version")
        );
        // Empty spec, unknown metric, unknown stage, bad quantile.
        assert!(
            SloSpec::parse(r#"{"format": "trajsim-slo-spec", "version": 1}"#)
                .unwrap_err()
                .contains("no objectives")
        );
        let bad = r#"{"format": "trajsim-slo-spec", "version": 1,
                      "objectives": [{"metric": "bogus_ns", "p": 0.5, "max_ns": 1}]}"#;
        assert!(SloSpec::parse(bad).unwrap_err().contains("unknown metric"));
        let bad = r#"{"format": "trajsim-slo-spec", "version": 1,
                      "objectives": [{"metric": "stage.warp.share", "max": 0.5}]}"#;
        assert!(SloSpec::parse(bad).unwrap_err().contains("unknown stage"));
        let bad = r#"{"format": "trajsim-slo-spec", "version": 1,
                      "objectives": [{"metric": "total_ns", "p": 1.5, "max_ns": 1}]}"#;
        assert!(SloSpec::parse(bad).unwrap_err().contains("outside"));
        let bad = r#"{"format": "trajsim-slo-spec", "version": 1,
                      "burn": {"threshold_ns": 10, "budget": 0.0, "max_rate": 1.0}}"#;
        assert!(SloSpec::parse(bad).unwrap_err().contains("budget"));
        // Asking for sliding burn windows is an error, not a silently
        // weaker whole-run gate.
        let bad = r#"{"format": "trajsim-slo-spec", "version": 1,
                      "burn": {"threshold_ns": 10, "budget": 0.1,
                               "window_intervals": 4, "max_rate": 1.0}}"#;
        assert!(SloSpec::parse(bad)
            .unwrap_err()
            .contains("window_intervals"));
    }

    fn fast_stats(total_ns: u64, n: u64) -> WorkloadStats {
        let mut w = WorkloadStats::default();
        for _ in 0..n {
            // Private record path is not exposed; emulate via the
            // public distribution fields directly.
            let idx = w.total_latency.bounds.partition_point(|&b| b < total_ns);
            w.total_latency.counts[idx] += 1;
            w.total_latency.count += 1;
            w.total_latency.sum_ns += total_ns;
        }
        w.queries = n;
        w
    }

    #[test]
    fn stats_evaluation_passes_fast_and_fails_slow() {
        let spec = SloSpec::parse(&spec_json(1 << 20)).unwrap();
        // All queries at ~16 µs: p99 well under 1 ms, nothing bad.
        let fast = fast_stats(16_000, 100);
        let report = evaluate_stats(&spec, &fast);
        assert!(!report.violated(), "{}", report.render());
        assert!(report.render().contains("ok"));
        // All queries at ~16 ms: p99 over the 1 ms limit AND the burn
        // gate sees 100% bad against a 10% budget.
        let slow = fast_stats(16_000_000, 100);
        let report = evaluate_stats(&spec, &slow);
        assert!(report.violated());
        let text = report.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("VIOLATED"), "{text}");
        let burn = report.burn.unwrap();
        assert!(burn.rate >= 9.9, "rate {}", burn.rate);
        assert!(!burn.pass);
    }

    #[test]
    fn stage_share_and_mean_objectives_read_the_stage_taxonomy() {
        let mut w = fast_stats(1_000_000, 10);
        w.setup_ns = 2_000_000;
        w.stages[trajsim_prune::Stage::Histogram as usize] = trajsim_prune::StageStats {
            candidates_in: 100,
            candidates_out: 10,
            filter_ns: 9_000_000, // 90% of the 10 ms total
        };
        let spec = SloSpec::parse(
            r#"{"format": "trajsim-slo-spec", "version": 1, "objectives": [
                {"metric": "stage.histogram.share", "max": 0.5},
                {"metric": "stage.setup.mean_ns", "max_ns": 300000}
            ]}"#,
        )
        .unwrap();
        let report = evaluate_stats(&spec, &w);
        assert!(report.violated());
        assert!((report.rows[0].observed - 0.9).abs() < 1e-9);
        assert!(!report.rows[0].pass, "90% share over a 50% cap");
        assert!((report.rows[1].observed - 200_000.0).abs() < 1e-9);
        assert!(report.rows[1].pass, "200 µs mean under a 300 µs cap");
    }
}
