//! Slow-query forensics: rank the worst queries of a flight recording
//! and attribute each one's latency to pipeline stages.
//!
//! This is the offline half of the tail-sampling story — the sampler
//! ([`crate::TailSampler`]) guarantees the slow outliers are *kept*;
//! `trajsim slow` then reads them back, sorts by total latency, and
//! shows where each one spent its time (setup / histogram / q-gram /
//! triangle / refine / other), so a latency regression can be localized
//! to a stage without re-running the workload.

use crate::recorder::{FlightRecord, Recording};
use trajsim_prune::PARTS;

/// One ranked slow query: the record plus its derived stage breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// Query sequence number in the recording.
    pub seq: u64,
    /// Engine that answered it.
    pub engine: String,
    /// Total latency, ns.
    pub total_ns: u64,
    /// Share of `total_ns` of each timed part
    /// ([`trajsim_prune::StageTimings::parts`]), then `other`. Shares sum
    /// to 1 (all zeros when `total_ns == 0`).
    pub stage_shares: [(&'static str, f64); PARTS + 1],
    /// How the sampler classified this record (`"tail"`, `"uniform"`),
    /// if the recording was sampled.
    pub sampled: Option<String>,
}

impl SlowQuery {
    fn from_record(r: &FlightRecord) -> Self {
        SlowQuery {
            seq: r.seq,
            engine: r.engine.clone(),
            total_ns: r.timings.total_ns,
            stage_shares: r.timings.shares(),
            sampled: r.sampled.clone(),
        }
    }

    /// The stage this query spent the largest share of its time in.
    pub fn dominant_stage(&self) -> &'static str {
        self.stage_shares
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|&(name, _)| name)
            .unwrap_or("other")
    }
}

/// The `trajsim slow` report: the `top` worst queries of a recording by
/// total latency, slowest first, each with per-stage attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowReport {
    /// Ranked rows, slowest first.
    pub rows: Vec<SlowQuery>,
    /// Queries in the recording (lines, not reweighted).
    pub recorded_queries: usize,
}

impl SlowReport {
    /// Ranks the recording's queries by `total_ns`, keeping the `top`
    /// slowest. Ties break toward the earlier sequence number so the
    /// ranking is deterministic.
    pub fn from_recording(rec: &Recording, top: usize) -> Self {
        let mut order: Vec<&FlightRecord> = rec.records.iter().collect();
        order.sort_by_key(|r| (std::cmp::Reverse(r.timings.total_ns), r.seq));
        SlowReport {
            rows: order
                .into_iter()
                .take(top)
                .map(SlowQuery::from_record)
                .collect(),
            recorded_queries: rec.records.len(),
        }
    }

    /// Renders the ranked table: rank, seq, engine, total latency, the
    /// dominant stage, and the full share breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "slowest {} of {} recorded queries\n",
            self.rows.len(),
            self.recorded_queries
        ));
        if self.rows.is_empty() {
            out.push_str("  (no queries recorded)\n");
            return out;
        }
        out.push_str(&format!(
            "{:>4} {:>6} {:<10} {:>12} {:<10}  breakdown\n",
            "rank", "seq", "engine", "total", "dominant"
        ));
        for (i, q) in self.rows.iter().enumerate() {
            let breakdown = q
                .stage_shares
                .iter()
                .filter(|&&(_, s)| s > 0.0005)
                .map(|&(name, s)| format!("{name}={:.1}%", s * 100.0))
                .collect::<Vec<_>>()
                .join(" ");
            let marker = match q.sampled.as_deref() {
                Some("tail") => " [tail]",
                Some(_) => " [sampled]",
                None => "",
            };
            out.push_str(&format!(
                "{:>4} {:>6} {:<10} {:>10.3}ms {:<10}  {}{}\n",
                i + 1,
                q.seq,
                q.engine,
                q.total_ns as f64 / 1e6,
                q.dominant_stage(),
                breakdown,
                marker
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use trajsim_prune::{StageStats, StageTimings};

    fn record(seq: u64, total_ns: u64, refine_ns: u64) -> FlightRecord {
        FlightRecord {
            seq,
            engine: "1HPN".into(),
            timings: StageTimings {
                setup_ns: 100,
                histogram: StageStats {
                    filter_ns: 300,
                    ..Default::default()
                },
                qgram: StageStats {
                    filter_ns: 200,
                    ..Default::default()
                },
                triangle: StageStats {
                    filter_ns: 100,
                    ..Default::default()
                },
                refine_ns,
                total_ns,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn recording(records: Vec<FlightRecord>) -> Recording {
        Recording {
            version: 1,
            meta: json!({}),
            records,
        }
    }

    #[test]
    fn ranks_slowest_first_and_truncates_to_top() {
        let rec = recording(vec![
            record(0, 10_000, 5_000),
            record(1, 90_000, 80_000),
            record(2, 40_000, 30_000),
            record(3, 90_000, 80_000), // tie with seq 1: earlier seq wins
        ]);
        let report = SlowReport::from_recording(&rec, 3);
        assert_eq!(report.recorded_queries, 4);
        let seqs: Vec<u64> = report.rows.iter().map(|q| q.seq).collect();
        assert_eq!(seqs, [1, 3, 2]);
        let r = report.render();
        assert!(r.contains("slowest 3 of 4 recorded queries"), "{r}");
    }

    #[test]
    fn stage_shares_sum_to_one_and_name_the_dominant_stage() {
        let q = SlowQuery::from_record(&record(7, 10_000, 6_000));
        let total: f64 = q.stage_shares.iter().map(|&(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert_eq!(q.dominant_stage(), "refine");
        // refine 6000/10000, other = 10000 - (100+300+200+100+6000).
        assert!((q.stage_shares[4].1 - 0.6).abs() < 1e-9);
        assert!((q.stage_shares[5].1 - 0.33).abs() < 1e-9);
    }

    #[test]
    fn zero_latency_records_do_not_divide_by_zero() {
        let q = SlowQuery::from_record(&FlightRecord::default());
        assert!(q.stage_shares.iter().all(|&(_, s)| s == 0.0));
        let report = SlowReport::from_recording(&recording(vec![]), 10);
        assert!(report.render().contains("no queries recorded"));
    }

    #[test]
    fn sampled_records_carry_their_marker() {
        let mut r = record(0, 50_000, 40_000);
        r.sampled = Some("tail".into());
        let report = SlowReport::from_recording(&recording(vec![r]), 5);
        assert_eq!(report.rows[0].sampled.as_deref(), Some("tail"));
        assert!(report.render().contains("[tail]"));
    }
}
