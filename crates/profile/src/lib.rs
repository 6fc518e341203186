//! # trajsim-profile
//!
//! Turns the raw telemetry of `trajsim-obs` into actionable artifacts —
//! the observability layer the paper's own evaluation is built on
//! (pruning power per filter, Figures 7–10, and speedup per stage):
//!
//! - [`ProfileCollector`]: a [`Sink`](trajsim_obs::Sink) that buffers the
//!   span/event stream in memory with wall-clock end times and dense
//!   thread ids, so a whole CLI run (or test) can be exported afterwards;
//! - [`chrome_trace`]: renders collected records as Chrome-trace-format
//!   JSON (`chrome://tracing` / [Perfetto](https://ui.perfetto.dev) load
//!   it directly) — complete `"X"` slices for span-shaped records,
//!   instant `"i"` events for the rest, one track per thread
//!   ([speedscope](https://speedscope.app) opens it too);
//! - [`ExplainReport`]: the per-stage pruning-power EXPLAIN built from
//!   live [`QueryStats`](trajsim_prune::QueryStats) — candidates in/out,
//!   selectivity, EDR calls saved, and wall time per candidate for each
//!   filter, for one query or aggregated over a workload.
//!
//! The CLI wires these up as `trajsim ... --profile-out FILE` and
//! `trajsim explain ...`; the shapes are documented in `DESIGN.md` §9.
//! Tail-based sampling ([`TailSampler`], `--sample N`) and slow-query
//! forensics ([`SlowReport`], `trajsim slow`, `stats diff --attribute`)
//! are in §13.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod collector;
mod explain;
mod recorder;
mod sampling;
mod slo;
mod slow;
mod workload;

pub use chrome::{chrome_trace, write_chrome_trace};
pub use collector::{ProfileCollector, ProfileRecord, TeeSink};
pub use explain::{ArtReport, ExplainReport, LatencyReport, ScratchReport};
pub use recorder::{
    Absorbed, FlightRecord, FlightRecorder, Recording, FLIGHT_FORMAT, FLIGHT_VERSION,
};
pub use sampling::{
    SampleDecision, SamplerConfig, TailSampler, DEFAULT_TAIL_QUANTILE, DEFAULT_WARMUP,
};
pub use slo::{
    evaluate_stats, Burn, BurnRow, Objective, SloReport, SloRow, SloSpec, SLO_FORMAT, SLO_VERSION,
};
pub use slow::{SlowQuery, SlowReport};
pub use workload::{
    read_stats_input, Attribution, AttributionRow, DiffReport, DiffRow, LatencyDist, WorkloadStats,
    STATS_FORMAT, STATS_VERSION,
};
