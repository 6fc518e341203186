//! # trajsim-obs
//!
//! The observability backbone of the trajsim workspace: a lightweight
//! structured-tracing layer and an always-on metrics registry, both
//! implemented in-tree (the build is offline) and cheap enough to leave
//! enabled in release binaries.
//!
//! **Tracing** ([`trace`], the [`span!`] / [`event!`] macros): leveled
//! records with key/value fields. The level is set programmatically
//! ([`set_level`]) or by the `TRAJSIM_LOG` environment variable; records
//! go to a process-global [`Sink`] — ship one JSON object per line with
//! [`JsonLinesSink`]. With tracing off (the default) an instrumentation
//! site costs one relaxed atomic load and its fields are never
//! evaluated.
//!
//! **Metrics** ([`metrics`]): named [`Counter`]s, [`Gauge`]s, and
//! fixed-bucket [`Histogram`]s held in a [`Registry`] (the shared one is
//! [`metrics::global`]). Recording is relaxed atomics only — no locks on
//! the hot path — so the k-NN engines keep their instruments on in
//! release builds; [`Registry::snapshot_json`] serializes everything for
//! the CLI's `--metrics-out` and the bench harness.
//!
//! **Live endpoint** ([`server`], [`exposition`], [`process`]): a
//! std-only HTTP server on a background thread serving the registry as
//! Prometheus text exposition (`GET /metrics`, dotted names mapped to
//! `knn_stage_*`-style underscored ones), liveness with process
//! self-metrics (`GET /healthz`; uptime, RSS, thread count). The CLI
//! wires it to a global `--serve-metrics ADDR` flag, and `trajsim watch`
//! diffs successive `/metrics` scrapes into per-interval rates.
//!
//! Span/metric taxonomy: see `DESIGN.md` §9 (span names are dotted,
//! `knn.query` / `parallel.pool`; metric names likewise,
//! `knn.edr_computed`, `parallel.worker_busy_ns`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exposition;
pub mod metrics;
pub mod process;
pub mod server;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramState, Registry, DEFAULT_LATENCY_BOUNDS_NS};
pub use server::{http_get, serve, ServerHandle};
pub use trace::{
    emit, emit_span, enabled, level, set_level, set_sink, thread_id, FieldValue, JsonLinesSink,
    Level, Record, Sink, Span,
};
