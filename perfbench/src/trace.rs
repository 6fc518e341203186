//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Spans stay in memory and are written out when the
//! run ends; with tracing off a span only runs its closure.

use crate::alloc;
use std::io::Write;
use std::time::Instant;
use trajsim_prune::QueryStats;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `io.read` or `prune.knn`.
    pub name: &'static str,
    /// The query (or the first query of a batch) the call served; `None`
    /// for set-up calls.
    pub query: Option<usize>,
    /// Queries the call answered (1 per query, the batch size for a batch).
    pub queries: usize,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Live-heap change across the call, in bytes.
    pub heap_delta: i64,
    /// What the engine reported for the call (summed over a batch).
    pub stats: Option<QueryStats>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.dur_ns as f64 * 1e-9
    }

    pub fn mib(&self) -> f64 {
        self.heap_delta as f64 / (1024.0 * 1024.0)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            // Room for a long run, reserved up front so recording a span
            // does not allocate inside a measured window.
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording a span around it when tracing is on.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let heap0 = alloc::live();
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let heap_delta = alloc::live() as i64 - heap0 as i64;
        self.spans.push(Span {
            name,
            query,
            queries: usize::from(query.is_some()),
            start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            heap_delta,
            stats: None,
        });
        out
    }

    /// Attaches what the engine reported to the most recent span.
    pub fn annotate(&mut self, queries: usize, stats: QueryStats) {
        if let Some(s) = self.spans.last_mut() {
            s.queries = queries;
            s.stats = Some(stats);
        }
    }

    /// Index of the next span, to select the spans of one phase.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// The last span named `name` recorded since `mark`.
    pub fn last(&self, mark: usize, name: &str) -> Option<&Span> {
        self.since(mark).iter().rev().find(|s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"name\":\"{}\",\"query\":{},\"queries\":{},\"start_ns\":{},\"dur_ns\":{},\"heap_delta\":{}",
                s.name,
                s.query.map_or("null".to_string(), |q| q.to_string()),
                s.queries,
                s.start_ns,
                s.dur_ns,
                s.heap_delta
            )?;
            if let Some(st) = &s.stats {
                let t = &st.timings;
                write!(
                    out,
                    ",\"engine\":{{\"setup_ns\":{},\"histogram_ns\":{},\"qgram_ns\":{},\"triangle_ns\":{},\"refine_ns\":{},\"total_ns\":{},\"edr_computed\":{},\"dp_cells\":{}}}",
                    t.setup_ns,
                    t.histogram.filter_ns,
                    t.qgram.filter_ns,
                    t.triangle.filter_ns,
                    t.refine_ns,
                    t.total_ns,
                    st.edr_computed,
                    st.dp_cells
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}
