//! The workload flight recorder: a [`Sink`] that persists one compact
//! JSONL line per finished query, and the parser that reads recordings
//! back for `trajsim stats` aggregation and `trajsim replay`.
//!
//! A recording is a versioned header line
//!
//! ```json
//! {"format":"trajsim-flight-recording","version":2,"meta":{...}}
//! ```
//!
//! followed by one flat JSON object per query — the fields of the
//! [`trajsim_prune::FLIGHT_EVENT`] record emitted by the engines'
//! `finish_query` epilogue (see `DESIGN.md` §12 for the field table).
//! The recorder ignores every other trace record, so it can sit in a
//! [`crate::TeeSink`] next to `--trace` and `--profile-out` sinks
//! without double work.
//!
//! Version 2 counts every candidate a stage dismisses in that stage's
//! flow, so `x_in − x_out == pruned_x` for every stage `x`. Version 1
//! left break-outs, quick-bound prunes and index settlements out of the
//! histogram flow but kept the full credit in `pruned_x`, so a version-1
//! record is upgraded exactly on read with `x_in = x_out + pruned_x`.

use crate::sampling::{SampleDecision, SamplerConfig, TailSampler};
use serde_json::{json, Value};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use trajsim_obs::{FieldValue, Record, Sink};
use trajsim_prune::{Stage, StageStats, StageTimings};

/// The `format` field of a recording's header line.
pub const FLIGHT_FORMAT: &str = "trajsim-flight-recording";

/// The recording format version this build reads and writes.
pub const FLIGHT_VERSION: u64 = 2;

struct RecorderInner {
    out: Box<dyn Write + Send>,
    header_written: bool,
    records: u64,
    error: Option<String>,
    /// Tail sampler for always-on recording; `None` records every query.
    sampler: Option<TailSampler>,
    /// Counter sums of the queries dropped since the last uniform keep;
    /// attached to the next uniform keep so flow totals stay exact.
    pending: Absorbed,
}

/// Exact aggregates of the queries a uniform keep absorbed: the drops
/// since the previous uniform keep. Carried on the keep's wire record
/// under `"absorbed"`, so [`crate::WorkloadStats`] reconstructs
/// full-population counter totals exactly instead of estimating them
/// from the keep's own values — only latency *distributions* remain
/// approximate under sampling.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Absorbed {
    /// How many dropped queries this aggregate covers.
    pub queries: u64,
    /// How many of them ran through the shared-scan batched path.
    pub batched: u64,
    /// Per-field sums over the dropped queries (every numeric wire field
    /// except `seq` and `batch`).
    pub sums: std::collections::BTreeMap<String, u64>,
}

impl Absorbed {
    fn fold(&mut self, fields: &[(&str, FieldValue)]) {
        self.queries += 1;
        for (k, v) in fields {
            let FieldValue::U64(x) = v else { continue };
            match *k {
                "seq" => {}
                "batch" => self.batched += 1,
                // Allocate the key only on first sight: after the first
                // drop every fold is pure lookups, keeping the drop path
                // cheap enough for always-on recording.
                _ => match self.sums.get_mut(*k) {
                    Some(sum) => *sum += *x,
                    None => {
                        self.sums.insert((*k).to_string(), *x);
                    }
                },
            }
        }
    }

    fn to_json(&self) -> Value {
        let mut sums = serde_json::Map::new();
        for (k, v) in &self.sums {
            sums.insert(k.clone(), Value::from(*v));
        }
        json!({
            "queries": self.queries,
            "batched": self.batched,
            "sums": Value::Object(sums),
        })
    }

    fn from_value(v: &Value, version: u64) -> Self {
        let mut sums = std::collections::BTreeMap::new();
        if let Some(obj) = v.get("sums").and_then(Value::as_object) {
            for (k, val) in obj.iter() {
                if let Some(x) = val.as_u64() {
                    sums.insert(k.clone(), x);
                }
            }
        }
        if version < 2 {
            for stage in Stage::ALL {
                let keys = stage.keys();
                let sum = |key: &str| sums.get(key).copied().unwrap_or(0);
                let upgraded = sum(keys.candidates_out).saturating_add(sum(keys.pruned));
                sums.insert(keys.candidates_in.to_string(), upgraded);
            }
        }
        Absorbed {
            queries: v.get("queries").and_then(Value::as_u64).unwrap_or(0),
            batched: v.get("batched").and_then(Value::as_u64).unwrap_or(0),
            sums,
        }
    }
}

/// A [`Sink`] that appends one JSONL line per [`trajsim_prune::FLIGHT_EVENT`]
/// record to a writer. Install it (usually inside a [`crate::TeeSink`])
/// with `trajsim_obs::set_sink` at `Debug` level, run the workload, then
/// call [`FlightRecorder::finish`] to flush and surface any deferred
/// write error — [`Sink::emit`] cannot fail, so I/O errors are stashed
/// and reported there.
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder writing to a freshly created (truncated) file.
    pub fn create(path: &str) -> io::Result<Arc<Self>> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(Box::new(io::BufWriter::new(file))))
    }

    /// A recorder writing to an arbitrary writer — in-memory buffers in
    /// tests and `trajsim replay`, `io::sink()` in the overhead bench.
    pub fn to_writer(out: Box<dyn Write + Send>) -> Arc<Self> {
        Self::build(out, None)
    }

    /// A tail-sampled recorder writing to a freshly created file: tail
    /// queries (above the rolling latency threshold) are kept in full,
    /// the rest pass a 1-in-`config.every` uniform reservoir, dropped
    /// records are never serialized. The header carries the sampling
    /// config under `meta.sampling` so readers reweight aggregates.
    pub fn create_sampled(path: &str, config: SamplerConfig) -> io::Result<Arc<Self>> {
        let file = std::fs::File::create(path)?;
        Ok(Self::sampled_to_writer(
            Box::new(io::BufWriter::new(file)),
            config,
        ))
    }

    /// A tail-sampled recorder over an arbitrary writer (see
    /// [`Self::create_sampled`]).
    pub fn sampled_to_writer(out: Box<dyn Write + Send>, config: SamplerConfig) -> Arc<Self> {
        Self::build(out, Some(TailSampler::new(config)))
    }

    fn build(out: Box<dyn Write + Send>, sampler: Option<TailSampler>) -> Arc<Self> {
        Arc::new(FlightRecorder {
            inner: Mutex::new(RecorderInner {
                out,
                header_written: false,
                records: 0,
                error: None,
                sampler,
                pending: Absorbed::default(),
            }),
        })
    }

    /// The recording header for `meta`: when sampling is on, the
    /// sampler config is spliced into `meta.sampling` so the file is
    /// self-describing.
    fn header_value(sampler: Option<&TailSampler>, meta: Value) -> Value {
        let meta = match (sampler, meta) {
            (Some(s), Value::Object(map)) => {
                let mut map = map;
                map.insert("sampling".to_string(), s.config().to_json());
                Value::Object(map)
            }
            (_, meta) => meta,
        };
        json!({
            "format": FLIGHT_FORMAT,
            "version": FLIGHT_VERSION,
            "meta": meta,
        })
    }

    /// Writes the versioned header line carrying `meta` (resolved CLI
    /// configuration: command, dataset, engine, k, eps, ...). Call once,
    /// before the workload; if the first flight record arrives earlier a
    /// minimal header with empty `meta` is written instead, so the file
    /// always starts with a valid header.
    pub fn write_header(&self, meta: Value) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("recorder lock");
        if inner.header_written {
            return Ok(());
        }
        let header = Self::header_value(inner.sampler.as_ref(), meta);
        writeln!(
            inner.out,
            "{}",
            serde_json::to_string(&header).expect("header json")
        )?;
        inner.header_written = true;
        Ok(())
    }

    /// Number of flight records written so far.
    pub fn records_written(&self) -> u64 {
        self.inner.lock().expect("recorder lock").records
    }

    /// Flushes the recording (writing a default header first if no
    /// record and no explicit header ever arrived, so the output is
    /// always a valid — possibly empty — recording) and reports any
    /// write error deferred from [`Sink::emit`].
    pub fn finish(&self) -> io::Result<()> {
        {
            let inner = self.inner.lock().expect("recorder lock");
            if let Some(e) = &inner.error {
                return Err(io::Error::other(e.clone()));
            }
        }
        self.write_header(json!({}))?;
        self.inner.lock().expect("recorder lock").out.flush()
    }
}

/// The explain-grade per-part share string attached to tail outliers:
/// `"setup=1.2% histogram=30.5% ... other=4.0%"`.
fn forensics(t: &StageTimings) -> String {
    let shares = t
        .shares()
        .map(|(name, s)| format!("{name}={:.1}%", 100.0 * s));
    shares.join(" ")
}

impl Sink for FlightRecorder {
    fn emit(&self, record: &Record<'_>) {
        if record.name != trajsim_prune::FLIGHT_EVENT {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder lock");
        if inner.error.is_some() {
            return;
        }
        // Tail sampling: classify before any serialization, so a
        // dropped record costs one estimator update plus folding its
        // counters into the pending absorbed aggregate — the sampled
        // recorder stays cheaper than the full one.
        let decision = match &mut inner.sampler {
            Some(sampler) => {
                let total_ns = record.fields.iter().find_map(|(k, v)| match (*k, v) {
                    ("total_ns", FieldValue::U64(x)) => Some(*x),
                    _ => None,
                });
                let d = sampler.decide(total_ns.unwrap_or(0));
                let m = trajsim_obs::metrics::global();
                match d {
                    SampleDecision::Tail => m.counter("record.kept_tail").inc(),
                    SampleDecision::Uniform { .. } => m.counter("record.kept_uniform").inc(),
                    SampleDecision::Drop => {
                        m.counter("record.dropped").inc();
                        inner.pending.fold(record.fields);
                        return;
                    }
                }
                Some(d)
            }
            None => None,
        };
        let mut obj = serde_json::Map::new();
        for (k, v) in record.fields {
            let value = match v {
                FieldValue::U64(x) => Value::from(*x),
                FieldValue::I64(x) => Value::from(*x),
                FieldValue::F64(x) => Value::from(*x),
                FieldValue::Bool(x) => Value::from(*x),
                FieldValue::Str(x) => Value::from(x.as_str()),
            };
            obj.insert((*k).to_string(), value);
        }
        match decision {
            Some(SampleDecision::Tail) => {
                obj.insert("weight".to_string(), Value::from(1u64));
                obj.insert("sampled".to_string(), Value::from("tail"));
                let u = |key: &str| match record.fields.iter().find(|(k, _)| *k == key) {
                    Some((_, FieldValue::U64(x))) => *x,
                    _ => 0,
                };
                let breakdown = timings_from(u, FLIGHT_VERSION).map_or_else(
                    |e| format!("unreadable stage flows: {e}"),
                    |t| forensics(&t),
                );
                obj.insert("forensics".to_string(), Value::from(breakdown));
            }
            Some(SampleDecision::Uniform { .. }) => {
                // This keep closes its run: weight is the actual run
                // length and the drops' counter sums travel with it.
                let absorbed = std::mem::take(&mut inner.pending);
                obj.insert("weight".to_string(), Value::from(absorbed.queries + 1));
                obj.insert("sampled".to_string(), Value::from("uniform"));
                if absorbed.queries > 0 {
                    obj.insert("absorbed".to_string(), absorbed.to_json());
                }
            }
            _ => {}
        }
        let line = serde_json::to_string(&Value::Object(obj)).expect("record json");
        if !inner.header_written {
            let header = Self::header_value(inner.sampler.as_ref(), json!({}));
            let text = serde_json::to_string(&header).expect("header json");
            if let Err(e) = writeln!(inner.out, "{text}") {
                inner.error = Some(format!("writing recording header: {e}"));
                return;
            }
            inner.header_written = true;
        }
        if let Err(e) = writeln!(inner.out, "{line}") {
            inner.error = Some(format!("writing flight record: {e}"));
            return;
        }
        inner.records += 1;
    }
}

/// One parsed flight record — one query of a recorded workload. Field
/// names mirror the wire format (`DESIGN.md` §12; sampling fields §13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Emission sequence number (process-monotone).
    pub seq: u64,
    /// Engine name as reported by the engine itself.
    pub engine: String,
    /// Number of points in the query trajectory.
    pub query_len: u64,
    /// Requested result size (hit count for range queries).
    pub k: u64,
    /// Shared-scan batch id; `None` for per-query execution.
    pub batch: Option<u64>,
    /// Database size N.
    pub database_size: u64,
    /// True EDR computations performed.
    pub edr_computed: u64,
    /// Candidates whose true distance was never computed.
    pub pruned: u64,
    /// DP cells the EDR kernels materialized.
    pub dp_cells: u64,
    /// Setup, per-stage flow, refine and total wall times, ns (a raw
    /// single-query value: no per-workload extremes).
    pub timings: StageTimings,
    /// Cumulative process-wide workspace reuse counter at emit time.
    pub scratch_reuses: u64,
    /// Population queries this record stands for: 1 in full recordings
    /// and for tail keeps, the closed run length (itself plus its
    /// absorbed drops) for uniform reservoir keeps.
    /// [`crate::WorkloadStats`] uses it to reweight latency
    /// distributions back to full-population estimates.
    pub weight: u64,
    /// How the sampler kept this record (`"tail"` / `"uniform"`), or
    /// `None` in an unsampled recording.
    pub sampled: Option<String>,
    /// Exact counter sums of the dropped queries this uniform keep
    /// closed over; `None` for full recordings, tail keeps, and uniform
    /// keeps that absorbed nothing (`every` = 1).
    pub absorbed: Option<Absorbed>,
    /// The answer set: `(id, dist)` pairs, nearest first.
    pub neighbors: Vec<(u64, u64)>,
}

impl Default for FlightRecord {
    /// All-zero counters with `weight` 1 — a default record stands for
    /// exactly one query, never zero.
    fn default() -> Self {
        FlightRecord {
            seq: 0,
            engine: String::new(),
            query_len: 0,
            k: 0,
            batch: None,
            database_size: 0,
            edr_computed: 0,
            pruned: 0,
            dp_cells: 0,
            timings: StageTimings::default(),
            scratch_reuses: 0,
            weight: 1,
            sampled: None,
            absorbed: None,
            neighbors: Vec::new(),
        }
    }
}

/// The timed parts and stage flows of one record of format `version`,
/// read through `u` (0 for a missing key). A version-1 record is
/// upgraded (see the module docs); a version-2 one must already satisfy
/// `x_in − x_out == pruned_x` for every stage.
fn timings_from(u: impl Fn(&str) -> u64, version: u64) -> Result<StageTimings, String> {
    let mut timings = StageTimings {
        setup_ns: u("setup_ns"),
        refine_ns: u("refine_ns"),
        total_ns: u("total_ns"),
        ..StageTimings::default()
    };
    for stage in Stage::ALL {
        let keys = stage.keys();
        let (out, pruned) = (u(keys.candidates_out), u(keys.pruned));
        let candidates_in = if version < 2 {
            out.checked_add(pruned)
        } else {
            Some(u(keys.candidates_in))
        };
        let Some(candidates_in) = candidates_in.filter(|i| i.checked_sub(out) == Some(pruned))
        else {
            return Err(format!(
                "{} {pruned} is not {} {} − {} {out}",
                keys.pruned,
                keys.candidates_in,
                u(keys.candidates_in),
                keys.candidates_out
            ));
        };
        *timings.stage_mut(stage) = StageStats {
            candidates_in: candidates_in as usize,
            candidates_out: out as usize,
            filter_ns: u(keys.filter_ns),
        };
    }
    Ok(timings)
}

impl FlightRecord {
    /// Parses one record line of a recording of format `version`.
    fn from_value(v: &Value, line_no: usize, version: u64) -> Result<Self, String> {
        let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let engine = v
            .get("engine")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {line_no}: flight record without an engine field"))?
            .to_string();
        let timings = timings_from(u, version).map_err(|e| format!("line {line_no}: {e}"))?;
        let mut neighbors = Vec::new();
        if let Some(s) = v.get("neighbors").and_then(Value::as_str) {
            for pair in s.split_whitespace() {
                let (id, dist) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("line {line_no}: malformed neighbor pair {pair:?}"))?;
                let id = id
                    .parse::<u64>()
                    .map_err(|e| format!("line {line_no}: neighbor id {id:?}: {e}"))?;
                let dist = dist
                    .parse::<u64>()
                    .map_err(|e| format!("line {line_no}: neighbor dist {dist:?}: {e}"))?;
                neighbors.push((id, dist));
            }
        }
        Ok(FlightRecord {
            seq: u("seq"),
            engine,
            query_len: u("query_len"),
            k: u("k"),
            batch: v.get("batch").and_then(Value::as_u64),
            database_size: u("database_size"),
            edr_computed: u("edr_computed"),
            pruned: u("pruned"),
            dp_cells: u("dp_cells"),
            timings,
            scratch_reuses: u("scratch_reuses"),
            weight: v.get("weight").and_then(Value::as_u64).unwrap_or(1).max(1),
            sampled: v.get("sampled").and_then(Value::as_str).map(str::to_string),
            absorbed: v.get("absorbed").map(|a| Absorbed::from_value(a, version)),
            neighbors,
        })
    }
}

/// A parsed recording: the header's `meta` object plus every flight
/// record, in file order (which is emission order — records carry `seq`
/// for workloads recorded across worker threads).
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Format version from the header.
    pub version: u64,
    /// The header's `meta` object (resolved CLI configuration).
    pub meta: Value,
    /// The recorded queries, in file order.
    pub records: Vec<FlightRecord>,
}

impl Recording {
    /// Parses recording text (header line + one record per line; blank
    /// lines are ignored).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header_line) = lines.next().ok_or("empty recording (no header line)")?;
        let header: Value = serde_json::from_str(header_line)
            .map_err(|e| format!("recording header is not valid JSON: {e}"))?;
        match header.get("format").and_then(Value::as_str) {
            Some(FLIGHT_FORMAT) => {}
            Some(other) => return Err(format!("not a flight recording (format {other:?})")),
            None => return Err("not a flight recording (header has no format field)".into()),
        }
        let version = header
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("recording header has no version field")?;
        if version > FLIGHT_VERSION {
            return Err(format!(
                "recording version {version} is newer than this build understands ({FLIGHT_VERSION})"
            ));
        }
        let meta = header.get("meta").cloned().unwrap_or_else(|| json!({}));
        let mut records = Vec::new();
        for (idx, line) in lines {
            let v: Value = serde_json::from_str(line)
                .map_err(|e| format!("line {}: not valid JSON: {e}", idx + 1))?;
            records.push(FlightRecord::from_value(&v, idx + 1, version)?);
        }
        Ok(Recording {
            version,
            meta,
            records,
        })
    }

    /// Reads and parses a recording file.
    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajsim_obs::Level;

    fn flight_record_fields(seq: u64, total_ns: u64) -> Vec<(&'static str, FieldValue)> {
        vec![
            ("engine", "seq-scan".into()),
            ("seq", seq.into()),
            ("query_len", 8usize.into()),
            ("k", 3usize.into()),
            ("database_size", 100usize.into()),
            ("edr_computed", 40usize.into()),
            ("pruned", 60usize.into()),
            ("dp_cells", 1234u64.into()),
            ("setup_ns", 10u64.into()),
            ("h_in", 100usize.into()),
            ("h_out", 40usize.into()),
            ("h_ns", 50u64.into()),
            ("pruned_h", 60usize.into()),
            ("refine_ns", 900u64.into()),
            ("total_ns", total_ns.into()),
            ("scratch_reuses", 7u64.into()),
            ("neighbors", "4:0 17:2 3:2".into()),
        ]
    }

    #[test]
    fn records_round_trip_through_the_wire_format() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let rec = FlightRecorder::to_writer(Box::new(Shared(buf.clone())));
        rec.write_header(json!({"command": "knn", "k": 3})).unwrap();
        for seq in 0..3u64 {
            let fields = flight_record_fields(seq, 1_000 + seq);
            rec.emit(&Record {
                level: Level::Debug,
                name: trajsim_prune::FLIGHT_EVENT,
                elapsed_ns: None,
                fields: &fields,
            });
        }
        // Non-flight records are ignored.
        rec.emit(&Record {
            level: Level::Debug,
            name: "knn.query",
            elapsed_ns: Some(5),
            fields: &[],
        });
        rec.finish().unwrap();
        assert_eq!(rec.records_written(), 3);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = Recording::parse(&text).unwrap();
        assert_eq!(parsed.version, FLIGHT_VERSION);
        assert_eq!(
            parsed.meta.get("command").and_then(Value::as_str),
            Some("knn")
        );
        assert_eq!(parsed.records.len(), 3);
        let r = &parsed.records[0];
        assert_eq!(r.engine, "seq-scan");
        assert_eq!(r.seq, 0);
        assert_eq!(r.query_len, 8);
        assert_eq!(r.k, 3);
        assert_eq!(r.batch, None);
        assert_eq!(r.edr_computed, 40);
        let h = r.timings.histogram;
        assert_eq!((h.candidates_in, h.pruned(), h.filter_ns), (100, 60, 50));
        assert_eq!(r.timings.total_ns, 1_000);
        assert_eq!(r.scratch_reuses, 7);
        assert_eq!(r.neighbors, vec![(4, 0), (17, 2), (3, 2)]);
        assert_eq!(parsed.records[2].timings.total_ns, 1_002);
    }

    #[test]
    fn emit_before_header_autowrites_a_minimal_header() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let rec = FlightRecorder::to_writer(Box::new(Shared(buf.clone())));
        let fields = flight_record_fields(0, 5);
        rec.emit(&Record {
            level: Level::Debug,
            name: trajsim_prune::FLIGHT_EVENT,
            elapsed_ns: None,
            fields: &fields,
        });
        rec.finish().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = Recording::parse(&text).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.meta, json!({}));
    }

    #[test]
    fn finish_with_no_records_writes_a_valid_empty_recording() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let rec = FlightRecorder::to_writer(Box::new(Shared(buf.clone())));
        rec.finish().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = Recording::parse(&text).unwrap();
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn sampled_recorder_keeps_last_of_every_n_with_absorbed_sums() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let config = SamplerConfig {
            every: 3,
            tail_quantile: 0.99,
            warmup: u64::MAX, // uniform path only
        };
        let rec = FlightRecorder::sampled_to_writer(Box::new(Shared(buf.clone())), config);
        rec.write_header(json!({"command": "knn"})).unwrap();
        for seq in 0..9u64 {
            let fields = flight_record_fields(seq, 10_000);
            rec.emit(&Record {
                level: Level::Debug,
                name: trajsim_prune::FLIGHT_EVENT,
                elapsed_ns: None,
                fields: &fields,
            });
        }
        rec.finish().unwrap();
        // The last of each run of 3 survives, closing the run; drops
        // are never serialized but their counter sums travel with the
        // keep under `absorbed`.
        assert_eq!(rec.records_written(), 3);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = Recording::parse(&text).unwrap();
        let seqs: Vec<u64> = parsed.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 5, 8]);
        for r in &parsed.records {
            assert_eq!(r.weight, 3);
            assert_eq!(r.sampled.as_deref(), Some("uniform"));
            let absorbed = r.absorbed.as_ref().expect("absorbed sums");
            assert_eq!(absorbed.queries, 2);
            assert_eq!(absorbed.batched, 0);
            assert_eq!(absorbed.sums.get("edr_computed"), Some(&80));
            assert_eq!(absorbed.sums.get("pruned"), Some(&120));
            assert_eq!(absorbed.sums.get("total_ns"), Some(&20_000));
            assert!(!absorbed.sums.contains_key("seq"));
        }
        // The header advertises the sampling config so readers reweight.
        let sampling = parsed.meta.get("sampling").expect("meta.sampling");
        assert_eq!(sampling.get("every").and_then(Value::as_u64), Some(3));
        assert_eq!(
            sampling.get("warmup").and_then(Value::as_u64),
            Some(u64::MAX)
        );
    }

    #[test]
    fn tail_outliers_survive_sampling_with_forensics() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let config = SamplerConfig {
            every: 1_000_000, // uniform path keeps (almost) nothing
            tail_quantile: 0.99,
            warmup: 4,
        };
        let rec = FlightRecorder::sampled_to_writer(Box::new(Shared(buf.clone())), config);
        for seq in 0..4u64 {
            let fields = flight_record_fields(seq, 10_000);
            rec.emit(&Record {
                level: Level::Debug,
                name: trajsim_prune::FLIGHT_EVENT,
                elapsed_ns: None,
                fields: &fields,
            });
        }
        // A 500x outlier after warmup: must be kept in full.
        let fields = flight_record_fields(4, 5_000_000);
        rec.emit(&Record {
            level: Level::Debug,
            name: trajsim_prune::FLIGHT_EVENT,
            elapsed_ns: None,
            fields: &fields,
        });
        rec.finish().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = Recording::parse(&text).unwrap();
        let tail = parsed
            .records
            .iter()
            .find(|r| r.seq == 4)
            .expect("outlier kept");
        assert_eq!(tail.sampled.as_deref(), Some("tail"));
        assert_eq!(tail.weight, 1);
        // Tail keeps carry an explain-grade per-stage breakdown inline.
        let line = text.lines().find(|l| l.contains("\"seq\":4")).unwrap();
        let doc: Value = serde_json::from_str(line).unwrap();
        let forensics = doc.get("forensics").and_then(Value::as_str).unwrap();
        for stage in [
            "setup=",
            "histogram=",
            "qgram=",
            "triangle=",
            "refine=",
            "other=",
        ] {
            assert!(forensics.contains(stage), "{forensics}");
        }
        // 960 ns of its 5 ms are timed parts: the rest is `other`.
        assert!(forensics.contains("other=100.0%"), "{forensics}");
    }

    #[test]
    fn weight_and_sampled_round_trip_and_default_sensibly() {
        // Pre-sampling recordings have neither field: weight defaults 1.
        let plain = format!(
            "{{\"format\":\"{FLIGHT_FORMAT}\",\"version\":1,\"meta\":{{}}}}\n\
             {{\"engine\":\"x\",\"seq\":0,\"total_ns\":5,\"neighbors\":\"\"}}\n\
             {{\"engine\":\"x\",\"seq\":1,\"total_ns\":9,\"weight\":8,\"sampled\":\"uniform\",\"neighbors\":\"\"}}"
        );
        let parsed = Recording::parse(&plain).unwrap();
        assert_eq!(parsed.records[0].weight, 1);
        assert_eq!(parsed.records[0].sampled, None);
        assert_eq!(parsed.records[1].weight, 8);
        assert_eq!(parsed.records[1].sampled.as_deref(), Some("uniform"));
    }

    #[test]
    fn version_1_flows_are_upgraded_on_read() {
        // Version 1 left the break-out prunes out of `h_in`; the credit
        // in `pruned_h` was whole, so `h_in = h_out + pruned_h`.
        let v1 = format!(
            "{{\"format\":\"{FLIGHT_FORMAT}\",\"version\":1,\"meta\":{{}}}}\n\
             {{\"engine\":\"x\",\"h_in\":355,\"h_out\":300,\"pruned_h\":900,\
             \"q_in\":300,\"q_out\":290,\"pruned_q\":10,\"weight\":2,\
             \"absorbed\":{{\"queries\":1,\"sums\":{{\"h_in\":5,\"h_out\":4,\"pruned_h\":7}}}}}}"
        );
        let parsed = Recording::parse(&v1).unwrap();
        let r = &parsed.records[0];
        let flow = |s: &StageStats| (s.candidates_in, s.pruned());
        assert_eq!(flow(&r.timings.histogram), (1_200, 900));
        assert_eq!(flow(&r.timings.qgram), (300, 10));
        assert_eq!(flow(&r.timings.triangle), (0, 0));
        let sums = &r.absorbed.as_ref().unwrap().sums;
        assert_eq!(sums.get("h_in"), Some(&11));
        // A credit whose upgraded flow would overflow is refused.
        let huge = v1.replace("\"pruned_h\":900", &format!("\"pruned_h\":{}", u64::MAX));
        assert!(Recording::parse(&huge).unwrap_err().contains("pruned_h"));
        // Version 2 flows are read as they are, and must already obey it.
        let v2 = v1.replace("\"version\":1", "\"version\":2");
        let err = Recording::parse(&v2).unwrap_err();
        assert!(err.contains("pruned_h 900 is not h_in 355"), "{err}");
        let v2 = v2.replace("\"h_in\":355", "\"h_in\":1200");
        let r = &Recording::parse(&v2).unwrap().records[0];
        assert_eq!(r.timings.histogram.candidates_in, 1_200);
        assert_eq!(r.absorbed.as_ref().unwrap().sums.get("h_in"), Some(&5));
    }

    #[test]
    fn parse_rejects_foreign_and_future_inputs() {
        assert!(Recording::parse("").is_err());
        assert!(Recording::parse("{\"counters\":{}}")
            .unwrap_err()
            .contains("format"));
        assert!(Recording::parse("{\"format\":\"other\",\"version\":1}")
            .unwrap_err()
            .contains("other"));
        let future = format!(
            "{{\"format\":\"{FLIGHT_FORMAT}\",\"version\":{}}}",
            FLIGHT_VERSION + 1
        );
        assert!(Recording::parse(&future).unwrap_err().contains("newer"));
        let bad_neighbor = format!(
            "{{\"format\":\"{FLIGHT_FORMAT}\",\"version\":1,\"meta\":{{}}}}\n{{\"engine\":\"x\",\"neighbors\":\"oops\"}}"
        );
        assert!(Recording::parse(&bad_neighbor)
            .unwrap_err()
            .contains("neighbor"));
    }
}
