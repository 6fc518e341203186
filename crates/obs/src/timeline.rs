//! Metrics time series: a bounded ring of interval rollups.
//!
//! A [`Timeline`] periodically snapshots a [`Registry`] and stores the
//! *delta* since the previous snapshot — counter increments, gauge
//! last-values, histogram bucket increments — as one `Interval` in a
//! fixed-capacity ring. When the ring is full the oldest interval is
//! folded into a cumulative `base`, so the invariant
//!
//! ```text
//! base + Σ(ring interval deltas) == current cumulative registry state
//! ```
//!
//! holds at every export, including after arbitrary wrap-around. The
//! exported JSON (`{"format": "trajsim-metrics-timeline", ...}`) is the
//! live-endpoint payload the ROADMAP's serve mode will stream; today the
//! CLI writes it next to `--metrics-out`.
//!
//! Ticking is driven from the `finish_query` chokepoint via the free
//! function [`note_query`]: with no timeline installed it costs one
//! relaxed atomic load, mirroring the tracing sink's `enabled()` gate.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::metrics::{self, HistogramState, Registry};

/// The timeline JSON `format` tag.
pub const TIMELINE_FORMAT: &str = "trajsim-metrics-timeline";
/// The timeline JSON schema version.
pub const TIMELINE_VERSION: u64 = 1;

/// Default number of queries per rollup interval.
pub const DEFAULT_INTERVAL_QUERIES: u64 = 64;
/// Default ring capacity (completed intervals retained in full).
pub const DEFAULT_CAPACITY: usize = 64;

/// A cumulative registry snapshot (raw values, not JSON).
#[derive(Debug, Clone, Default)]
struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramState>,
}

impl Snapshot {
    fn capture(registry: &Registry) -> Self {
        Snapshot {
            counters: registry.counter_values(),
            gauges: registry.gauge_values(),
            histograms: registry.histogram_values(),
        }
    }
}

/// One histogram's increment over an interval.
#[derive(Debug, Clone)]
struct HistogramDelta {
    count: u64,
    sum: u64,
    buckets: Vec<u64>,
}

/// One completed rollup interval: counter increments, gauge last-values,
/// histogram bucket increments, and how many queries elapsed.
#[derive(Debug, Clone)]
struct Interval {
    index: u64,
    queries: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramDelta>,
}

#[derive(Debug)]
struct Inner {
    /// Cumulative state at the end of the last completed interval.
    last: Snapshot,
    /// Cumulative fold of every evicted interval plus the creation-time
    /// snapshot: the ring's starting baseline.
    base: Snapshot,
    ring: VecDeque<Interval>,
    dropped: u64,
    next_index: u64,
    /// Query count at the last tick, to attribute queries per interval.
    last_tick_queries: u64,
}

/// A bounded metrics time series ticked on query completion.
///
/// All methods take the [`Registry`] to roll up; a timeline must always
/// be fed the **same** registry it was created against (the global path
/// uses [`metrics::global`] throughout).
#[derive(Debug)]
pub struct Timeline {
    interval_queries: u64,
    capacity: usize,
    queries: AtomicU64,
    inner: Mutex<Inner>,
}

impl Timeline {
    /// A timeline rolling up `registry` every `interval_queries`
    /// completed queries, retaining up to `capacity` intervals in full.
    /// The registry's current state becomes the baseline: the first
    /// interval's deltas are relative to *now*, not to zero.
    pub fn new(registry: &Registry, interval_queries: u64, capacity: usize) -> Self {
        let snap = Snapshot::capture(registry);
        Timeline {
            interval_queries: interval_queries.max(1),
            capacity: capacity.max(1),
            queries: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                last: snap.clone(),
                base: snap,
                ring: VecDeque::new(),
                dropped: 0,
                next_index: 0,
                last_tick_queries: 0,
            }),
        }
    }

    /// A timeline with the default interval and capacity.
    pub fn with_defaults(registry: &Registry) -> Self {
        Timeline::new(registry, DEFAULT_INTERVAL_QUERIES, DEFAULT_CAPACITY)
    }

    /// Queries per rollup interval.
    pub fn interval_queries(&self) -> u64 {
        self.interval_queries
    }

    /// Total queries observed via [`Timeline::note_query`].
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Completed intervals evicted from the ring (folded into `base`).
    pub fn intervals_dropped(&self) -> u64 {
        self.inner.lock().expect("timeline lock").dropped
    }

    /// Completed intervals currently retained in the ring.
    pub fn intervals_retained(&self) -> usize {
        self.inner.lock().expect("timeline lock").ring.len()
    }

    /// Notes one completed query; every `interval_queries`-th call rolls
    /// the current registry deltas into a new interval. The off-tick
    /// path is one relaxed `fetch_add`.
    pub fn note_query(&self, registry: &Registry) {
        let n = self.queries.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.interval_queries) {
            self.tick(registry);
        }
    }

    /// Forces an interval boundary now (also called internally on the
    /// query cadence). No-op when nothing changed since the last tick.
    pub fn tick(&self, registry: &Registry) {
        let mut inner = self.inner.lock().expect("timeline lock");
        self.capture_interval(&mut inner, registry);
    }

    fn capture_interval(&self, inner: &mut Inner, registry: &Registry) {
        let now = Snapshot::capture(registry);
        let queries_now = self.queries.load(Ordering::Relaxed);
        let queries = queries_now.saturating_sub(inner.last_tick_queries);

        let mut counters = BTreeMap::new();
        for (name, &v) in &now.counters {
            let prev = inner.last.counters.get(name).copied().unwrap_or(0);
            let delta = v.saturating_sub(prev);
            if delta != 0 {
                counters.insert(name.clone(), delta);
            }
        }
        let mut histograms = BTreeMap::new();
        for (name, hs) in &now.histograms {
            let delta = match inner.last.histograms.get(name) {
                Some(prev) if prev.bounds == hs.bounds && prev.counts.len() == hs.counts.len() => {
                    HistogramDelta {
                        count: hs.count().saturating_sub(prev.count()),
                        sum: hs.sum.wrapping_sub(prev.sum),
                        buckets: hs
                            .counts
                            .iter()
                            .zip(&prev.counts)
                            .map(|(a, b)| a.saturating_sub(*b))
                            .collect(),
                    }
                }
                // Bounds changed (registry cleared and re-created): the
                // previous state is unusable, treat it as zero.
                _ => HistogramDelta {
                    count: hs.count(),
                    sum: hs.sum,
                    buckets: hs.counts.clone(),
                },
            };
            if delta.count != 0 {
                histograms.insert(name.clone(), delta);
            }
        }
        let changed = queries > 0
            || !counters.is_empty()
            || !histograms.is_empty()
            || now.gauges != inner.last.gauges;
        if !changed {
            return;
        }

        let interval = Interval {
            index: inner.next_index,
            queries,
            counters,
            gauges: now.gauges.clone(),
            histograms,
        };
        inner.next_index += 1;
        inner.last_tick_queries = queries_now;
        inner.last = now;
        inner.ring.push_back(interval);
        while inner.ring.len() > self.capacity {
            let evicted = inner.ring.pop_front().expect("non-empty ring");
            Self::fold_into_base(&mut inner.base, &evicted);
            inner.dropped += 1;
        }
    }

    /// Folds an evicted interval's deltas into the cumulative base so
    /// `base + Σ(ring)` keeps reproducing the registry state.
    fn fold_into_base(base: &mut Snapshot, evicted: &Interval) {
        for (name, delta) in &evicted.counters {
            *base.counters.entry(name.clone()).or_insert(0) += delta;
        }
        base.gauges = evicted.gauges.clone();
        for (name, delta) in &evicted.histograms {
            match base.histograms.get_mut(name) {
                Some(hs) if hs.counts.len() == delta.buckets.len() => {
                    hs.sum = hs.sum.wrapping_add(delta.sum);
                    for (b, d) in hs.counts.iter_mut().zip(&delta.buckets) {
                        *b += d;
                    }
                }
                _ => {
                    base.histograms.insert(
                        name.clone(),
                        HistogramState {
                            bounds: Vec::new(),
                            counts: delta.buckets.clone(),
                            sum: delta.sum,
                        },
                    );
                }
            }
        }
    }

    fn json_u64_map(m: &BTreeMap<String, u64>) -> serde_json::Value {
        let mut out = serde_json::Map::new();
        for (name, &v) in m {
            out.insert(name.clone(), serde_json::Value::from(v));
        }
        serde_json::Value::Object(out)
    }

    fn json_i64_map(m: &BTreeMap<String, i64>) -> serde_json::Value {
        let mut out = serde_json::Map::new();
        for (name, &v) in m {
            out.insert(name.clone(), serde_json::Value::from(v));
        }
        serde_json::Value::Object(out)
    }

    /// Serializes the timeline, first folding any partial interval so
    /// the exported series reproduces the registry's cumulative state
    /// exactly: for every counter and histogram bucket,
    /// `base + Σ(intervals) == registry`, and the newest gauge
    /// last-values equal the registry's.
    pub fn to_json(&self, registry: &Registry) -> serde_json::Value {
        let mut inner = self.inner.lock().expect("timeline lock");
        self.capture_interval(&mut inner, registry);
        let base = &inner.base;
        let mut base_hists = serde_json::Map::new();
        for (name, hs) in &base.histograms {
            base_hists.insert(
                name.clone(),
                serde_json::json!({
                    "bounds": hs.bounds.clone(),
                    "counts": hs.counts.clone(),
                    "count": hs.count(),
                    "sum": hs.sum,
                }),
            );
        }
        let intervals: Vec<serde_json::Value> = inner
            .ring
            .iter()
            .map(|iv| {
                let mut hists = serde_json::Map::new();
                for (name, d) in &iv.histograms {
                    hists.insert(
                        name.clone(),
                        serde_json::json!({
                            "count": d.count,
                            "sum": d.sum,
                            "buckets": d.buckets.clone(),
                        }),
                    );
                }
                serde_json::json!({
                    "index": iv.index,
                    "queries": iv.queries,
                    "counters": Self::json_u64_map(&iv.counters),
                    "gauges": Self::json_i64_map(&iv.gauges),
                    "histograms": serde_json::Value::Object(hists),
                })
            })
            .collect();
        serde_json::json!({
            "format": TIMELINE_FORMAT,
            "version": TIMELINE_VERSION,
            "interval_queries": self.interval_queries,
            "capacity": self.capacity,
            "queries": self.queries.load(Ordering::Relaxed),
            "intervals_dropped": inner.dropped,
            "base": {
                "counters": Self::json_u64_map(&base.counters),
                "gauges": Self::json_i64_map(&base.gauges),
                "histograms": serde_json::Value::Object(base_hists),
            },
            "intervals": intervals,
        })
    }
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static TIMELINE: RwLock<Option<Arc<Timeline>>> = RwLock::new(None);

/// Installs (or removes, with `None`) the process-global timeline that
/// [`note_query`] ticks against [`metrics::global`]. Returns the
/// previously installed timeline, mirroring `trace::set_sink`.
pub fn set_timeline(timeline: Option<Arc<Timeline>>) -> Option<Arc<Timeline>> {
    let mut guard = TIMELINE.write().expect("timeline registration lock");
    INSTALLED.store(timeline.is_some(), Ordering::Relaxed);
    std::mem::replace(&mut *guard, timeline)
}

/// The currently installed global timeline, if any — the telemetry
/// server reads it to serve `GET /timeline` from the live ring.
pub fn current() -> Option<Arc<Timeline>> {
    TIMELINE.read().expect("timeline registration lock").clone()
}

/// Notes one completed query on the global timeline, if installed. With
/// none installed this is a single relaxed atomic load — cheap enough
/// for every engine's `finish_query` epilogue to call unconditionally.
pub fn note_query() {
    if !INSTALLED.load(Ordering::Relaxed) {
        return;
    }
    let timeline = TIMELINE.read().expect("timeline registration lock").clone();
    if let Some(timeline) = timeline {
        timeline.note_query(metrics::global());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum_series(doc: &serde_json::Value) -> (BTreeMap<String, u64>, BTreeMap<String, Vec<u64>>) {
        // base + Σ(interval deltas), reconstructed from the JSON.
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut buckets: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let base = doc.get("base").unwrap();
        for (name, v) in base.get("counters").unwrap().as_object().unwrap().iter() {
            counters.insert(name.clone(), v.as_u64().unwrap());
        }
        for (name, h) in base.get("histograms").unwrap().as_object().unwrap().iter() {
            let counts: Vec<u64> = h
                .get("counts")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|c| c.as_u64().unwrap())
                .collect();
            buckets.insert(name.clone(), counts);
        }
        for iv in doc.get("intervals").unwrap().as_array().unwrap() {
            for (name, v) in iv.get("counters").unwrap().as_object().unwrap().iter() {
                *counters.entry(name.clone()).or_insert(0) += v.as_u64().unwrap();
            }
            for (name, h) in iv.get("histograms").unwrap().as_object().unwrap().iter() {
                let deltas: Vec<u64> = h
                    .get("buckets")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|c| c.as_u64().unwrap())
                    .collect();
                let entry = buckets
                    .entry(name.clone())
                    .or_insert_with(|| vec![0; deltas.len()]);
                for (b, d) in entry.iter_mut().zip(&deltas) {
                    *b += d;
                }
            }
        }
        (counters, buckets)
    }

    #[test]
    fn intervals_roll_up_counter_deltas() {
        let r = Registry::new();
        r.counter("pre").add(7); // pre-existing state lands in base
        let tl = Timeline::new(&r, 2, 8);
        r.counter("knn.queries").add(1);
        tl.note_query(&r);
        r.counter("knn.queries").add(1);
        tl.note_query(&r); // tick at query 2
        assert_eq!(tl.intervals_retained(), 1);
        let doc = tl.to_json(&r);
        assert_eq!(
            doc.get("format").and_then(|v| v.as_str()),
            Some(TIMELINE_FORMAT)
        );
        assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(1));
        let pre = doc
            .get("base")
            .and_then(|b| b.get("counters"))
            .and_then(|c| c.get("pre"))
            .and_then(|v| v.as_u64());
        assert_eq!(pre, Some(7));
        let (counters, _) = sum_series(&doc);
        assert_eq!(counters["knn.queries"], 2);
        assert_eq!(counters["pre"], 7);
    }

    #[test]
    fn quiet_ticks_produce_no_intervals() {
        let r = Registry::new();
        let tl = Timeline::new(&r, 1, 4);
        tl.tick(&r);
        tl.tick(&r);
        assert_eq!(tl.intervals_retained(), 0);
        assert_eq!(tl.intervals_dropped(), 0);
    }

    #[test]
    fn final_partial_interval_is_flushed_on_export() {
        let r = Registry::new();
        let tl = Timeline::new(&r, 1000, 4); // cadence never fires
        r.counter("c").add(3);
        tl.note_query(&r);
        let doc = tl.to_json(&r);
        let (counters, _) = sum_series(&doc);
        assert_eq!(counters["c"], 3);
        assert_eq!(doc.get("queries").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn global_note_query_is_a_noop_without_a_timeline() {
        let prev = set_timeline(None);
        note_query(); // must not panic or tick anything
        set_timeline(prev);
    }

    proptest! {
        /// The satellite invariant: after an arbitrary operation
        /// sequence — enough ticks to wrap a tiny ring several times —
        /// `base + Σ(interval deltas)` reproduces the registry's
        /// cumulative counters and per-bucket histogram counts exactly,
        /// and the newest gauge last-values match the registry.
        #[test]
        fn series_sums_back_to_the_cumulative_snapshot(
            steps in proptest::collection::vec(
                (0u8..3, 0usize..3, 1u64..1000), 1..60),
            capacity in 1usize..5,
        ) {
            let r = Registry::new();
            let names = ["a", "b", "c"];
            let tl = Timeline::new(&r, 1, capacity);
            for (kind, which, value) in steps {
                match kind {
                    0 => r.counter(names[which]).add(value),
                    1 => r.gauge(names[which]).set(value as i64 - 500),
                    _ => r.histogram(names[which]).record(value * 1000),
                }
                tl.note_query(&r); // interval per step → guaranteed wrap
            }
            let doc = tl.to_json(&r);
            let (counters, buckets) = sum_series(&doc);
            prop_assert_eq!(&counters, &r.counter_values());
            let live: BTreeMap<String, Vec<u64>> = r
                .histogram_values()
                .into_iter()
                .map(|(name, hs)| (name, hs.counts))
                .collect();
            prop_assert_eq!(&buckets, &live);
            // Newest gauges (last interval if any, else base).
            let intervals = doc.get("intervals").unwrap().as_array().unwrap();
            let gauges = intervals
                .last()
                .map(|iv| iv.get("gauges").unwrap())
                .unwrap_or_else(|| doc.get("base").unwrap().get("gauges").unwrap());
            let live_gauges = r.gauge_values();
            for (name, v) in gauges.as_object().unwrap().iter() {
                prop_assert_eq!(v.as_i64().unwrap(), live_gauges[name]);
            }
            // Every step changed a metric and ticked, so each produced
            // exactly one interval; any beyond `capacity` were evicted
            // into base — the wrap-around this test exists to cover.
            let dropped = doc.get("intervals_dropped").and_then(|v| v.as_u64()).unwrap() as usize;
            prop_assert_eq!(
                dropped + intervals.len(),
                doc.get("queries").and_then(|v| v.as_u64()).unwrap() as usize
            );
            prop_assert!(intervals.len() <= capacity);
        }
    }
}
