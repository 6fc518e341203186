//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Designed to stay enabled in release builds: every recording operation
//! is a handful of relaxed atomic adds, and no lock is taken on the hot
//! path. The only locking is the registry's name → handle map, touched
//! when a handle is first created (or when a caller looks one up by name
//! instead of caching the returned [`Arc`] — fine per query, not per
//! candidate).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` exceeds the current value
    /// (monotonic high-water mark, e.g. peak scratch bytes).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds in nanoseconds: powers of four
/// from 1 µs to ≈ 4.4 s (12 finite buckets), plus the implicit overflow
/// bucket. Wide enough for a DP-kernel call on one end and a full-scan
/// query on a paper-scale database on the other.
pub const DEFAULT_LATENCY_BOUNDS_NS: [u64; 12] = [
    1 << 10, // ~1 µs
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20, // ~1 ms
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30, // ~1.1 s
    1 << 32, // ~4.3 s
];

/// A fixed-bucket histogram. Bucket `i` counts recorded values `v` with
/// `v <= bounds[i]` (and greater than the previous bound); one extra
/// overflow bucket counts everything above the last bound. Recording is
/// a binary search over the (immutable) bounds plus three relaxed atomic
/// adds — no allocation, no locks.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// A histogram with [`DEFAULT_LATENCY_BOUNDS_NS`].
    pub fn latency() -> Self {
        Histogram::with_bounds(DEFAULT_LATENCY_BOUNDS_NS.to_vec())
    }

    /// The bucket index `value` falls into: the first bound `>= value`,
    /// or the overflow bucket.
    pub fn bucket_index(&self, value: u64) -> usize {
        self.bounds.partition_point(|&b| b < value)
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[self.bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wraps on overflow, like Prometheus counters).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The mean observation, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The bucket upper bounds (the overflow bucket has no bound).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) of the recorded values —
    /// see [`quantile_from_buckets`] for the estimation model. Under
    /// concurrent recording the per-bucket counts are read one relaxed
    /// load at a time, so the estimate can lag in-flight records by a
    /// few observations; it is never torn within a bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.bounds, &self.bucket_counts(), q)
    }
}

/// Estimated `q`-quantile (`0.0..=1.0`) of a fixed-bucket histogram
/// given its upper `bounds` and per-bucket `counts` (overflow bucket
/// last, as [`Histogram::bucket_counts`] returns them) — Prometheus
/// `histogram_quantile` semantics:
///
/// - the target rank is `q × count`; the answer comes from the first
///   bucket whose cumulative count reaches it;
/// - within that bucket the value is linearly interpolated between the
///   previous bound (0 for the first bucket) and the bucket's bound;
/// - a rank landing in the overflow bucket is clamped to the last
///   finite bound (the histogram cannot know how far above it the true
///   values lie).
///
/// Returns 0 with no observations. The estimate is monotone in `q` and
/// always within the bucket that holds the sorted-sample quantile, so
/// its error is bounded by that bucket's width.
///
/// This free function is the single quantile implementation shared by
/// the live [`Histogram`] and any consumer re-aggregating persisted
/// bucket counts (the flight-recorder stats store), so both report
/// identical percentiles for identical counts.
pub fn quantile_from_buckets(bounds: &[u64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || bounds.is_empty() {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let prev = cum;
        cum += c;
        if (cum as f64) >= target {
            if i >= bounds.len() {
                return bounds[bounds.len() - 1] as f64;
            }
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            let hi = bounds[i] as f64;
            if c == 0 {
                return hi;
            }
            return lo + (hi - lo) * ((target - prev as f64) / c as f64);
        }
    }
    bounds[bounds.len() - 1] as f64
}

/// One histogram's raw state, as returned by
/// [`Registry::histogram_values`]: bucket upper bounds, per-bucket
/// counts (overflow bucket last), and the running sum of observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramState {
    /// Bucket upper bounds (the overflow bucket has no bound).
    pub bounds: Vec<u64>,
    /// Per-bucket counts, overflow bucket last (`bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Sum of recorded values (wraps on overflow).
    pub sum: u64,
}

impl HistogramState {
    /// Total number of observations across all buckets.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A process-wide collection of named metrics. Handles are created on
/// first use and shared; recording through a handle never locks.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().expect("registry lock").get(name) {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().expect("registry lock").get(name) {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created with the default latency
    /// buckets on first use. To choose bounds, create it first via
    /// [`Registry::histogram_with_bounds`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("registry lock").get(name) {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("registry lock");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::latency())),
        )
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (an existing histogram keeps its original bounds).
    pub fn histogram_with_bounds(&self, name: &str, bounds: Vec<u64>) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("registry lock").get(name) {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("registry lock");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::with_bounds(bounds))),
        )
    }

    /// Drops every metric name from the registry (tests; snapshots of
    /// long-lived processes should subtract instead).
    ///
    /// Live `Arc<Counter>` / `Arc<Gauge>` / `Arc<Histogram>` handles
    /// obtained before the clear stay valid but become **detached**:
    /// writes through them land on the dropped-from-the-map instance
    /// and are invisible to every later [`Registry::snapshot_json`] —
    /// they can never corrupt the next snapshot. A post-clear lookup of
    /// the same name creates a *fresh* metric starting at zero, sharing
    /// no state with the stale handle. Callers that cache handles
    /// across a clear must re-fetch them to be counted again.
    pub fn clear(&self) {
        self.counters.write().expect("registry lock").clear();
        self.gauges.write().expect("registry lock").clear();
        self.histograms.write().expect("registry lock").clear();
    }

    /// Raw counter values by name, sorted by name (the map is a
    /// `BTreeMap`).
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        self.counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// Raw gauge values by name, sorted by name.
    pub fn gauge_values(&self) -> BTreeMap<String, i64> {
        self.gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// Raw histogram state by name, sorted by name: the bucket upper
    /// bounds, per-bucket counts (overflow last), and the running sum.
    /// Under concurrent recording the three reads are not atomic with
    /// respect to each other, so a snapshot can lag in-flight records by
    /// a few observations — the same caveat as [`Histogram::quantile`].
    pub fn histogram_values(&self) -> BTreeMap<String, HistogramState> {
        self.histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    HistogramState {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                    },
                )
            })
            .collect()
    }

    /// The registry's state as a JSON value:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {"count", "sum", "mean", "p50", "p95", "p99",
    /// "buckets": [{"le", "count"}, ...]}}}`. The percentile keys are
    /// [`Histogram::quantile`] estimates (interpolated within buckets).
    pub fn snapshot_json(&self) -> serde_json::Value {
        let mut counters = serde_json::Map::new();
        for (name, c) in self.counters.read().expect("registry lock").iter() {
            counters.insert(name.clone(), serde_json::Value::from(c.get()));
        }
        let mut gauges = serde_json::Map::new();
        for (name, g) in self.gauges.read().expect("registry lock").iter() {
            gauges.insert(name.clone(), serde_json::Value::from(g.get()));
        }
        let mut histograms = serde_json::Map::new();
        for (name, h) in self.histograms.read().expect("registry lock").iter() {
            let counts = h.bucket_counts();
            let mut buckets = Vec::with_capacity(counts.len());
            for (i, count) in counts.iter().enumerate() {
                let le = h
                    .bounds()
                    .get(i)
                    .map(|&b| serde_json::Value::from(b))
                    .unwrap_or_else(|| serde_json::Value::from("+inf"));
                buckets.push(serde_json::json!({ "le": le, "count": *count }));
            }
            histograms.insert(
                name.clone(),
                serde_json::json!({
                    "count": h.count(),
                    "sum": h.sum(),
                    "mean": h.mean(),
                    "p50": quantile_from_buckets(h.bounds(), &counts, 0.50),
                    "p95": quantile_from_buckets(h.bounds(), &counts, 0.95),
                    "p99": quantile_from_buckets(h.bounds(), &counts, 0.99),
                    "buckets": buckets,
                }),
            );
        }
        serde_json::json!({
            "counters": serde_json::Value::Object(counters),
            "gauges": serde_json::Value::Object(gauges),
            "histograms": serde_json::Value::Object(histograms),
        })
    }
}

/// The process-global registry the trajsim crates record into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("a");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a").get(), 5);
        let g = r.gauge("b");
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge("b").get(), 7);
        r.clear();
        assert_eq!(r.counter("a").get(), 0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        // On the bound goes into that bucket; one above spills over.
        for (v, idx) in [
            (0u64, 0usize),
            (10, 0),
            (11, 1),
            (100, 1),
            (101, 2),
            (1000, 2),
            (1001, 3),
            (u64::MAX, 3),
        ] {
            assert_eq!(h.bucket_index(v), idx, "value {v}");
        }
        h.record(10);
        h.record(11);
        h.record(5000);
        assert_eq!(h.bucket_counts(), vec![1, 1, 0, 1]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5021);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::with_bounds(vec![10, 10]);
    }

    #[test]
    fn default_latency_bounds_are_ascending() {
        let h = Histogram::latency();
        assert_eq!(h.bounds(), &DEFAULT_LATENCY_BOUNDS_NS);
        assert_eq!(h.bucket_counts().len(), DEFAULT_LATENCY_BOUNDS_NS.len() + 1);
    }

    #[test]
    fn counter_accumulates_under_par_for() {
        // The satellite check: concurrent recording through the shared
        // handles loses nothing.
        trajsim_parallel::set_num_threads(4);
        let r = Registry::new();
        let c = r.counter("hits");
        let h = r.histogram_with_bounds("lat", vec![100, 10_000]);
        let n = 10_000u64;
        trajsim_parallel::par_for(n as usize, |i| {
            c.add(1);
            h.record(i as u64);
        });
        trajsim_parallel::set_num_threads(0);
        assert_eq!(c.get(), n);
        assert_eq!(h.count(), n);
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), n);
    }

    #[test]
    fn snapshot_contains_every_metric() {
        let r = Registry::new();
        r.counter("c1").add(2);
        r.gauge("g1").set(-4);
        r.histogram("h1").record(2048);
        let snap = r.snapshot_json();
        let text = serde_json::to_string(&snap).unwrap();
        assert!(text.contains("\"c1\":2"));
        assert!(text.contains("\"g1\":-4"));
        assert!(text.contains("\"h1\""));
        assert!(text.contains("+inf"));
    }

    #[test]
    fn snapshot_key_order_is_sorted_and_deterministic() {
        // Successive snapshots must diff stably: keys come out in sorted
        // order regardless of creation order. Pinned here because the vendored serde_json Map preserves insertion order
        // — the sorting comes from the registry's BTreeMaps, and this
        // test keeps anyone from swapping them for hash maps.
        let r = Registry::new();
        for name in ["zeta", "alpha", "mid.dle", "alpha.sub"] {
            r.counter(name).inc();
            r.gauge(name).set(1);
            r.histogram(name).record(1);
        }
        let snap = r.snapshot_json();
        for section in ["counters", "gauges", "histograms"] {
            let keys: Vec<&String> = snap
                .get(section)
                .and_then(|v| v.as_object())
                .expect("section object")
                .iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(
                keys,
                vec!["alpha", "alpha.sub", "mid.dle", "zeta"],
                "unsorted {section} keys"
            );
        }
        // Two snapshots of the same state serialize identically.
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&r.snapshot_json()).unwrap()
        );
    }

    #[test]
    fn raw_value_accessors_mirror_the_snapshot() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(-2);
        let h = r.histogram_with_bounds("h", vec![10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        assert_eq!(r.counter_values().get("c"), Some(&3));
        assert_eq!(r.gauge_values().get("g"), Some(&-2));
        let hs = &r.histogram_values()["h"];
        assert_eq!(hs.bounds, vec![10, 100]);
        assert_eq!(hs.counts, vec![1, 1, 1]);
        assert_eq!(hs.sum, 555);
        assert_eq!(hs.count(), 3);
    }

    #[test]
    fn clear_detaches_live_handles_from_future_snapshots() {
        // The documented `clear()` contract: stale handles keep working
        // on their own detached instances and can never corrupt the
        // next snapshot; fresh lookups start at zero.
        let r = Registry::new();
        let stale_c = r.counter("knn.queries");
        let stale_g = r.gauge("peak");
        let stale_h = r.histogram("lat");
        stale_c.add(5);
        stale_g.set(9);
        stale_h.record(100);
        r.clear();
        // Writes through the stale handles after the clear...
        stale_c.add(100);
        stale_g.set(77);
        stale_h.record(1);
        // ...stay on the detached instances,
        assert_eq!(stale_c.get(), 105);
        assert_eq!(stale_g.get(), 77);
        assert_eq!(stale_h.count(), 2);
        // ...while the registry's snapshot is empty,
        let empty = r.snapshot_json();
        assert!(empty.get("counters").unwrap().get("knn.queries").is_none());
        assert!(empty.get("histograms").unwrap().get("lat").is_none());
        // ...and re-looked-up names are fresh zero-valued metrics that
        // share no state with the stale handles.
        let fresh_c = r.counter("knn.queries");
        assert_eq!(fresh_c.get(), 0);
        fresh_c.inc();
        stale_c.add(50);
        assert_eq!(r.counter("knn.queries").get(), 1);
        let fresh_h = r.histogram("lat");
        assert_eq!(fresh_h.count(), 0);
        fresh_h.record(7);
        let snap = r.snapshot_json();
        let lat = snap.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(lat.get("count").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn quantiles_match_a_sorted_sample_oracle_within_bucket_width() {
        // Unit-width buckets make the bracket tight: the interpolated
        // estimate and the naive sorted-sample quantile always share a
        // bucket, so they agree to within its width (1 here).
        let bounds: Vec<u64> = (1..=1000).collect();
        let h = Histogram::with_bounds(bounds);
        let mut values: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let oracle = values[rank - 1] as f64;
            let est = h.quantile(q);
            assert!(
                (est - oracle).abs() <= 1.0 + 1e-9,
                "q={q}: estimate {est} vs oracle {oracle}"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::with_bounds(vec![10, 100]);
        assert_eq!(h.quantile(0.5), 0.0, "no observations");
        h.record(5);
        // One observation in [0, 10]: the median interpolates inside it.
        let m = h.quantile(0.5);
        assert!(m > 0.0 && m <= 10.0, "median {m}");
        // Overflow observations clamp to the last finite bound.
        for _ in 0..100 {
            h.record(5_000);
        }
        assert_eq!(h.quantile(0.99), 100.0);
        // The shared free function agrees with the method exactly.
        assert_eq!(
            h.quantile(0.5),
            quantile_from_buckets(h.bounds(), &h.bucket_counts(), 0.5)
        );
    }

    #[test]
    fn quantile_from_buckets_degenerate_inputs() {
        // The SLO engine feeds this function arbitrary persisted bucket
        // vectors; the degenerate shapes must stay total and finite.
        assert_eq!(quantile_from_buckets(&[], &[], 0.5), 0.0, "no bounds");
        assert_eq!(quantile_from_buckets(&[10], &[0, 0], 0.5), 0.0, "no mass");
        assert_eq!(
            quantile_from_buckets(&[], &[5], 0.5),
            0.0,
            "mass, no bounds"
        );
        // All mass in the overflow bucket clamps to the last bound.
        assert_eq!(quantile_from_buckets(&[10, 100], &[0, 0, 7], 0.01), 100.0);
        assert_eq!(quantile_from_buckets(&[10, 100], &[0, 0, 7], 1.0), 100.0);
        // A single finite bucket holding everything interpolates in it.
        let m = quantile_from_buckets(&[10], &[4, 0], 0.5);
        assert!(m > 0.0 && m <= 10.0, "median {m}");
        assert_eq!(quantile_from_buckets(&[10], &[4, 0], 1.0), 10.0);
    }

    proptest! {
        /// q=0.0 and q=1.0 are total and bounded for every histogram
        /// shape: 0.0 never exceeds 1.0, both stay within
        /// `[0, last_bound]`, out-of-range q clamps to the same values,
        /// and 1.0 reaches the last finite bound exactly whenever any
        /// mass sits in the overflow bucket.
        #[test]
        fn quantile_extremes_are_total_and_bounded(
            raw_bounds in proptest::collection::vec(1u64..1_000_000, 1..10),
            counts_seed in proptest::collection::vec(0u64..50, 1..12),
        ) {
            let mut bounds = raw_bounds.clone();
            bounds.sort_unstable();
            bounds.dedup();
            // Size the count vector to bounds.len() + 1 (overflow last).
            let mut counts = vec![0u64; bounds.len() + 1];
            let slots = counts.len();
            for (i, &c) in counts_seed.iter().enumerate() {
                counts[i % slots] += c;
            }
            let total: u64 = counts.iter().sum();
            let last = *bounds.last().unwrap() as f64;
            let lo = quantile_from_buckets(&bounds, &counts, 0.0);
            let hi = quantile_from_buckets(&bounds, &counts, 1.0);
            if total == 0 {
                prop_assert_eq!(lo, 0.0);
                prop_assert_eq!(hi, 0.0);
            } else {
                prop_assert!(lo <= hi, "q=0 ({lo}) above q=1 ({hi})");
                prop_assert!((0.0..=last).contains(&lo));
                prop_assert!((0.0..=last).contains(&hi));
                // Out-of-range q clamps rather than extrapolating.
                prop_assert_eq!(quantile_from_buckets(&bounds, &counts, -3.0), lo);
                prop_assert_eq!(quantile_from_buckets(&bounds, &counts, 7.5), hi);
                if counts[bounds.len()] > 0 {
                    // Overflow mass: the maximum clamps to the last
                    // finite bound, the only honest answer available.
                    prop_assert_eq!(hi, last);
                }
            }
        }

        /// Every value lands in exactly one bucket, and that bucket's
        /// bounds bracket it: bucket `i` holds `v <= bounds[i]`, the
        /// overflow bucket holds `v > bounds[last]` — including the
        /// extremes 0 and `u64::MAX`.
        #[test]
        fn bucket_index_brackets_the_value(
            raw in proptest::collection::vec(1u64..1_000_000, 1..12),
            base in 0u64..2_000_000,
            sel in 0u64..8,
        ) {
            // Mix ordinary values with the extremes the contract names:
            // 0 lands in bucket 0, `u64::MAX` in the overflow bucket.
            let value = match sel {
                0 => 0u64,
                1 => u64::MAX,
                2 => u64::MAX - 1,
                _ => base,
            };
            let mut bounds = raw.clone();
            bounds.sort_unstable();
            bounds.dedup();
            let h = Histogram::with_bounds(bounds.clone());
            let idx = h.bucket_index(value);
            if idx < bounds.len() {
                prop_assert!(value <= bounds[idx]);
            } else {
                prop_assert!(value > *bounds.last().unwrap());
            }
            if idx > 0 {
                prop_assert!(value > bounds[idx - 1]);
            }
            // Recording at the extremes must neither panic nor miss.
            h.record(value);
            prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), 1);
        }

        /// Quantile estimates are monotone in `q` and stay inside the
        /// recordable range, under arbitrary recorded values (including
        /// overflow-bucket values).
        #[test]
        fn quantiles_are_monotone_under_random_records(
            values in proptest::collection::vec(0u64..6_000_000_000, 1..200),
            qs in proptest::collection::vec(0.0f64..=1.0, 2..8),
        ) {
            let h = Histogram::latency();
            for &v in &values {
                h.record(v);
            }
            let mut qs = qs;
            qs.sort_by(f64::total_cmp);
            let est: Vec<f64> = qs.iter().map(|&q| h.quantile(q)).collect();
            for w in est.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-9, "not monotone: {est:?} at {qs:?}");
            }
            let last = *h.bounds().last().unwrap() as f64;
            for &e in &est {
                prop_assert!((0.0..=last).contains(&e), "out of range: {e}");
            }
        }
    }
}
