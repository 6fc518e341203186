//! # trajsim-parallel
//!
//! Data-parallel primitives for the trajsim workspace, built on
//! `std::thread::scope` — no external runtime. Provides what rayon's
//! `par_iter().map().collect()` would: [`par_map`] over a slice and
//! [`par_for`] over an index range, both with **dynamic chunking** (a
//! shared atomic cursor hands out small index blocks, so uneven work —
//! e.g. early-abandoned EDR computations — balances across threads).
//!
//! The thread count is resolved per call by [`num_threads`]:
//! [`set_num_threads`] override, else the `TRAJSIM_THREADS` environment
//! variable, else `std::thread::available_parallelism`
//! ([`num_threads_with_source`] also reports which of the three won).
//! On a pool's own worker threads [`num_threads`] is 1, so a parallel
//! call nested inside another (a parallel scan answering one query of a
//! parallel batch) runs serially instead of starting T² threads. With
//! one thread (or one item) everything degrades to the serial loop, so
//! callers can use these primitives unconditionally.
//!
//! Every genuinely parallel pool run feeds the `trajsim-obs` global
//! metrics registry — `parallel.pool_runs`, `parallel.tasks`, summed
//! `parallel.worker_busy_ns` / `parallel.worker_idle_ns`, and a
//! `parallel.worker_tasks` histogram of per-worker task counts (load
//! balance) — and emits a `parallel.pool` debug trace event. The serial
//! fallback records nothing.
//!
//! Worker panics propagate to the caller (matching rayon).

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is one of a pool's workers.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a pool worker for the rest of its life
/// (pool threads are scoped: they end with the pool run).
fn enter_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// Forces the number of worker threads used by this crate; `0` restores
/// automatic selection.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Where the resolved thread count came from, in resolution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadSource {
    /// A [`set_num_threads`] override is in effect.
    Override,
    /// The `TRAJSIM_THREADS` environment variable.
    Env,
    /// `std::thread::available_parallelism` (or 1 if unavailable).
    Auto,
}

impl ThreadSource {
    /// Stable lowercase label for reports and JSON ("override" / "env" /
    /// "auto").
    pub fn as_str(&self) -> &'static str {
        match self {
            ThreadSource::Override => "override",
            ThreadSource::Env => "env",
            ThreadSource::Auto => "auto",
        }
    }
}

/// The number of worker threads parallel calls will use: 1 on a pool's
/// own worker threads (nested calls run serially), else
/// [`set_num_threads`] override, else `TRAJSIM_THREADS`, else
/// `available_parallelism` (at least 1).
pub fn num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    num_threads_with_source().0
}

/// The configured thread count (what [`num_threads`] returns off a pool
/// worker) plus which resolution step produced it — the CLI and bench
/// harness report both so measurements are attributable.
pub fn num_threads_with_source() -> (usize, ThreadSource) {
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return (over, ThreadSource::Override);
    }
    if let Some(n) = std::env::var("TRAJSIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return (n, ThreadSource::Env);
    }
    let auto = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    (auto, ThreadSource::Auto)
}

/// Elapsed nanoseconds since `start`, saturating into `u64`.
#[inline]
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Worker epilogue, called on the worker's own thread so sinks that
/// capture thread ids (the profile collector) attribute the record to
/// the right worker: a span-shaped `parallel.worker` debug record with
/// the worker's busy time and task count.
fn record_worker(busy_ns: u64, tasks: u64) {
    if trajsim_obs::enabled(trajsim_obs::Level::Debug) {
        trajsim_obs::emit_span(
            trajsim_obs::Level::Debug,
            "parallel.worker",
            busy_ns,
            &[
                ("tasks", tasks.into()),
                ("thread", trajsim_obs::thread_id().into()),
            ],
        );
    }
}

/// Pool-run epilogue: global metrics plus a `parallel.pool` trace event.
/// `busy_ns` is summed across workers; idle is the pool's wall time the
/// workers did not spend busy (`threads × wall − busy`, saturating).
fn record_pool(tasks: usize, threads: usize, wall_ns: u64, busy_ns: u64, worker_tasks: &[u64]) {
    let m = trajsim_obs::metrics::global();
    m.counter("parallel.pool_runs").inc();
    m.counter("parallel.tasks").add(tasks as u64);
    m.counter("parallel.worker_busy_ns").add(busy_ns);
    let idle_ns = (wall_ns * threads as u64).saturating_sub(busy_ns);
    m.counter("parallel.worker_idle_ns").add(idle_ns);
    let per_worker = m.histogram_with_bounds(
        "parallel.worker_tasks",
        (0..16).map(|i| 1u64 << i).collect(),
    );
    for &t in worker_tasks {
        per_worker.record(t);
    }
    trajsim_obs::event!(
        trajsim_obs::Level::Debug,
        "parallel.pool",
        tasks = tasks,
        threads = threads,
        wall_ns = wall_ns,
        busy_ns = busy_ns,
        idle_ns = idle_ns,
    );
}

/// How many indices a worker claims per grab: small enough to balance
/// uneven work, large enough to keep cursor contention negligible.
fn block_size(n: usize, threads: usize) -> usize {
    (n / (threads * 8)).clamp(1, 1024)
}

/// Applies `f(index, &item)` to every item, in parallel, returning the
/// results in item order. Equivalent to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`.
///
/// # Panics
///
/// Re-raises a panic from any invocation of `f`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, || (), move |(), i, t| f(i, t))
}

/// [`par_map`] with per-worker scratch state: every worker calls `init()`
/// exactly once when it starts and passes the resulting value, mutably, to
/// each `f(&mut scratch, index, &item)` it executes. The serial fallback
/// creates one scratch and reuses it for every item.
///
/// This is how the k-NN engines keep the refine stage allocation-free: the
/// scratch is an `EdrWorkspace` (DP rows + bit-vectors) that warms up on a
/// worker's first item and is reused across the whole batch, however the
/// dynamic chunking distributes the items.
///
/// # Panics
///
/// Re-raises a panic from any invocation of `init` or `f`.
pub fn par_map_with<T, S, R, INIT, F>(items: &[T], init: INIT, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut scratch, i, t))
            .collect();
    }

    let t_pool = Instant::now();
    let cursor = AtomicUsize::new(0);
    let busy_total = AtomicU64::new(0);
    let block = block_size(n, threads);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    enter_worker();
                    let t_worker = Instant::now();
                    let mut scratch = init();
                    let mut out = Vec::new();
                    loop {
                        let start = cursor.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for (i, item) in items
                            .iter()
                            .enumerate()
                            .take((start + block).min(n))
                            .skip(start)
                        {
                            out.push((i, f(&mut scratch, i, item)));
                        }
                    }
                    let busy = elapsed_ns(t_worker);
                    busy_total.fetch_add(busy, Ordering::Relaxed);
                    record_worker(busy, out.len() as u64);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let worker_tasks: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
    record_pool(
        n,
        threads,
        elapsed_ns(t_pool),
        busy_total.load(Ordering::Relaxed),
        &worker_tasks,
    );

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

/// Applies `f(i)` to every `i in 0..n`, in parallel, returning the
/// results in index order — [`par_map`] without a backing slice (e.g.
/// triangular matrix rows of varying length).
///
/// # Panics
///
/// Re-raises a panic from any invocation of `f`.
pub fn par_for_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |_, &i| f(i))
}

/// Runs `f(i)` for every `i in 0..n`, in parallel, with the same dynamic
/// chunking as [`par_map`]. Use when results land in shared state
/// (atomics, pre-split slices) instead of a returned `Vec`.
///
/// # Panics
///
/// Re-raises a panic from any invocation of `f`.
pub fn par_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }

    let t_pool = Instant::now();
    let cursor = AtomicUsize::new(0);
    let busy_total = AtomicU64::new(0);
    let block = block_size(n, threads);
    let worker_tasks: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    enter_worker();
                    let t_worker = Instant::now();
                    let mut done = 0u64;
                    loop {
                        let start = cursor.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + block).min(n);
                        for i in start..end {
                            f(i);
                        }
                        done += (end - start) as u64;
                    }
                    let busy = elapsed_ns(t_worker);
                    busy_total.fetch_add(busy, Ordering::Relaxed);
                    record_worker(busy, done);
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    record_pool(
        n,
        threads,
        elapsed_ns(t_pool),
        busy_total.load(Ordering::Relaxed),
        &worker_tasks,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_in_order() {
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let parallel = par_map(&items, |_, &x| x * x + 1);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn par_map_passes_indices() {
        let items = vec!["a", "b", "c", "d"];
        let got = par_map(&items, |i, s| format!("{i}{s}"));
        assert_eq!(got, ["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[5u8], |i, &x| (i, x)), vec![(0, 5)]);
    }

    #[test]
    fn par_map_with_initializes_one_scratch_per_worker() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let _guard = ResetThreads;
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..500).collect();
        let got = par_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |scratch, _, &x| {
                scratch.push(x); // scratch persists across this worker's items
                x * 2
            },
        );
        let want: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, want);
        let created = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&created),
            "scratch created once per worker, got {created}"
        );
    }

    #[test]
    fn par_map_with_serial_fallback_reuses_one_scratch() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(1);
        let _guard = ResetThreads;
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..100).collect();
        let got = par_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, _, &x| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        // Running sum proves the same scratch flowed through every item.
        assert_eq!(got[99], (0..100).sum::<u64>());
    }

    #[test]
    fn par_for_map_matches_serial() {
        let got = par_for_map(10, |i| vec![i; i]);
        let want: Vec<Vec<usize>> = (0..10).map(|i| vec![i; i]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_for_covers_every_index_once() {
        let n = 1234;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn uneven_work_still_completes() {
        let items: Vec<usize> = (0..64).collect();
        let got = par_map(&items, |_, &x| {
            // Skewed workload: later items cost much more.
            (0..x * x).map(|v| v as u64).sum::<u64>()
        });
        assert_eq!(got.len(), 64);
        assert_eq!(got[2], 1 + 2 + 3);
    }

    /// Serializes the tests that touch the global thread override.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(2);
        let guard = ResetThreads;
        let items: Vec<usize> = (0..100).collect();
        let _ = par_map(&items, |_, &x| {
            assert!(x != 50, "boom");
            x
        });
        drop(guard);
    }

    #[test]
    fn nested_calls_run_serially_on_pool_workers() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let _guard = ResetThreads;
        let items: Vec<u64> = (0..64).collect();
        let inner = par_map(&items, |_, _| num_threads());
        // The serial fallback would run on this thread and read 4.
        assert!(inner.iter().all(|&t| t == 1), "{inner:?}");
        assert_eq!(num_threads(), 4);
    }

    #[test]
    fn thread_override_round_trips() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(3);
        let _guard = ResetThreads;
        assert_eq!(num_threads(), 3);
    }

    #[test]
    fn thread_source_tracks_the_override() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(5);
        let _guard = ResetThreads;
        assert_eq!(num_threads_with_source(), (5, ThreadSource::Override));
        assert_eq!(ThreadSource::Override.as_str(), "override");
        set_num_threads(0);
        // Without an override the source is Env or Auto depending on the
        // ambient environment — never Override.
        let (n, source) = num_threads_with_source();
        assert!(n >= 1);
        assert_ne!(source, ThreadSource::Override);
    }

    #[test]
    fn pool_runs_feed_the_global_metrics() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let _guard = ResetThreads;
        let m = trajsim_obs::metrics::global();
        let runs_before = m.counter("parallel.pool_runs").get();
        let tasks_before = m.counter("parallel.tasks").get();
        let items: Vec<u64> = (0..321).collect();
        let _ = par_map(&items, |_, &x| x + 1);
        assert_eq!(m.counter("parallel.pool_runs").get(), runs_before + 1);
        assert_eq!(m.counter("parallel.tasks").get(), tasks_before + 321);
        assert!(m.counter("parallel.worker_busy_ns").get() > 0);
    }

    #[test]
    fn worker_records_carry_thread_ids() {
        use std::sync::{Arc, Mutex};
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(3);
        let _guard = ResetThreads;

        type WorkerFields = (Option<u64>, Option<u64>, Option<u64>);
        #[derive(Default)]
        struct Cap {
            workers: Mutex<Vec<WorkerFields>>,
        }
        impl trajsim_obs::Sink for Cap {
            fn emit(&self, r: &trajsim_obs::Record<'_>) {
                if r.name != "parallel.worker" {
                    return;
                }
                let field = |key: &str| {
                    r.fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| match v {
                            trajsim_obs::FieldValue::U64(x) => *x,
                            _ => panic!("{key} should be u64"),
                        })
                };
                self.workers
                    .lock()
                    .unwrap()
                    .push((r.elapsed_ns, field("tasks"), field("thread")));
            }
        }

        let cap = Arc::new(Cap::default());
        trajsim_obs::set_sink(Some(cap.clone() as Arc<dyn trajsim_obs::Sink>));
        trajsim_obs::set_level(trajsim_obs::Level::Debug);
        let items: Vec<u64> = (0..500).collect();
        let _ = par_map(&items, |_, &x| x * 3);
        trajsim_obs::set_level(trajsim_obs::Level::Off);
        trajsim_obs::set_sink(None);

        let workers = cap.workers.lock().unwrap();
        assert!(workers.len() >= 3, "one record per worker, got {workers:?}");
        let mut tasks_sum = 0;
        let mut threads = std::collections::BTreeSet::new();
        for (elapsed, tasks, thread) in workers.iter() {
            assert!(elapsed.is_some(), "worker records are span-shaped");
            tasks_sum += tasks.expect("tasks field");
            threads.insert(thread.expect("thread field"));
        }
        assert_eq!(tasks_sum, 500, "workers account for every task");
        assert!(threads.len() >= 2, "records come from distinct threads");
    }

    /// Restores automatic thread selection even if a test panics.
    struct ResetThreads;

    impl Drop for ResetThreads {
        fn drop(&mut self) {
            set_num_threads(0);
        }
    }
}
