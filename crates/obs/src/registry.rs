//! Per-node metrics registry: named counters, gauges and histogram timers.
//!
//! Counters and gauges are single atomics, so recording from the hot path is
//! one `fetch_add` with no lock. Timers wrap an `nbr_metrics::Histogram`
//! behind a short-held mutex (recording is a bucket increment). Metric
//! *registration* takes a lock on the name table, so callers should register
//! once and keep the returned `Arc` handle.
//!
//! Snapshots iterate `BTreeMap`s, so exports are deterministically sorted by
//! metric name — same-seed runs produce byte-identical exports.

use nbr_metrics::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with a total kept elsewhere: a replica loop mirrors each
    /// row of `nbr_core::NodeStats` into one counter after every burst.
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A latency recorder backed by the fixed-memory histogram (nanoseconds).
#[derive(Debug, Default)]
pub struct Timer {
    hist: Mutex<Histogram>,
}

impl Timer {
    fn with_hist<T>(&self, f: impl FnOnce(&mut Histogram) -> T) -> T {
        f(&mut self.hist.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Record one duration in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.with_hist(|h| h.record(ns));
    }

    /// Copy of the underlying histogram.
    pub fn histogram(&self) -> Histogram {
        self.with_hist(|h| h.clone())
    }
}

/// Point-in-time statistics of one [`Timer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimerStats {
    /// Number of recorded durations.
    pub count: u64,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: f64,
    /// Median in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile in nanoseconds.
    pub p99_ns: u64,
    /// Smallest recorded duration.
    pub min_ns: u64,
    /// Largest recorded duration.
    pub max_ns: u64,
}

impl TimerStats {
    /// Statistics of a histogram (all zero when empty).
    pub fn of(h: &Histogram) -> TimerStats {
        TimerStats {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.p50(),
            p99_ns: h.p99(),
            min_ns: h.min(),
            max_ns: h.max(),
        }
    }
}

/// An immutable, name-sorted snapshot of one registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Registry label, e.g. `node0` — becomes the `node` label on export.
    pub label: String,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Timer statistics by name.
    pub timers: BTreeMap<String, TimerStats>,
}

/// A labelled collection of named metrics. Cheap to share (`Arc` it) and
/// safe to record into from several threads.
#[derive(Debug, Default)]
pub struct Registry {
    label: String,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    timers: Mutex<BTreeMap<String, Arc<Timer>>>,
}

fn intern<T: Default>(table: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = table.lock().unwrap_or_else(PoisonError::into_inner);
    match map.get(name) {
        Some(m) => Arc::clone(m),
        None => {
            let m = Arc::new(T::default());
            map.insert(name.to_string(), Arc::clone(&m));
            m
        }
    }
}

impl Registry {
    /// Registry labelled for export (use e.g. the replica id).
    ///
    /// Metric names must already be exposition-safe: `[a-z0-9_]` only.
    pub fn new(label: impl Into<String>) -> Registry {
        Registry { label: label.into(), ..Registry::default() }
    }

    /// The label given at construction.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// Get or create the timer `name`.
    pub fn timer(&self, name: &str) -> Arc<Timer> {
        intern(&self.timers, name)
    }

    /// Consistent-enough point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let timers = self
            .timers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), TimerStats::of(&v.histogram())))
            .collect();
        Snapshot { label: self.label.clone(), counters, gauges, timers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new("node0");
        let c = r.counter("entries_appended");
        c.inc();
        c.add(4);
        let g = r.gauge("commit_index");
        g.set(7);
        g.add(-2);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 5);
        // Re-fetching by name returns the same metric.
        assert_eq!(r.counter("entries_appended").get(), 5);
    }

    #[test]
    fn timer_snapshot_reports_stats() {
        let r = Registry::new("n");
        let t = r.timer("t_wait_ns");
        for v in [1_000u64, 2_000, 3_000] {
            t.record(v);
        }
        let snap = r.snapshot();
        let stats = &snap.timers["t_wait_ns"];
        assert_eq!(stats.count, 3);
        assert_eq!(stats.mean_ns, 2_000.0);
        assert!(stats.min_ns <= stats.p50_ns && stats.p50_ns <= stats.max_ns);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new("n");
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn shared_registry_records_across_threads() {
        let r = Arc::new(Registry::new("n"));
        let c = r.counter("ops");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        assert_eq!(c.get(), 4000);
    }
}
