//! Process-wide metrics registry: counters, gauges and fixed-bucket
//! histograms.
//!
//! Handles are `Arc`s onto atomics, so recording is lock-free; the
//! registry mutex is only taken on first registration and snapshots.

use crate::sync::lock_unpoisoned;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating point gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Overwrites the gauge value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram over `f64` observations.
///
/// `edges` are the inclusive upper bounds of the first `edges.len()`
/// buckets; one overflow bucket catches everything larger. An
/// observation `x` lands in the first bucket with `x <= edge`.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(edges: &[f64]) -> Self {
        assert!(
            !edges.is_empty(),
            "histogram needs at least one bucket edge"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, x: f64) {
        let idx = self
            .edges
            .iter()
            .position(|&e| x <= e)
            .unwrap_or(self.edges.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Atomic f64 accumulation via CAS on the bit pattern.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Bucket upper edges (the final overflow bucket has no edge).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Approximate quantile via linear interpolation inside the
    /// containing bucket (upstream-prometheus style).
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        quantile_from_counts(&self.edges, &counts, q)
    }

    /// Batch quantile lookup over a single consistent bucket snapshot —
    /// cheaper and more coherent than repeated [`Self::quantile`] calls
    /// while observations are still arriving.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        let counts = self.bucket_counts();
        qs.iter()
            .map(|&q| quantile_from_counts(&self.edges, &counts, q))
            .collect()
    }
}

fn quantile_from_counts(edges: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            let hi = edges.get(i).copied().unwrap_or(f64::INFINITY);
            let lo = if i == 0 { 0.0 } else { edges[i - 1] };
            if hi.is_infinite() {
                return lo;
            }
            let in_bucket = *c as f64;
            let before = (seen - c) as f64;
            let frac = if in_bucket > 0.0 {
                (target as f64 - before) / in_bucket
            } else {
                1.0
            };
            return lo + (hi - lo) * frac;
        }
    }
    edges.last().copied().unwrap_or(0.0)
}

/// Log-spaced histogram bucket edges: `per_decade` geometric steps per
/// factor of 10, from `lo` to (approximately) `hi`, inclusive on both
/// ends. Latency distributions are heavy-tailed, so log spacing keeps
/// relative quantile error roughly constant across the full range —
/// linear edges collapse everything above their top into one bucket.
pub fn log_edges(lo: f64, hi: f64, per_decade: usize) -> Vec<f64> {
    assert!(
        lo > 0.0 && hi > lo && per_decade > 0,
        "log_edges requires 0 < lo < hi and per_decade >= 1"
    );
    let steps = ((hi / lo).log10() * per_decade as f64).round().max(1.0) as usize;
    (0..=steps)
        .map(|i| lo * 10f64.powf(i as f64 / per_decade as f64))
        .collect()
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

impl Registry {
    /// Drops every entry; handles already fetched keep working,
    /// detached from later snapshots.
    fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }
}

/// The handle registered under `name`, registering `make()` on first
/// use. The lookup borrows `name`: only a first registration allocates
/// the key, so fetching a registered metric allocates nothing under the
/// registry lock.
fn fetch<T>(map: &mut BTreeMap<String, Arc<T>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    if let Some(handle) = map.get(name) {
        return Arc::clone(handle);
    }
    let handle = Arc::new(make());
    map.insert(name.to_owned(), Arc::clone(&handle));
    handle
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

/// Fetches (registering on first use) the counter named `name`.
pub fn counter(name: &str) -> Arc<Counter> {
    fetch(
        &mut lock_unpoisoned(registry()).counters,
        name,
        Counter::default,
    )
}

/// Fetches (registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    fetch(
        &mut lock_unpoisoned(registry()).gauges,
        name,
        Gauge::default,
    )
}

/// Fetches (registering on first use) the histogram named `name` with
/// the given bucket edges. Edges are fixed by the first registration;
/// later calls reuse the existing histogram.
pub fn histogram(name: &str, edges: &[f64]) -> Arc<Histogram> {
    fetch(&mut lock_unpoisoned(registry()).histograms, name, || {
        Histogram::new(edges)
    })
}

/// Point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Inclusive upper bucket edges.
    pub edges: Vec<f64>,
    /// Per-bucket counts; one more entry than `edges` (overflow last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Approximate p50.
    pub p50: f64,
    /// Approximate p99.
    pub p99: f64,
    /// Approximate p99.9.
    pub p999: f64,
}

/// Point-in-time copy of the whole metrics registry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name/value pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name/value pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a JSON-friendly object keyed by
    /// metric name (more readable in manifests than the raw pairs).
    pub fn to_value(&self) -> Value {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::Int(*v as i64)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|h| {
                    (
                        h.name.clone(),
                        Value::Object(vec![
                            ("count".to_string(), Value::Int(h.count as i64)),
                            ("sum".to_string(), Value::Float(h.sum)),
                            ("p50".to_string(), Value::Float(h.p50)),
                            ("p99".to_string(), Value::Float(h.p99)),
                            ("p999".to_string(), Value::Float(h.p999)),
                            (
                                "edges".to_string(),
                                Value::Array(h.edges.iter().map(|e| Value::Float(*e)).collect()),
                            ),
                            (
                                "buckets".to_string(),
                                Value::Array(
                                    h.buckets.iter().map(|b| Value::Int(*b as i64)).collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
        ])
    }
}

/// Snapshots every registered metric.
pub fn metrics_snapshot() -> MetricsSnapshot {
    // The registry maps are BTreeMaps, so each section comes out
    // already sorted by name — deterministic without a post-sort.
    let reg = lock_unpoisoned(registry());
    let counters: Vec<(String, u64)> = reg
        .counters
        .iter()
        .map(|(k, c)| (k.clone(), c.get()))
        .collect();
    let gauges: Vec<(String, f64)> = reg
        .gauges
        .iter()
        .map(|(k, g)| (k.clone(), g.get()))
        .collect();
    let histograms: Vec<HistogramSnapshot> = reg
        .histograms
        .iter()
        .map(|(k, h)| {
            let qs = h.quantiles(&[0.5, 0.99, 0.999]);
            HistogramSnapshot {
                name: k.clone(),
                edges: h.edges().to_vec(),
                buckets: h.bucket_counts(),
                count: h.count(),
                sum: h.sum(),
                p50: qs[0],
                p99: qs[1],
                p999: qs[2],
            }
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Clears the metrics registry. Existing handles keep working but are
/// detached from future snapshots.
pub fn reset_metrics() {
    lock_unpoisoned(registry()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges_are_inclusive() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0 (inclusive upper edge)
        h.observe(1.0001); // bucket 1
        h.observe(10.0); // bucket 1
        h.observe(99.9); // bucket 2
        h.observe(100.0); // bucket 2
        h.observe(1e6); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - (0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 1e6)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        let _ = Histogram::new(&[1.0, 1.0]);
    }

    #[test]
    fn quantile_interpolates() {
        let h = Histogram::new(&[10.0, 20.0, 30.0]);
        for _ in 0..50 {
            h.observe(5.0);
        }
        for _ in 0..50 {
            h.observe(15.0);
        }
        let p50 = h.quantile(0.5);
        assert!((0.0..=10.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((10.0..=20.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn quantiles_batch_matches_single_lookups() {
        let h = Histogram::new(&[10.0, 20.0, 30.0]);
        for i in 0..1000 {
            h.observe((i % 30) as f64);
        }
        let qs = h.quantiles(&[0.5, 0.99, 0.999]);
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[0], h.quantile(0.5));
        assert_eq!(qs[1], h.quantile(0.99));
        assert_eq!(qs[2], h.quantile(0.999));
        assert!(qs[0] <= qs[1] && qs[1] <= qs[2], "{qs:?}");
    }

    #[test]
    fn log_edges_are_log_spaced_and_strictly_increasing() {
        let edges = log_edges(1e3, 1e10, 6);
        assert_eq!(edges.len(), 43); // 7 decades * 6 + 1
        assert!((edges[0] - 1e3).abs() < 1e-6);
        assert!((edges[42] - 1e10).abs() / 1e10 < 1e-9);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        // Constant ratio between adjacent edges (geometric spacing).
        let r0 = edges[1] / edges[0];
        assert!(edges
            .windows(2)
            .all(|w| ((w[1] / w[0]) / r0 - 1.0).abs() < 1e-9));
        // The result is a valid histogram edge set.
        let h = Histogram::new(&edges);
        h.observe(5e9);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn counter_and_gauge_concurrent_updates() {
        let c = counter("test-metrics/shared-counter");
        let g = gauge("test-metrics/shared-gauge");
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let c = c.clone();
                let g = g.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        if i % 1000 == 0 {
                            g.set(t as f64);
                        }
                    }
                });
            }
        });
        assert_eq!(c.get(), threads as u64 * per_thread);
        assert!((0.0..threads as f64).contains(&g.get()));
    }

    #[test]
    fn histogram_concurrent_observe_keeps_count_and_sum() {
        let h = histogram("test-metrics/conc-hist", &[0.25, 0.5, 0.75, 1.0]);
        let threads = 4;
        let per_thread = 5_000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.observe((i % 100) as f64 / 100.0 + t as f64 * 1e-9);
                    }
                });
            }
        });
        assert_eq!(h.count(), (threads * per_thread) as u64);
        let expected: f64 = (0..per_thread)
            .map(|i| (i % 100) as f64 / 100.0)
            .sum::<f64>()
            * threads as f64;
        assert!(
            (h.sum() - expected).abs() < 1e-3,
            "sum {} vs {}",
            h.sum(),
            expected
        );
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    /// A registered name hands back the one handle it holds, whichever
    /// way it is fetched, and a reset detaches old handles: the name
    /// then registers afresh while the old handle keeps counting
    /// unseen. Runs on a registry of its own, since a reset of the
    /// process-wide one would race the other tests' registrations.
    #[test]
    fn fetching_reuses_the_registered_handle_and_reset_detaches_it() {
        let mut reg = Registry::default();
        let a = fetch(&mut reg.counters, "test-metrics/fetch", Counter::default);
        let b = fetch(&mut reg.counters, "test-metrics/fetch", Counter::default);
        assert!(Arc::ptr_eq(&a, &b));
        let edges = [1.0, 2.0];
        let h = fetch(&mut reg.histograms, "test-metrics/fetch", || {
            Histogram::new(&edges)
        });
        let h2 = fetch(&mut reg.histograms, "test-metrics/fetch", || {
            Histogram::new(&[9.0])
        });
        assert!(Arc::ptr_eq(&h, &h2));
        assert_eq!(h2.edges(), &edges, "the first registration fixes the edges");
        let g = fetch(&mut reg.gauges, "test-metrics/fetch", Gauge::default);
        assert!(Arc::ptr_eq(
            &g,
            &fetch(&mut reg.gauges, "test-metrics/fetch", Gauge::default)
        ));

        a.add(3);
        reg.clear();
        let fresh = fetch(&mut reg.counters, "test-metrics/fetch", Counter::default);
        assert!(!Arc::ptr_eq(&a, &fresh), "reset detached the old handle");
        assert_eq!(fresh.get(), 0);
        a.inc();
        assert_eq!((a.get(), fresh.get()), (4, 0));

        // The process-wide entry points share one handle per name too.
        let c = counter("test-metrics/fetch-global");
        assert!(Arc::ptr_eq(&c, &counter("test-metrics/fetch-global")));
    }

    #[test]
    fn snapshot_contains_registered_metrics() {
        counter("test-metrics/snap-counter").add(7);
        gauge("test-metrics/snap-gauge").set(2.5);
        histogram("test-metrics/snap-hist", &[1.0]).observe(0.3);
        let snap = metrics_snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(k, v)| k == "test-metrics/snap-counter" && *v >= 7));
        assert!(snap
            .gauges
            .iter()
            .any(|(k, v)| k == "test-metrics/snap-gauge" && (*v - 2.5).abs() < 1e-12));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "test-metrics/snap-hist"));
        // Snapshot serializes without panicking.
        let v = snap.to_value();
        assert!(serde_json::to_string(&v).unwrap().contains("snap-hist"));
    }
}
