//! Process-wide registry of named fixed-bucket histograms.
//!
//! One histogram has a reader: `serve/latency_ns`, one observation per
//! served (request, shard) cell (`scenerec_serve`), whose p50/p99/p999
//! the `serve` bench binary reports. Observing is a few relaxed atomic
//! operations on a handle fetched once; the registry mutex is taken
//! only to fetch a handle and to reset.

use crate::sync::lock_unpoisoned;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// The registered histograms, by name.
type Registry = BTreeMap<String, Arc<Histogram>>;

/// The handle registered under `name`, registering `make()` on first
/// use. The lookup borrows `name`: only a first registration allocates
/// the key, so fetching a registered histogram allocates nothing under
/// the registry lock.
fn fetch(reg: &mut Registry, name: &str, make: impl FnOnce() -> Histogram) -> Arc<Histogram> {
    if let Some(handle) = reg.get(name) {
        return Arc::clone(handle);
    }
    let handle = Arc::new(make());
    reg.insert(name.to_owned(), Arc::clone(&handle));
    handle
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::new()))
}

/// Fetches (registering on first use) the histogram named `name` with
/// the given bucket edges. Edges are fixed by the first registration;
/// later calls reuse the existing histogram.
pub fn histogram(name: &str, edges: &[f64]) -> Arc<Histogram> {
    fetch(&mut lock_unpoisoned(registry()), name, || {
        Histogram::new(edges)
    })
}

/// Clears the registry. Handles already fetched keep working,
/// detached: the next fetch of a name registers a fresh histogram.
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

    /// A registered name hands back the one histogram it holds, whose
    /// edges its first registration fixed, and a reset detaches old
    /// handles: the name then registers afresh while the old handle
    /// keeps recording unseen. Runs on a registry of its own, since a
    /// reset of the process-wide one would race the other tests'
    /// registrations.
    #[test]
    fn fetching_reuses_the_registered_handle_and_reset_detaches_it() {
        let mut reg = Registry::new();
        let edges = [1.0, 2.0];
        let h = fetch(&mut reg, "test-metrics/fetch", || Histogram::new(&edges));
        let h2 = fetch(&mut reg, "test-metrics/fetch", || Histogram::new(&[9.0]));
        assert!(Arc::ptr_eq(&h, &h2));
        assert_eq!(h2.edges(), &edges, "the first registration fixes the edges");

        h.observe(1.5);
        reg.clear();
        let fresh = fetch(&mut reg, "test-metrics/fetch", || Histogram::new(&[9.0]));
        assert!(!Arc::ptr_eq(&h, &fresh), "reset detached the old handle");
        assert_eq!((fresh.count(), fresh.edges()), (0, &[9.0][..]));
        h.observe(0.5);
        assert_eq!((h.count(), fresh.count()), (2, 0));

        // The process-wide entry point shares one handle per name too.
        let g = histogram("test-metrics/fetch-global", &edges);
        assert!(Arc::ptr_eq(
            &g,
            &histogram("test-metrics/fetch-global", &[9.0])
        ));
    }
}
