//! The injector: hands armed faults to instrumented call sites.

use crate::plan::{Fault, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenerec_obs::lock_unpoisoned;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The error produced when [`Fault::Io`] fires: call sites map it into
/// their own error type (`CheckpointError::Io`, a retried serve attempt,
/// …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedIo {
    /// The injection point that failed.
    pub point: String,
    /// 1-based invocation index that fired.
    pub seq: u64,
}

impl std::fmt::Display for InjectedIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected I/O fault at `{}` (invocation {})",
            self.point, self.seq
        )
    }
}

impl std::error::Error for InjectedIo {}

#[derive(Debug)]
struct State {
    plan: FaultPlan,
    /// Per-point logical invocation counters (1-based after increment).
    counts: Mutex<BTreeMap<String, u64>>,
    /// Total faults actually fired through this injector.
    injected: AtomicU64,
}

/// A cloneable, thread-safe handle that instrumented code probes at its
/// injection points. [`Injector::disabled()`] is the production value:
/// every probe is an inlined `None` branch.
#[derive(Debug, Clone, Default)]
pub struct Injector {
    state: Option<Arc<State>>,
}

/// FNV-1a over the point name, to fold it into the corruption seed.
fn hash_point(point: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in point.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Injector {
    /// The no-op injector: probes cost one branch and fire nothing.
    #[inline]
    pub fn disabled() -> Self {
        Injector { state: None }
    }

    /// An injector armed with `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Injector {
            state: Some(Arc::new(State {
                plan,
                counts: Mutex::new(BTreeMap::new()),
                injected: AtomicU64::new(0),
            })),
        }
    }

    /// Whether any plan is armed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Total faults fired through this handle (all points, all threads).
    pub fn injected(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }

    /// Counts one invocation of `point` and returns the armed fault for
    /// it, if any. This is the primitive the typed probes build on.
    #[inline]
    pub fn probe(&self, point: &str) -> Option<(Fault, u64)> {
        let state = self.state.as_ref()?;
        let seq = {
            let mut counts = lock_unpoisoned(&state.counts);
            let c = counts.entry(point.to_owned()).or_insert(0);
            *c += 1;
            *c
        };
        let fault = state.plan.fault_for(point, seq)?;
        state.injected.fetch_add(1, Ordering::Relaxed);
        // Every fired fault leaves a flight-recorder entry, so a
        // post-mortem dump shows which injections preceded a crash.
        scenerec_obs::flight::record("faults.injected", format!("{fault:?} at {point}#{seq}"));
        Some((fault, seq))
    }

    /// Fails with [`InjectedIo`] when an [`Fault::Io`] is armed here.
    #[inline]
    pub fn io(&self, point: &str) -> Result<(), InjectedIo> {
        match self.probe(point) {
            Some((Fault::Io, seq)) => Err(InjectedIo {
                point: point.to_owned(),
                seq,
            }),
            _ => Ok(()),
        }
    }

    /// Applies an armed corruption ([`Fault::ShortRead`] or
    /// [`Fault::BitFlip`]) to `bytes` in place; returns whether anything
    /// was changed. The offset/length comes from a rng seeded by
    /// `(plan seed, point, invocation)`, so the same plan corrupts the
    /// same bytes the same way every run.
    #[inline]
    pub fn corrupt(&self, point: &str, bytes: &mut Vec<u8>) -> bool {
        let Some((fault, seq)) = self.probe(point) else {
            return false;
        };
        let Some(state) = self.state.as_ref() else {
            return false;
        };
        let mut rng = StdRng::seed_from_u64(
            state
                .plan
                .seed
                .wrapping_add(hash_point(point))
                .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        match fault {
            Fault::ShortRead if !bytes.is_empty() => {
                let keep = rng.gen_range(0..bytes.len());
                bytes.truncate(keep);
                true
            }
            Fault::BitFlip if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                let bit = rng.gen_range(0u32..8);
                bytes[at] ^= 1 << bit;
                true
            }
            _ => false,
        }
    }

    /// Panics when a [`Fault::Panic`] is armed here — the serving
    /// scheduler's supervision path. Training uses the non-unwinding
    /// [`Injector::crash`] instead.
    #[inline]
    pub fn panic_point(&self, point: &str) {
        if let Some((Fault::Panic, seq)) = self.probe(point) {
            // Supervised callers catch and recover this — injecting the
            // panic is the entire purpose of the crate.
            // lint:allow(R1): deliberate injected panic
            panic!("injected worker panic at `{point}` (invocation {seq})");
        }
    }

    /// Returns `true` when a [`Fault::Panic`] is armed here, for callers
    /// that surface crashes as typed errors instead of unwinding (the
    /// resumable trainer).
    #[inline]
    pub fn crash(&self, point: &str) -> bool {
        matches!(self.probe(point), Some((Fault::Panic, _)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Trigger;

    #[test]
    fn disabled_probes_are_silent() {
        let inj = Injector::disabled();
        assert!(!inj.is_enabled());
        assert!(inj.io("x").is_ok());
        let mut b = vec![1, 2, 3];
        assert!(!inj.corrupt("x", &mut b));
        assert_eq!(b, vec![1, 2, 3]);
        assert!(!inj.crash("x"));
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn io_fires_on_the_scheduled_invocation() {
        let inj = Injector::new(FaultPlan::new(1).inject("w", Trigger::Nth(2), Fault::Io));
        assert!(inj.io("w").is_ok());
        let err = inj.io("w").unwrap_err();
        assert_eq!(err.seq, 2);
        assert!(inj.io("w").is_ok());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn points_count_independently() {
        let inj = Injector::new(FaultPlan::new(1).inject("a", Trigger::Nth(1), Fault::Io));
        assert!(inj.io("b").is_ok());
        assert!(inj.io("a").is_err(), "point `a` has its own counter");
    }

    #[test]
    fn corruption_is_deterministic_for_a_seed() {
        let original: Vec<u8> = (0..64).collect();
        let run = || {
            let inj =
                Injector::new(FaultPlan::new(99).inject("r", Trigger::Always, Fault::BitFlip));
            let mut b = original.clone();
            assert!(inj.corrupt("r", &mut b));
            b
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan must corrupt the same way");
        assert_ne!(a, original);
        // Exactly one bit differs.
        let flipped: u32 = a
            .iter()
            .zip(&original)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn short_read_truncates() {
        let inj = Injector::new(FaultPlan::new(5).inject("r", Trigger::Always, Fault::ShortRead));
        let mut b: Vec<u8> = (0..100).collect();
        assert!(inj.corrupt("r", &mut b));
        assert!(b.len() < 100);
        assert_eq!(&b[..], &(0..b.len() as u8).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn crash_fires_only_on_its_armed_invocation() {
        let inj = Injector::new(FaultPlan::new(1).inject("boom", Trigger::Nth(1), Fault::Panic));
        assert!(inj.crash("boom"));
        assert!(!inj.crash("boom"));
    }

    #[test]
    fn panic_point_unwinds_with_injected_payload() {
        let inj = Injector::new(FaultPlan::new(1).inject("w", Trigger::Nth(1), Fault::Panic));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.panic_point("w");
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected worker panic"), "{msg}");
    }
}
