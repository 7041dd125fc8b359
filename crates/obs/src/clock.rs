//! The workspace's clock shims: the only file allowed to read a clock
//! (`scenerec-lint` rule D3 allowlists it in `lint.toml`).
//!
//! Everything that times work reads one of these: [`monotonic_ns`]
//! stamps trace spans and flight-recorder entries, [`Stopwatch`] times
//! phases that are recorded as spans afterwards (the trainer's per-phase
//! breakdown), and [`unix_ms`] stamps run manifests.

use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A monotonic timer for code that measures an interval itself and
/// records it afterwards: the trainer sums per-phase laps into a
/// `PhaseBreakdown` and back-dates one trace span per phase from it
/// ([`Trace::record_span`](crate::trace::Trace::record_span)); the
/// evaluator times each ranked user into a latency histogram.
///
/// Model/data crates use this instead of calling `Instant::now()`
/// directly so that every clock read goes through the obs layer —
/// `scenerec-lint` rule D3 enforces exactly that.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    mark: Instant,
}

impl Stopwatch {
    /// Starts (or restarts) the clock.
    pub fn start() -> Self {
        Stopwatch {
            mark: Instant::now(),
        }
    }

    /// Elapsed time since start (or the last [`Self::lap_ns`]).
    pub fn elapsed(&self) -> Duration {
        self.mark.elapsed()
    }

    /// Elapsed nanoseconds, saturating into `u64`.
    pub fn elapsed_ns(&self) -> u64 {
        self.mark.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Returns the nanoseconds since the previous mark and restarts the
    /// clock — for chained per-phase accounting in a loop.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now
            .duration_since(self.mark)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.mark = now;
        ns
    }
}

/// Nanoseconds since the process-wide monotonic epoch (the first call
/// in the process). All wall timestamps in the tracing layer
/// ([`trace`](crate::trace)) and the flight recorder
/// ([`flight`](crate::flight)) come from this single clock, so spans
/// recorded on different threads share one timeline and Chrome trace
/// exports start near zero.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// Current wall-clock time as milliseconds since the unix epoch.
pub(crate) fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_nondecreasing() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        std::thread::sleep(Duration::from_millis(1));
        let c = monotonic_ns();
        assert!(a <= b && b < c, "a={a} b={b} c={c}");
    }
}
