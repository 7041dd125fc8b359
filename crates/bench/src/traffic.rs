//! Seeded open-loop heavy-tailed traffic for serving benchmarks.
//!
//! Real recommender front-ends see two heavy tails at once: request
//! *timing* is bursty (long quiet stretches punctuated by arrival
//! storms), and request *popularity* is skewed (a few hot users/items
//! absorb most traffic). This module generates both from one
//! `splitmix64` stream, fully determined by [`TrafficConfig::seed`]:
//!
//! * **Pareto inter-arrival gaps** (`gap = x_m / U^(1/alpha)`, the
//!   inverse-CDF transform). With `pareto_alpha` in (1, 2) the gap
//!   distribution has finite mean but infinite variance, so arrival
//!   storms occur at every offered load. The scale `x_m` is solved from
//!   [`TrafficConfig::mean_gap_ticks`] so the offered rate is
//!   `1 / mean_gap_ticks` requests per tick.
//! * **Zipf user popularity**: user rank `r` (0 = hottest) is drawn
//!   with probability proportional to `1 / (r + 1)^zipf_exponent` via a
//!   precomputed CDF and binary search. Hot users repeat quickly, so a
//!   realistic share of traffic lands on a result cache.
//!
//! The traffic is **open-loop**: arrival ticks never depend on
//! responses, so offered load is a property of the trace alone.
//! Everything here is pure: same config, same trace, byte for byte.
//!
//! Its consumer is the repository benchmark's `serve_hot` workload
//! (`perfbench/`), which maps the logical ticks onto a wall-clock send
//! schedule and serves each arrival's user.

use scenerec_serve::Request;

/// One request stamped with its logical arrival tick (open-loop
/// traffic: arrivals do not wait for responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedRequest {
    /// Logical arrival tick; non-decreasing along a generated trace.
    pub arrive_tick: u64,
    /// The request itself.
    pub request: Request,
}

/// Knobs for one generated trace.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Seed for the splitmix64 stream; everything derives from it.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// User-id space; ranks map to ids `0..num_users` (0 = hottest).
    pub num_users: u32,
    /// Top-K requested by every arrival.
    pub k: usize,
    /// Zipf popularity exponent (≈1.0–1.3 for web traffic).
    pub zipf_exponent: f64,
    /// Pareto tail index; values in (1, 2) give finite-mean,
    /// infinite-variance gaps. Clamped to ≥ 1.05 so the mean exists.
    pub pareto_alpha: f64,
    /// Target mean inter-arrival gap in logical ticks; the offered
    /// load is `1 / mean_gap_ticks` requests per tick.
    pub mean_gap_ticks: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x5ce_2ec,
            requests: 4096,
            num_users: 10_000,
            k: 50,
            zipf_exponent: 1.1,
            pareto_alpha: 1.3,
            mean_gap_ticks: 100.0,
        }
    }
}

/// `splitmix64`: the repo-standard seeded generator (lint rule D2 bans
/// unseeded randomness; there is no entropy source here at all).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in the half-open interval (0, 1] — never 0, so it is
/// safe under `powf` and as a CDF probe.
fn unit_open(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Zipf CDF over ranks `0..n` with exponent `s`, normalized to end at
/// exactly 1.0 so every probe lands.
fn zipf_cdf(n: u32, s: f64) -> Vec<f64> {
    let n = n.max(1) as usize;
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for rank in 0..n {
        acc += 1.0 / ((rank + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc.max(f64::MIN_POSITIVE);
    for c in &mut cdf {
        *c /= total;
    }
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// Generates the trace: one [`TimedRequest`] per arrival, ticks
/// non-decreasing, pure in `cfg`.
pub fn generate(cfg: &TrafficConfig) -> Vec<TimedRequest> {
    let alpha = cfg.pareto_alpha.max(1.05);
    // Solve the Pareto scale x_m from the target mean:
    // E[gap] = x_m * alpha / (alpha - 1).
    let x_m = cfg.mean_gap_ticks.max(0.0) * (alpha - 1.0) / alpha;
    let cdf = zipf_cdf(cfg.num_users, cfg.zipf_exponent);
    let mut state = cfg.seed;
    let mut tick = 0u64;
    let mut out = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        let u_gap = unit_open(&mut state);
        // Inverse CDF of Pareto(x_m, alpha), capped so a single
        // astronomically unlucky draw cannot overflow the tick clock.
        let gap = (x_m / u_gap.powf(1.0 / alpha)).min(1e12);
        tick = tick.saturating_add(gap.round() as u64);
        let u_user = unit_open(&mut state);
        let rank = cdf.partition_point(|&c| c < u_user);
        out.push(TimedRequest {
            arrive_tick: tick,
            request: Request {
                user: (rank as u32).min(cfg.num_users.saturating_sub(1)),
                k: cfg.k,
            },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure() {
        let cfg = TrafficConfig {
            requests: 500,
            ..TrafficConfig::default()
        };
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn ticks_are_non_decreasing_and_mean_gap_is_close() {
        let cfg = TrafficConfig {
            requests: 20_000,
            mean_gap_ticks: 100.0,
            ..TrafficConfig::default()
        };
        let trace = generate(&cfg);
        let mut prev = 0u64;
        for t in &trace {
            assert!(t.arrive_tick >= prev);
            prev = t.arrive_tick;
        }
        // Heavy tail means slow convergence; just pin the right decade.
        let mean = prev as f64 / trace.len() as f64;
        assert!(
            (20.0..=500.0).contains(&mean),
            "mean gap {mean} wildly off target 100"
        );
    }

    #[test]
    fn popularity_is_skewed_toward_low_ranks() {
        let cfg = TrafficConfig {
            requests: 10_000,
            num_users: 1_000,
            ..TrafficConfig::default()
        };
        let trace = generate(&cfg);
        let hot = trace.iter().filter(|t| t.request.user < 10).count();
        let cold = trace.iter().filter(|t| t.request.user >= 500).count();
        assert!(
            hot > cold,
            "top-10 users ({hot}) should outdraw the bottom half ({cold})"
        );
    }
}
