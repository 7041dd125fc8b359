//! Deterministic admission control: bounded lanes, weighted drain,
//! load shedding.
//!
//! The bounded scheduler separates **policy** from **execution**. This
//! module is the policy half: [`plan`] simulates the entire replay on
//! logical ticks — single-threaded, no locks, no clocks, no I/O — and
//! decides, for every arrival, whether it is admitted (and in which
//! order it will be dequeued) or shed (and with what retry hint). The
//! worker pool in [`crate::scheduler`] then merely *executes* the plan:
//! it serves exactly the admitted requests in exactly the planned lane
//! order. Because worker count is not an input to [`plan`], shed
//! decisions — and therefore response bytes — are identical at any
//! worker count by construction, not by careful locking.
//!
//! ## The simulated queue model
//!
//! * Two lanes, [`Lane::Fast`] and [`Lane::Cold`]. An arrival is
//!   classified Fast when an earlier arrival with the same `(user, k)`
//!   was already admitted — the result cache will answer it — and Cold
//!   otherwise. Classification is a pure function of the arrival
//!   prefix, never of runtime cache state.
//! * Each lane is a bounded FIFO
//!   ([`AdmissionConfig::fast_capacity`] / [`AdmissionConfig::cold_capacity`]).
//!   An arrival that finds its lane full is shed with a typed
//!   [`OverloadInfo`] carrying the observed queue depth and a
//!   deterministic retry-after estimate.
//! * Service is modeled as drain *rounds*: every
//!   [`AdmissionConfig::drain_every_ticks`] logical ticks the server
//!   retires up to [`AdmissionConfig::drain_per_round`] queued
//!   requests. Rounds pick lanes by weighted round-robin —
//!   [`AdmissionConfig::fast_weight`] dequeues from the fast lane, then
//!   [`AdmissionConfig::cold_weight`] from the cold lane, repeating; an
//!   empty lane cedes the remainder of its share (work conservation).
//! * Rounds scheduled at tick `t` fire before an arrival at tick `t`
//!   is considered, so queue depth seen by the admission gate is
//!   deterministic. Arrival ticks are clamped to be non-decreasing.
//!
//! Everything downstream — shed counters, span structure, response
//! bytes, bench quantiles over queue delay — derives from the
//! [`AdmissionPlan`], which is why the overload tests can replay a
//! heavy-tailed trace twice and demand identical outcomes.

use crate::scheduler::Request;
use std::collections::{BTreeSet, VecDeque};

/// Which of the two priority lanes a request was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Predicted cache hit: an earlier admitted arrival had the same
    /// `(user, k)`, so the engine's result cache will answer this one.
    Fast,
    /// Cold scoring: full candidate scoring over the catalog.
    Cold,
}

impl Lane {
    /// Stable lowercase name, used in span fields and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Fast => "fast",
            Lane::Cold => "cold",
        }
    }

    /// Index into per-lane arrays: fast = 0, cold = 1.
    pub fn index(self) -> usize {
        match self {
            Lane::Fast => 0,
            Lane::Cold => 1,
        }
    }
}

/// One request stamped with its logical arrival tick (open-loop
/// traffic: arrivals do not wait for responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedRequest {
    /// Logical arrival tick. Ticks must be non-decreasing; out-of-order
    /// ticks are clamped up to the previous arrival's tick.
    pub arrive_tick: u64,
    /// The request itself.
    pub request: Request,
}

impl TimedRequest {
    /// A plain request log as one burst: every request arrives at tick 0.
    pub fn burst(requests: &[Request]) -> Vec<TimedRequest> {
        requests
            .iter()
            .map(|&request| TimedRequest {
                arrive_tick: 0,
                request,
            })
            .collect()
    }
}

/// Admission-control knobs for the bounded scheduler.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Max queued (admitted but not yet dequeued) fast-lane requests.
    pub fast_capacity: usize,
    /// Max queued cold-lane requests.
    pub cold_capacity: usize,
    /// Fast-lane dequeues per round-robin round (>= 1).
    pub fast_weight: u32,
    /// Cold-lane dequeues per round-robin round (>= 1).
    pub cold_weight: u32,
    /// Logical ticks between drain rounds (>= 1). Together with
    /// `drain_per_round` this sets the modeled service rate:
    /// `drain_per_round / drain_every_ticks` requests per tick.
    pub drain_every_ticks: u64,
    /// Requests retired per drain round (>= 1).
    pub drain_per_round: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            fast_capacity: 1024,
            cold_capacity: 256,
            fast_weight: 4,
            cold_weight: 1,
            drain_every_ticks: 1,
            drain_per_round: 1,
        }
    }
}

/// Why (and how hard) a request was shed — carried on
/// [`crate::Response::overload`] and rendered into its JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadInfo {
    /// The lane whose queue was full.
    pub lane: Lane,
    /// Queued requests in that lane at the moment of rejection.
    pub queue_depth: usize,
    /// Deterministic estimate of the ticks until the lane has drained
    /// its current backlog at its weighted service share — a retry
    /// hint, always >= 1.
    pub retry_after_ticks: u64,
}

/// The planned fate of one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted: will be served.
    Admit {
        /// The lane it queued in.
        lane: Lane,
        /// Global dequeue order (0-based) across both lanes — the order
        /// the worker pool serves admitted requests in.
        seq: u64,
        /// Ticks spent queued: dequeue tick minus (clamped) arrival tick.
        delay_ticks: u64,
    },
    /// Shed at the admission gate: answered with a typed overload
    /// response, never enqueued.
    Shed(OverloadInfo),
}

/// The full admission plan for an arrival sequence: one [`Verdict`] per
/// arrival (index-aligned), plus the aggregate accounting the tests and
/// the overload bench assert on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPlan {
    /// Per-arrival verdicts, index-aligned with the input.
    pub verdicts: Vec<Verdict>,
    /// Admitted count per lane, indexed by [`Lane::index`].
    pub admitted_by_lane: [usize; 2],
    /// Shed count per lane, indexed by [`Lane::index`].
    pub shed_by_lane: [usize; 2],
    /// Peak queue depth reached per lane, indexed by [`Lane::index`].
    pub peak_depth_by_lane: [usize; 2],
}

impl AdmissionPlan {
    /// Total arrivals the plan covers.
    pub fn offered(&self) -> usize {
        self.verdicts.len()
    }

    /// Total admitted across both lanes.
    pub fn admitted(&self) -> usize {
        self.admitted_by_lane.iter().sum()
    }

    /// Total shed across both lanes.
    pub fn shed(&self) -> usize {
        self.shed_by_lane.iter().sum()
    }

    /// Arrival indices of admitted requests routed to `lane`, in
    /// dequeue (`seq`) order — the order the worker pool serves them.
    pub fn lane_order(&self, lane: Lane) -> Vec<usize> {
        let mut order: Vec<(u64, usize)> = self
            .verdicts
            .iter()
            .enumerate()
            .filter_map(|(idx, v)| match v {
                Verdict::Admit { lane: l, seq, .. } if *l == lane => Some((*seq, idx)),
                _ => None,
            })
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, idx)| idx).collect()
    }

    /// Arrival indices of all admitted requests, in global dequeue
    /// (`seq`) order across both lanes.
    pub fn admitted_order(&self) -> Vec<usize> {
        let mut order: Vec<(u64, usize)> = self
            .verdicts
            .iter()
            .enumerate()
            .filter_map(|(idx, v)| match v {
                Verdict::Admit { seq, .. } => Some((*seq, idx)),
                Verdict::Shed(_) => None,
            })
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, idx)| idx).collect()
    }

    /// Queue delays (ticks) of admitted requests, in arrival order.
    pub fn queue_delays(&self) -> Vec<u64> {
        self.verdicts
            .iter()
            .filter_map(|v| match v {
                Verdict::Admit { delay_ticks, .. } => Some(*delay_ticks),
                Verdict::Shed(_) => None,
            })
            .collect()
    }
}

/// Residual weighted-round-robin shares for the in-progress round.
struct RoundShares {
    fast_left: u32,
    cold_left: u32,
}

/// One queued (admitted, not yet dequeued) arrival.
struct Queued {
    idx: usize,
    arrive_tick: u64,
}

/// Simulator state while sweeping the arrival sequence.
struct Sim<'a> {
    cfg: &'a AdmissionConfig,
    lanes: [VecDeque<Queued>; 2],
    shares: RoundShares,
    /// Drain rounds already fired (round `r` fires at tick `r * d`).
    rounds_done: u64,
    next_seq: u64,
    verdicts: Vec<Verdict>,
}

impl Sim<'_> {
    /// Pops the next queued request under the weighted round-robin
    /// discipline, or `None` when both lanes are empty. An empty lane
    /// cedes the rest of its share for the round (work conservation).
    fn pick(&mut self) -> Option<(Lane, Queued)> {
        if self.lanes[0].is_empty() && self.lanes[1].is_empty() {
            return None;
        }
        loop {
            if self.shares.fast_left == 0 && self.shares.cold_left == 0 {
                self.shares.fast_left = self.cfg.fast_weight.max(1);
                self.shares.cold_left = self.cfg.cold_weight.max(1);
            }
            if self.shares.fast_left > 0 {
                self.shares.fast_left -= 1;
                if let Some(q) = self.lanes[Lane::Fast.index()].pop_front() {
                    return Some((Lane::Fast, q));
                }
                self.shares.fast_left = 0;
                continue;
            }
            self.shares.cold_left -= 1;
            if let Some(q) = self.lanes[Lane::Cold.index()].pop_front() {
                return Some((Lane::Cold, q));
            }
            self.shares.cold_left = 0;
        }
    }

    /// Fires every drain round scheduled at or before `now`, assigning
    /// dequeue sequence numbers and delays to retired requests.
    fn drain_until(&mut self, now: u64) {
        let d = self.cfg.drain_every_ticks.max(1);
        let n = self.cfg.drain_per_round.max(1);
        let target = now / d;
        while self.rounds_done < target {
            if self.lanes[0].is_empty() && self.lanes[1].is_empty() {
                // Idle fast-forward: nothing can enter a queue between
                // arrivals, so skipping empty rounds changes nothing.
                self.rounds_done = target;
                return;
            }
            self.rounds_done += 1;
            let tick = self.rounds_done * d;
            for _ in 0..n {
                let Some((lane, q)) = self.pick() else { break };
                self.verdicts[q.idx] = Verdict::Admit {
                    lane,
                    seq: self.next_seq,
                    delay_ticks: tick.saturating_sub(q.arrive_tick),
                };
                self.next_seq += 1;
            }
        }
    }

    /// Drains every remaining queued request after the last arrival,
    /// advancing rounds as needed.
    fn drain_all(&mut self) {
        let d = self.cfg.drain_every_ticks.max(1);
        let n = self.cfg.drain_per_round.max(1);
        while !(self.lanes[0].is_empty() && self.lanes[1].is_empty()) {
            self.rounds_done += 1;
            let tick = self.rounds_done * d;
            for _ in 0..n {
                let Some((lane, q)) = self.pick() else { break };
                self.verdicts[q.idx] = Verdict::Admit {
                    lane,
                    seq: self.next_seq,
                    delay_ticks: tick.saturating_sub(q.arrive_tick),
                };
                self.next_seq += 1;
            }
        }
    }
}

/// Ticks until `depth` queued requests drain from `lane` at its
/// weighted share of the service rate — the shed retry hint. Rounded
/// up, floored at 1 so "retry immediately" is never suggested while
/// the lane is full.
fn retry_after(cfg: &AdmissionConfig, lane: Lane, depth: usize) -> u64 {
    let fw = u64::from(cfg.fast_weight.max(1));
    let cw = u64::from(cfg.cold_weight.max(1));
    let lane_w = match lane {
        Lane::Fast => fw,
        Lane::Cold => cw,
    };
    let d = cfg.drain_every_ticks.max(1);
    let n = u64::from(cfg.drain_per_round.max(1));
    let numer = (depth as u64).saturating_mul(fw + cw).saturating_mul(d);
    let denom = lane_w.saturating_mul(n).max(1);
    (numer.saturating_add(denom - 1) / denom).max(1)
}

/// Simulates the bounded two-lane queue over the arrival sequence and
/// returns one [`Verdict`] per arrival.
///
/// `plan` is a pure function of `(arrivals, cfg)` — no clocks, locks,
/// randomness, or worker count — so the property
/// "shed decisions depend only on (arrival order, capacity, lane)"
/// holds by construction and `tests/properties.rs` can pin it.
pub fn plan(arrivals: &[TimedRequest], cfg: &AdmissionConfig) -> AdmissionPlan {
    let mut sim = Sim {
        cfg,
        lanes: [VecDeque::new(), VecDeque::new()],
        shares: RoundShares {
            fast_left: 0,
            cold_left: 0,
        },
        rounds_done: 0,
        next_seq: 0,
        // Placeholder verdicts; every slot is overwritten on admit (at
        // dequeue time) or shed (at arrival time).
        verdicts: vec![
            Verdict::Shed(OverloadInfo {
                lane: Lane::Cold,
                queue_depth: 0,
                retry_after_ticks: 1,
            });
            arrivals.len()
        ],
    };
    let mut admitted_keys: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut admitted_by_lane = [0usize; 2];
    let mut shed_by_lane = [0usize; 2];
    let mut peak_depth_by_lane = [0usize; 2];
    let mut clock = 0u64;
    for (idx, arrival) in arrivals.iter().enumerate() {
        clock = clock.max(arrival.arrive_tick);
        sim.drain_until(clock);
        let key = (arrival.request.user, arrival.request.k as u64);
        let lane = if admitted_keys.contains(&key) {
            Lane::Fast
        } else {
            Lane::Cold
        };
        let depth = sim.lanes[lane.index()].len();
        let capacity = match lane {
            Lane::Fast => cfg.fast_capacity,
            Lane::Cold => cfg.cold_capacity,
        };
        if depth >= capacity {
            shed_by_lane[lane.index()] += 1;
            sim.verdicts[idx] = Verdict::Shed(OverloadInfo {
                lane,
                queue_depth: depth,
                retry_after_ticks: retry_after(cfg, lane, depth),
            });
            continue;
        }
        admitted_by_lane[lane.index()] += 1;
        admitted_keys.insert(key);
        sim.lanes[lane.index()].push_back(Queued {
            idx,
            arrive_tick: clock,
        });
        peak_depth_by_lane[lane.index()] =
            peak_depth_by_lane[lane.index()].max(sim.lanes[lane.index()].len());
    }
    sim.drain_all();
    AdmissionPlan {
        verdicts: sim.verdicts,
        admitted_by_lane,
        shed_by_lane,
        peak_depth_by_lane,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(tick: u64, user: u32, k: usize) -> TimedRequest {
        TimedRequest {
            arrive_tick: tick,
            request: Request { user, k },
        }
    }

    /// Arrivals spaced slower than the service rate all admit with
    /// bounded delay; accounting is exact.
    fn slow_trickle() -> Vec<TimedRequest> {
        (0..20u64).map(|i| at(i * 10, i as u32 % 5, 3)).collect()
    }

    #[test]
    fn underload_admits_everything() {
        let cfg = AdmissionConfig {
            drain_every_ticks: 2,
            drain_per_round: 1,
            ..AdmissionConfig::default()
        };
        let p = plan(&slow_trickle(), &cfg);
        assert_eq!(p.offered(), 20);
        assert_eq!(p.admitted(), 20);
        assert_eq!(p.shed(), 0);
        // Dequeue order covers 0..20 exactly once.
        let mut seqs: Vec<u64> = p
            .verdicts
            .iter()
            .map(|v| match v {
                Verdict::Admit { seq, .. } => *seq,
                Verdict::Shed(_) => unreachable!("nothing shed"),
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn accounting_is_exact_under_burst() {
        // 50 simultaneous cold arrivals against a cold capacity of 8:
        // 8 admit, 42 shed, all with typed overload info.
        let arrivals: Vec<TimedRequest> = (0..50).map(|i| at(0, i, 2)).collect();
        let cfg = AdmissionConfig {
            cold_capacity: 8,
            drain_every_ticks: 100,
            drain_per_round: 1,
            ..AdmissionConfig::default()
        };
        let p = plan(&arrivals, &cfg);
        assert_eq!(p.admitted() + p.shed(), p.offered());
        assert_eq!(p.admitted(), 8);
        assert_eq!(p.shed(), 42);
        assert_eq!(p.peak_depth_by_lane[Lane::Cold.index()], 8);
        for v in &p.verdicts {
            if let Verdict::Shed(info) = v {
                assert_eq!(info.lane, Lane::Cold);
                assert_eq!(info.queue_depth, 8);
                assert!(info.retry_after_ticks >= 1);
            }
        }
    }

    #[test]
    fn repeat_keys_route_to_the_fast_lane() {
        // Same (user, k) back to back: first is cold, the rest fast.
        let arrivals: Vec<TimedRequest> = (0..4).map(|i| at(i, 7, 5)).collect();
        let p = plan(&arrivals, &AdmissionConfig::default());
        assert_eq!(p.admitted_by_lane[Lane::Cold.index()], 1);
        assert_eq!(p.admitted_by_lane[Lane::Fast.index()], 3);
        match p.verdicts[0] {
            Verdict::Admit { lane, .. } => assert_eq!(lane, Lane::Cold),
            Verdict::Shed(_) => panic!("first arrival shed"),
        }
    }

    #[test]
    fn weighted_discipline_prefers_fast_lane() {
        // Queue 4 cold users, then 8 fast repeats of an earlier key,
        // then let everything drain. With weights 2:1 the fast lane's
        // dequeue seqs should come earlier on average.
        let mut arrivals = vec![at(0, 0, 1)];
        arrivals.extend((1..5).map(|i| at(0, i, 1)));
        arrivals.extend((0..8).map(|_| at(0, 0, 1)));
        let cfg = AdmissionConfig {
            fast_weight: 2,
            cold_weight: 1,
            drain_every_ticks: 10,
            drain_per_round: 1,
            ..AdmissionConfig::default()
        };
        let p = plan(&arrivals, &cfg);
        assert_eq!(p.shed(), 0);
        let fast = p.lane_order(Lane::Fast);
        let cold = p.lane_order(Lane::Cold);
        assert_eq!(fast.len(), 8);
        assert_eq!(cold.len(), 5);
        // The first dequeue after the burst must be from the fast lane
        // only 1/3 of the time under 2:1 weighting; just pin that the
        // last cold dequeue happens after the last fast one (the cold
        // tail waits behind the weighted fast share).
        let seq_of = |idx: usize| match p.verdicts[idx] {
            Verdict::Admit { seq, .. } => seq,
            Verdict::Shed(_) => unreachable!(),
        };
        let max_fast = fast.iter().map(|&i| seq_of(i)).max().unwrap_or(0);
        let max_cold = cold.iter().map(|&i| seq_of(i)).max().unwrap_or(0);
        assert!(
            max_cold > max_fast,
            "cold tail ({max_cold}) should outlast fast tail ({max_fast})"
        );
    }

    #[test]
    fn plan_is_pure() {
        let arrivals: Vec<TimedRequest> = (0..200)
            .map(|i| at((i * 3) % 50, (i % 9) as u32, 1 + (i as usize % 3)))
            .collect();
        let cfg = AdmissionConfig {
            fast_capacity: 6,
            cold_capacity: 4,
            drain_every_ticks: 7,
            drain_per_round: 2,
            ..AdmissionConfig::default()
        };
        assert_eq!(plan(&arrivals, &cfg), plan(&arrivals, &cfg));
    }

    #[test]
    fn out_of_order_ticks_are_clamped_monotone() {
        let arrivals = vec![at(100, 1, 1), at(5, 2, 1), at(7, 3, 1)];
        let p = plan(&arrivals, &AdmissionConfig::default());
        // All three admit (huge default capacities); delays are finite
        // because the clamped clock never runs backwards.
        assert_eq!(p.admitted(), 3);
        for v in &p.verdicts {
            match v {
                Verdict::Admit { delay_ticks, .. } => assert!(*delay_ticks < 1_000),
                Verdict::Shed(_) => panic!("unexpected shed"),
            }
        }
    }

    #[test]
    fn retry_after_scales_with_depth_and_share() {
        let cfg = AdmissionConfig {
            fast_weight: 4,
            cold_weight: 1,
            drain_every_ticks: 10,
            drain_per_round: 1,
            ..AdmissionConfig::default()
        };
        // Cold lane gets 1/5 of one dequeue per 10 ticks: draining 10
        // queued requests takes ~500 ticks.
        assert_eq!(retry_after(&cfg, Lane::Cold, 10), 500);
        // The fast lane drains 4x faster.
        assert_eq!(retry_after(&cfg, Lane::Fast, 10), 125);
        // Empty lane still suggests waiting at least one tick.
        assert_eq!(retry_after(&cfg, Lane::Cold, 0), 1);
    }
}
