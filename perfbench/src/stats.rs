//! Pure helpers behind the reported numbers: percentile choice, the
//! tick-to-wall-clock schedule, the `slo_rps` ladder search and the
//! variant-difference attribution. Unit-tested below.

/// Percentiles a tail figure may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n > 0` samples.
/// The epsilon keeps `99.9 * 10_000 / 100` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// A tail figure: the percentile it was taken at, its value and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Sorts `samples` and reports them at [`tail_percentile`].
pub fn tail(samples: &mut [f64]) -> Option<Tail> {
    samples.sort_by(f64::total_cmp);
    let pct = tail_percentile(samples.len())?;
    Some(Tail {
        pct,
        value: percentile(samples, pct),
        n: samples.len(),
    })
}

/// Samples per window of [`segmented_tail`]: enough for a p90 with ten
/// samples beyond it. Short windows keep one stall of a shared machine
/// from moving the reported tail.
pub const SEGMENT: usize = 100;

/// The tail of a sample kept in arrival order, robust to one stall: the
/// sample is cut into consecutive segments of at least [`SEGMENT`]
/// samples, each is reported at its [`tail_percentile`], and the median
/// of those figures is returned (with the per-segment percentile and the
/// total count). Fewer than two segments' worth is reported whole.
pub fn segmented_tail(in_order: &[f64]) -> Option<Tail> {
    let segments = in_order.len() / SEGMENT;
    if segments < 2 {
        return tail(&mut in_order.to_vec());
    }
    let len = in_order.len() / segments;
    let tails: Vec<Tail> = (0..segments)
        .filter_map(|s| {
            let end = if s + 1 == segments {
                in_order.len()
            } else {
                (s + 1) * len
            };
            tail(&mut in_order[s * len..end].to_vec())
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        pct: tails.iter().map(|t| t.pct).fold(f64::INFINITY, f64::min),
        value: median(&values),
        n: in_order.len(),
    })
}

/// Median of an unsorted sample (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Maps an arrival schedule in logical ticks onto wall-clock offsets in
/// nanoseconds at `rate_per_s`.
///
/// Each inter-arrival gap (the first one measured from tick 0) is capped
/// at `max_gap_factor` times the median gap, so one extreme Pareto draw
/// cannot turn a run into idle time (the median, unlike the mean, is not
/// moved by that draw); the capped gaps are then scaled so their mean is
/// exactly `1 / rate_per_s`. Bursts keep their shape, and
/// the offered rate over the schedule is exactly `rate_per_s`.
pub fn schedule_ns(ticks: &[u64], rate_per_s: f64, max_gap_factor: f64) -> Vec<u64> {
    if ticks.is_empty() {
        return Vec::new();
    }
    let mut prev = 0u64;
    let mut gaps: Vec<f64> = ticks
        .iter()
        .map(|&t| {
            let g = t.saturating_sub(prev) as f64;
            prev = prev.max(t);
            g
        })
        .collect();
    let cap = median(&gaps) * max_gap_factor;
    for g in &mut gaps {
        *g = g.min(cap);
    }
    let capped_mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let ns_per_gap = 1e9 / rate_per_s;
    let mut at = 0.0f64;
    gaps.iter()
        .map(|g| {
            at += if capped_mean > 0.0 {
                g / capped_mean * ns_per_gap
            } else {
                ns_per_gap
            };
            at.round() as u64
        })
        .collect()
}

/// One rung of the `slo_rps` ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    /// Tail latency at the ladder's percentile, milliseconds.
    pub tail_ms: f64,
    /// Whether the backlog stayed bounded over the rung.
    pub backlog_ok: bool,
}

impl Rung {
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.backlog_ok && self.tail_ms <= limit_ms
    }
}

/// The highest sustainable rate on an ascending ladder: the rate of the
/// last rung before the first failing one, moved toward the failing rung
/// by where the latency limit falls between the two rungs' tail
/// latencies (interpolated in log latency, which is close to linear in
/// rate near saturation). A rung that failed on backlog counts as
/// infinitely slow. When the first rung already fails, its rate is scaled
/// down by `limit / tail`; when every rung passes, the top rate is
/// returned.
pub fn slo_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let Some(fail) = rungs.iter().position(|r| !r.passes(limit_ms)) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    let bad = rungs[fail];
    if fail == 0 {
        let slowdown = if bad.backlog_ok {
            (limit_ms / bad.tail_ms).min(1.0)
        } else {
            0.5
        };
        return bad.rate * slowdown;
    }
    let good = rungs[fail - 1];
    if !bad.backlog_ok || bad.tail_ms <= good.tail_ms {
        return good.rate;
    }
    let span = bad.tail_ms.ln() - good.tail_ms.max(f64::MIN_POSITIVE).ln();
    let frac = ((limit_ms.ln() - good.tail_ms.max(f64::MIN_POSITIVE).ln()) / span).clamp(0.0, 1.0);
    good.rate + frac * (bad.rate - good.rate)
}

/// Per-triple cost attributed to each SceneRec component: the full
/// model's cost minus the cost of the variant that lacks the component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    pub item_item: f64,
    pub scene: f64,
    pub attention: f64,
}

/// Attributes cost from per-variant measurements `(full, noitem, nosce,
/// noatt)`. A negative share means the variant measured slower than the
/// full model — noise, or a variant doing extra work — and is reported
/// as measured rather than clamped.
pub fn attribute(full: f64, no_item: f64, no_scene: f64, no_attention: f64) -> Attribution {
    Attribution {
        item_item: full - no_item,
        scene: full - no_scene,
        attention: full - no_attention,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_choice_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..3_000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_reports_value_and_count() {
        let mut v: Vec<f64> = (0..1_000).rev().map(f64::from).collect();
        let t = tail(&mut v).unwrap();
        assert_eq!(
            t,
            Tail {
                pct: 99.0,
                value: 989.0,
                n: 1_000
            }
        );
        assert!(tail(&mut [1.0; 5]).is_none());
    }

    #[test]
    fn segmented_tail_ignores_one_bad_segment() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        // A stall inflates the middle segment only.
        for x in &mut v[100..200] {
            *x += 1e6;
        }
        let t = segmented_tail(&v).unwrap();
        assert_eq!(
            t,
            Tail {
                pct: 90.0,
                value: 89.0,
                n: 300
            }
        );
        // Under two segments' worth, the whole sample is one tail.
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(segmented_tail(&short), tail(&mut short.clone()));
        assert!(segmented_tail(&[1.0; 3]).is_none());
    }

    #[test]
    fn schedule_hits_the_rate_and_keeps_order() {
        let ticks = [100u64, 100, 250, 300, 700];
        let ns = schedule_ns(&ticks, 1_000.0, 100.0);
        assert_eq!(ns.len(), 5);
        assert!(ns.windows(2).all(|w| w[0] <= w[1]));
        // Five arrivals at 1000/s span exactly 5 ms.
        assert_eq!(*ns.last().unwrap(), 5_000_000);
        // Gaps keep their proportions: 100, 0, 150, 50, 400 of 700 ticks.
        assert_eq!(ns[0], 714_286);
        assert_eq!(ns[1], ns[0]);
        assert_eq!(ns[3] - ns[2], 357_143);
    }

    #[test]
    fn schedule_caps_outlier_gaps() {
        let mut ticks: Vec<u64> = (1..=99).map(|i| i * 10).collect();
        ticks.push(990 + 1_000_000);
        let ns = schedule_ns(&ticks, 100.0, 20.0);
        let gaps: Vec<u64> = ns.windows(2).map(|w| w[1] - w[0]).collect();
        let largest = *gaps.iter().max().unwrap() as f64;
        let typical = gaps[0] as f64;
        // The outlier is cut to 20x the median gap, not 100_000x.
        assert!((largest / typical - 20.0).abs() < 1e-3);
        assert_eq!(*ns.last().unwrap(), 1_000_000_000);
        assert!(schedule_ns(&[], 1.0, 1.0).is_empty());
        assert_eq!(
            schedule_ns(&[0, 0], 1_000.0, 5.0),
            vec![1_000_000, 2_000_000]
        );
    }

    fn rung(rate: f64, tail_ms: f64) -> Rung {
        Rung {
            rate,
            tail_ms,
            backlog_ok: true,
        }
    }

    #[test]
    fn slo_rate_interpolates_between_rungs() {
        let ladder = [rung(1_000.0, 0.5), rung(2_000.0, 1.0), rung(3_000.0, 4.0)];
        // ln 2 lies halfway between ln 1 and ln 4.
        assert!((slo_rate(&ladder, 2.0) - 2_500.0).abs() < 1e-9);
        assert_eq!(slo_rate(&ladder, 1.0), 2_000.0);
        assert_eq!(slo_rate(&ladder, 10.0), 3_000.0);
    }

    #[test]
    fn slo_rate_handles_backlog_and_low_rungs() {
        let mut ladder = [rung(1_000.0, 0.5), rung(2_000.0, 1.5)];
        ladder[1].backlog_ok = false;
        assert_eq!(slo_rate(&ladder, 2.0), 1_000.0);
        assert_eq!(slo_rate(&[rung(1_000.0, 4.0)], 2.0), 500.0);
        let mut flooded = rung(1_000.0, 1.0);
        flooded.backlog_ok = false;
        assert_eq!(slo_rate(&[flooded], 2.0), 500.0);
        assert_eq!(slo_rate(&[], 2.0), 0.0);
    }

    #[test]
    fn attribution_is_full_minus_variant() {
        let a = attribute(100.0, 60.0, 75.0, 90.0);
        assert_eq!(
            a,
            Attribution {
                item_item: 40.0,
                scene: 25.0,
                attention: 10.0
            }
        );
        assert_eq!(attribute(10.0, 12.0, 10.0, 10.0).item_item, -2.0);
    }
}
