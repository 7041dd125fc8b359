//! Fault plans: what to inject, where, and on which invocations.

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with an injected I/O error.
    Io,
    /// A byte buffer is truncated to a plan-chosen prefix (a torn or
    /// short read/write).
    ShortRead,
    /// One plan-chosen bit of a byte buffer is flipped.
    BitFlip,
    /// The worker panics (serving) or the run is interrupted (training).
    Panic,
}

/// Which invocations of an injection point a spec fires on.
///
/// Invocations are counted from 1 per point name, in arrival order across
/// all threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Exactly the `n`-th invocation (1-based).
    Nth(u64),
    /// Every `n`-th invocation (`n`, `2n`, `3n`, …).
    Every(u64),
    /// Every invocation strictly after the `n`-th.
    After(u64),
    /// Every invocation.
    Always,
}

impl Trigger {
    /// Whether this trigger fires on (1-based) invocation `seq`.
    pub fn fires(self, seq: u64) -> bool {
        match self {
            Trigger::Nth(n) => seq == n,
            Trigger::Every(n) => n > 0 && seq.is_multiple_of(n),
            Trigger::After(n) => seq > n,
            Trigger::Always => true,
        }
    }
}

/// One armed fault: a point name, a trigger, and what to inject.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Injection-point name, e.g. `"checkpoint/read"`.
    pub point: String,
    /// Which invocations fire.
    pub trigger: Trigger,
    /// What happens when it fires.
    pub fault: Fault,
}

/// A seeded schedule of faults.
///
/// The seed feeds the per-hit corruption rng (byte offsets, flipped
/// bits, truncation lengths); the triggers are counted logically, so a
/// plan replayed against the same workload injects the same faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for corruption decisions.
    pub seed: u64,
    /// Armed faults, matched in declaration order (first match wins).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given corruption seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Arms `fault` at `point` on the invocations selected by `trigger`.
    #[must_use]
    pub fn inject(mut self, point: &str, trigger: Trigger, fault: Fault) -> Self {
        self.specs.push(FaultSpec {
            point: point.to_owned(),
            trigger,
            fault,
        });
        self
    }

    /// The first armed fault matching `point` at invocation `seq`.
    pub fn fault_for(&self, point: &str, seq: u64) -> Option<Fault> {
        self.specs
            .iter()
            .find(|s| s.point == point && s.trigger.fires(seq))
            .map(|s| s.fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_as_documented() {
        assert!(Trigger::Nth(3).fires(3));
        assert!(!Trigger::Nth(3).fires(2) && !Trigger::Nth(3).fires(4));
        assert!(Trigger::Every(2).fires(2) && Trigger::Every(2).fires(4));
        assert!(!Trigger::Every(2).fires(3));
        assert!(!Trigger::Every(0).fires(5), "Every(0) must never fire");
        assert!(Trigger::After(2).fires(3) && !Trigger::After(2).fires(2));
        assert!(Trigger::Always.fires(1));
    }

    #[test]
    fn first_matching_spec_wins() {
        let plan = FaultPlan::new(1)
            .inject("p", Trigger::Nth(2), Fault::Io)
            .inject("p", Trigger::Always, Fault::BitFlip);
        assert_eq!(plan.fault_for("p", 1), Some(Fault::BitFlip));
        assert_eq!(plan.fault_for("p", 2), Some(Fault::Io));
        assert_eq!(plan.fault_for("q", 2), None);
    }
}
