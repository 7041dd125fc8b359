//! # scenerec-faults — seeded, deterministic fault injection
//!
//! The production story of this workspace (checkpointed training,
//! batched serving) is only as strong as its failure paths, and failure
//! paths that are never executed are broken by default. This crate makes
//! failures *injectable on purpose*: a [`FaultPlan`] names the faults to
//! fire (I/O errors, short reads, bit flips, worker panics), an
//! [`Injector`] hands them out at named **injection
//! points** compiled into the checkpoint, scheduler and trainer code
//! paths, and the chaos suite (`tests/chaos.rs`) asserts the recovery
//! invariants under seeded schedules.
//!
//! ## Determinism discipline
//!
//! Everything is driven by the workspace's existing rng rules — no wall
//! clocks, no OS entropy:
//!
//! * *Which* invocation of a point faults is decided by a [`Trigger`]
//!   over a per-point logical invocation counter.
//! * *How* a buffer is corrupted (byte offset, flipped bit, truncation
//!   length) is drawn from a `StdRng` seeded from
//!   `(plan seed, point name, invocation index)` — the same plan against
//!   the same bytes always produces the same corruption.
//! * Retry backoff is measured in **logical ticks**, not wall time, so
//!   its arithmetic stays pure (see [`Backoff`]).
//!
//! ## Disabled means free
//!
//! [`Injector::disabled()`] carries no plan (`Option::None` inside); every
//! probe method is `#[inline]` and reduces to a branch on a `None` that
//! the optimizer folds away, so production call sites pay nothing when no
//! faults are armed.
//!
//! Every fault that actually fires is counted by its injector
//! ([`Injector::injected`]) and leaves a `faults.injected` entry in the
//! `scenerec-obs` flight recorder, so a chaos run can report how much
//! adversity it survived and a post-mortem dump shows which faults
//! preceded a crash.

// Library crates stay entirely safe; tensor alone carries the SIMD
// intrinsics and documents each unsafe block (lint rule R2).
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backoff;
pub mod crc;
pub mod inject;
pub mod plan;

pub use backoff::Backoff;
pub use crc::crc32;
pub use inject::{InjectedIo, Injector};
pub use plan::{Fault, FaultPlan, FaultSpec, Trigger};
