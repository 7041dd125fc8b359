//! Synchronization helpers shared across the workspace.

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard when a panicking thread poisoned the
/// mutex. Shared mutable state in this workspace (flight-recorder
/// rings, the histogram registry, serve queues, fault counters) is always
/// updated with simple insert/replace writes that cannot be left
/// half-modified, so poison recovery is safe — and observability/serving
/// must never abort the program they support.
///
/// This is *the* canonical helper: the lint pass treats a call to
/// `lock_unpoisoned` as a lock acquisition of the lock named by its
/// argument (`[rules.L1] acquire-fns` in `lint.toml`), so using it —
/// rather than a per-crate copy — is what makes lock-order analysis see
/// every guard.
pub fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
