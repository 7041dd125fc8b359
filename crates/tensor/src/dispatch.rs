//! One-time runtime CPU-feature dispatch for the SIMD kernels.
//!
//! The workspace is compiled for a portable baseline (no
//! `target-cpu=native`, see `.cargo/config.toml`): every explicitly
//! vectorized inner loop lives in the private `simd` module behind
//! `#[target_feature]` and is only reachable through the [`Backend`]
//! chosen here: `Backend::{Scalar, Avx2, Avx512}`, the highest the CPU
//! runs. `Avx512` keeps every AVX2 kernel and adds one AVX-512 kernel,
//! the block behind `linalg::dot_rows_many_into`; an AVX2 call site
//! therefore asks whether a resolved backend [`Backend::has_avx2`], never
//! whether it equals `Avx2`. Detection runs once per process (cached in
//! a [`OnceLock`]) so the hot paths pay a single relaxed load, and the
//! choice is surfaced through [`backend_name`] so run manifests and
//! trace spans can record which kernels produced a result.
//!
//! **Determinism.** Backend selection never changes a number: each SIMD
//! kernel replicates the scalar kernel's floating-point operation order
//! (see `crate::simd`), so every non-NaN result is bit-identical and
//! `Scalar`, `Avx2` and `Avx512` are purely a speed decision. A NaN
//! result stays NaN, though its sign and payload may differ by backend;
//! neither serving's top-K nor a response byte depends on that, as the
//! selection's key puts every NaN in one class and responses print
//! `NaN`. The env override `SCENEREC_FORCE_SCALAR=1`
//! (read once, at first use) forces the scalar path for A/B testing;
//! tests that need several paths in one process use the
//! `*_with_backend` kernel variants instead of the env var.

use std::sync::OnceLock;

/// The kernel families the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar kernels — the reference implementations; always
    /// available and bit-identical to every other backend on every
    /// non-NaN result.
    Scalar,
    /// Hand-written AVX2 kernels. Requires `avx2` + `fma` + `f16c`
    /// (every AVX2-era x86-64 CPU has all three). The kernels use
    /// unfused multiply-then-add on purpose: fusing would change
    /// rounding and break scalar parity.
    Avx2,
    /// The AVX2 kernels plus the AVX-512 block kernel that dots four
    /// x-rows against 8 rows per step
    /// (`linalg::dot_rows_many_into`). Requires the AVX2 set plus
    /// `avx512f` + `avx512dq`.
    Avx512,
}

impl Backend {
    /// Stable lowercase name, recorded in manifests and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Whether a *resolved* backend runs the AVX2 kernels: `Avx2`, and
    /// `Avx512`, whose CPU has the whole AVX2 set too. Every AVX2 call
    /// site tests this, not `== Avx2`, so an AVX-512 host keeps its AVX2
    /// kernels wherever there is no AVX-512 one.
    #[inline]
    pub fn has_avx2(self) -> bool {
        matches!(self, Backend::Avx2 | Backend::Avx512)
    }
}

static BACKEND: OnceLock<Backend> = OnceLock::new();
static CPU: OnceLock<Backend> = OnceLock::new();

/// The process-wide kernel backend: detected once, cached forever.
#[inline]
pub fn backend() -> Backend {
    *BACKEND.get_or_init(detect)
}

/// [`backend`]'s stable name (`"scalar"` / `"avx2"` / `"avx512"`), for
/// provenance records.
pub fn backend_name() -> &'static str {
    backend().name()
}

/// What the CPU itself supports, ignoring the env override. Cached.
#[inline]
pub fn cpu_backend() -> Backend {
    *CPU.get_or_init(detect_cpu)
}

/// Clamps a *requested* backend to what the CPU can actually run:
/// `Scalar` is always honored, `Avx2` silently degrades to `Scalar` on
/// CPUs without avx2+fma+f16c, and `Avx512` to `Avx2` (then `Scalar`)
/// on CPUs without avx512f+avx512dq. Every kernel call site resolves
/// through here, which is what makes the public `*_with_backend`
/// functions safe to call with any [`Backend`] value on any machine.
#[inline]
pub fn resolve(requested: Backend) -> Backend {
    match requested {
        Backend::Scalar => Backend::Scalar,
        Backend::Avx2 if cpu_backend().has_avx2() => Backend::Avx2,
        Backend::Avx2 => Backend::Scalar,
        Backend::Avx512 => cpu_backend(),
    }
}

/// Uncached detection: env override first, then CPUID.
fn detect() -> Backend {
    if std::env::var_os("SCENEREC_FORCE_SCALAR").is_some_and(|v| v == "1") {
        return Backend::Scalar;
    }
    detect_cpu()
}

/// This is the guarding dispatch check for every `unsafe` kernel in
/// [`crate::simd`]: `Backend::Avx2` is returned only when the CPU
/// reports `avx2`, `fma` and `f16c` at runtime, and `Backend::Avx512`
/// only when it reports `avx512f` and `avx512dq` as well.
#[cfg(target_arch = "x86_64")]
fn detect_cpu() -> Backend {
    let avx2 = is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
        && is_x86_feature_detected!("f16c");
    let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
    match (avx2, avx512) {
        (true, true) => Backend::Avx512,
        (true, false) => Backend::Avx2,
        (false, _) => Backend::Scalar,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_cpu() -> Backend {
    Backend::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_stable_across_calls() {
        assert_eq!(backend(), backend());
        assert_eq!(backend().name(), backend_name());
    }

    #[test]
    fn resolve_honors_scalar_and_clamps_avx2() {
        assert_eq!(resolve(Backend::Scalar), Backend::Scalar);
        let avx2 = resolve(Backend::Avx2);
        assert_eq!(avx2 == Backend::Avx2, cpu_backend().has_avx2());
        assert!(matches!(avx2, Backend::Avx2 | Backend::Scalar));
    }

    #[test]
    fn names_are_lowercase_identifiers() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            let name = b.name();
            assert!(name.starts_with(|c: char| c.is_ascii_lowercase()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }

    #[test]
    fn resolved_backends_run_the_avx2_kernels_where_expected() {
        assert!(!Backend::Scalar.has_avx2());
        assert!(Backend::Avx2.has_avx2());
        assert!(Backend::Avx512.has_avx2());
        for b in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            // A request never resolves above what the CPU runs.
            assert!(!resolve(b).has_avx2() || cpu_backend().has_avx2());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn cpu_detection_matches_feature_macros() {
        let avx2 = is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma")
            && is_x86_feature_detected!("f16c");
        let avx512 =
            avx2 && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
        assert_eq!(detect_cpu().has_avx2(), avx2);
        assert_eq!(detect_cpu() == Backend::Avx512, avx512);
        // `Avx512` resolves to itself exactly on an AVX-512 host, and to
        // what an `Avx2` request resolves to everywhere else.
        if avx512 {
            assert_eq!(resolve(Backend::Avx512), Backend::Avx512);
        } else {
            assert_eq!(resolve(Backend::Avx512), resolve(Backend::Avx2));
        }
    }
}
