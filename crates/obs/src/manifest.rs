//! Run manifests: one JSON file per run, written next to the result
//! file, capturing enough provenance to reproduce or audit the run.

use crate::clock::unix_ms;
use crate::trace::{timings, SpanTiming, TraceData};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Hardware/OS provenance for a run: bench JSONs are only comparable
/// between machines with the same architecture, SIMD features and
/// parallelism, so `bench-diff` consumers need this recorded.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HostInfo {
    /// Target architecture (e.g. `x86_64`).
    pub arch: String,
    /// Operating system (e.g. `linux`).
    pub os: String,
    /// Available hardware parallelism (logical CPUs).
    pub threads: usize,
    /// Runtime-detected SIMD features relevant to the kernels.
    pub cpu_features: Vec<String>,
}

impl HostInfo {
    /// Probes the current host.
    pub fn detect() -> Self {
        HostInfo {
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_features: detect_cpu_features(),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_cpu_features() -> Vec<String> {
    let mut features = Vec::new();
    if is_x86_feature_detected!("sse4.2") {
        features.push("sse4.2".to_string());
    }
    if is_x86_feature_detected!("avx2") {
        features.push("avx2".to_string());
    }
    if is_x86_feature_detected!("fma") {
        features.push("fma".to_string());
    }
    if is_x86_feature_detected!("avx512f") {
        features.push("avx512f".to_string());
    }
    features
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_cpu_features() -> Vec<String> {
    Vec::new()
}

/// Provenance + telemetry record for one benchmark/training run.
///
/// Build one with [`RunManifest::new`], fill in the run parameters,
/// then call [`capture_telemetry`](RunManifest::capture_telemetry) and
/// [`write_next_to`](RunManifest::write_next_to) (or
/// [`write_json`](RunManifest::write_json)) at the end of the run. It
/// serializes field by field, in declaration order.
#[derive(Debug, Clone, Serialize)]
pub struct RunManifest {
    /// Name of the producing binary (e.g. `"table2"`).
    pub binary: String,
    /// Wall-clock creation time, ms since the unix epoch.
    pub created_unix_ms: u64,
    /// `git rev-parse HEAD` of the working tree, when available.
    pub git_rev: Option<String>,
    /// Hardware/OS the run executed on.
    pub host: HostInfo,
    /// RNG seed driving the run.
    pub seed: Option<u64>,
    /// Dataset scale label (e.g. `"laptop"`).
    pub scale: Option<String>,
    /// Model kinds exercised by the run.
    pub models: Vec<String>,
    /// Resolved kernel dispatch backend (e.g. `"avx2"`, `"scalar"`), as
    /// reported by the tensor crate's runtime CPU dispatch. Bench JSONs
    /// produced by different backends are not comparable, so diff
    /// tooling needs this recorded.
    pub kernel_backend: Option<String>,
    /// Full run configuration, serialized.
    pub config: Value,
    /// Wall time per span name over the run's traces
    /// ([`timings`](crate::trace::timings)), sorted by name.
    pub timings: Vec<SpanTiming>,
    /// Final results payload (tables, per-model metrics, ...).
    pub results: Value,
}

impl RunManifest {
    /// Empty manifest stamped with the current time and git revision.
    pub fn new(binary: impl Into<String>) -> Self {
        RunManifest {
            binary: binary.into(),
            created_unix_ms: unix_ms(),
            git_rev: git_revision().map(str::to_string),
            host: HostInfo::detect(),
            seed: None,
            scale: None,
            models: Vec::new(),
            kernel_backend: None,
            config: Value::Null,
            timings: Vec::new(),
            results: Value::Null,
        }
    }

    /// Records the run configuration.
    pub fn with_config<T: Serialize>(mut self, config: &T) -> Self {
        self.config = config.to_value();
        self
    }

    /// Records the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Records the dataset scale label.
    pub fn with_scale(mut self, scale: impl Into<String>) -> Self {
        self.scale = Some(scale.into());
        self
    }

    /// Records the model kinds exercised.
    pub fn with_models(mut self, models: impl IntoIterator<Item = String>) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// Records the resolved kernel dispatch backend. The obs crate does
    /// not depend on the tensor crate, so callers pass the string —
    /// typically `scenerec_tensor::backend_name()`.
    pub fn with_kernel_backend(mut self, backend: impl Into<String>) -> Self {
        self.kernel_backend = Some(backend.into());
        self
    }

    /// Records the final results payload.
    pub fn with_results<T: Serialize>(mut self, results: &T) -> Self {
        self.results = results.to_value();
        self
    }

    /// Records the wall time of the run's `traces`, aggregated per span
    /// name. Call once, at the end of the run; a run that traced
    /// nothing passes `&[]`.
    pub fn capture_telemetry(mut self, traces: &[TraceData]) -> Self {
        self.timings = timings(traces);
        self
    }

    /// Pretty-printed JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).unwrap_or_default()
    }

    /// Writes the manifest to `path`, creating parent directories.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Writes the manifest next to `result_path` as
    /// `<stem>.manifest.json` and returns the manifest path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_next_to(&self, result_path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let result_path = result_path.as_ref();
        let stem = result_path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("run");
        let manifest_path = result_path.with_file_name(format!("{stem}.manifest.json"));
        self.write_json(&manifest_path)?;
        Ok(manifest_path)
    }
}

/// The working tree's `git rev-parse HEAD`, cached for the process
/// lifetime; `None` when git or the repository is unavailable.
pub fn git_revision() -> Option<&'static str> {
    static REV: OnceLock<Option<String>> = OnceLock::new();
    REV.get_or_init(|| {
        let out = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
        if rev.is_empty() {
            None
        } else {
            Some(rev)
        }
    })
    .as_deref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn manifest_serializes_all_sections() {
        let mut trace = Trace::new(0);
        let phase = trace.start_span("manifest_test.phase");
        trace.end_span(phase);
        let m = RunManifest::new("unit-test")
            .with_seed(42)
            .with_scale("laptop")
            .with_models(["scenerec".to_string(), "bpr-mf".to_string()])
            .with_kernel_backend("avx2")
            .with_config(&vec![1u32, 2, 3])
            .with_results(&vec![0.5f64])
            .capture_telemetry(&[trace.finish()]);
        let json = m.to_json();
        for needle in [
            "\"binary\": \"unit-test\"",
            "\"seed\": 42",
            "\"scale\": \"laptop\"",
            "\"scenerec\"",
            "\"name\": \"manifest_test.phase\"",
            "\"self_ns\"",
            "\"timings\"",
            "\"results\"",
            "\"host\"",
            "\"threads\"",
            "\"cpu_features\"",
            "\"kernel_backend\": \"avx2\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // The JSON parses back cleanly.
        serde_json::parse_value(&json).unwrap();
    }

    #[test]
    fn host_info_detects_sane_values() {
        let host = HostInfo::detect();
        assert!(!host.arch.is_empty());
        assert!(!host.os.is_empty());
        assert!(host.threads >= 1);
        #[cfg(target_arch = "x86_64")]
        assert!(host
            .cpu_features
            .iter()
            .all(|f| ["sse4.2", "avx2", "fma", "avx512f"].contains(&f.as_str())));
    }

    #[test]
    fn write_next_to_places_sibling_manifest() {
        let dir = std::env::temp_dir().join(format!("obs-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let result = dir.join("table2.json");
        let m = RunManifest::new("table2");
        let path = m.write_next_to(&result).unwrap();
        assert_eq!(path, dir.join("table2.manifest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        serde_json::parse_value(&text).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
