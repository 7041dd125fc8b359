//! Perf-regression gating: compares a fresh benchmark manifest against a
//! committed baseline (`results/BENCH_*.json`) metric by metric.
//!
//! The comparison walks every numeric leaf under the manifests' `results`
//! section. Each metric's *direction* is inferred from its path:
//!
//! * higher-is-better — throughput-style names (`per_sec`, `speedup`,
//!   `gflops`, `throughput`): a drop beyond the tolerance is a
//!   regression;
//! * lower-is-better — time-style names (`_ns`, `latency`,
//!   `per_request`): a rise beyond the tolerance is a regression;
//! * informational — everything else (request counts, worker counts):
//!   reported, never gating.
//!
//! A metric present in the baseline but missing from the candidate fails
//! the diff (a silently dropped metric is how regressions hide); new
//! candidate-only metrics are reported but pass. The two manifests must
//! also agree on their `config` section — comparing runs with different
//! workloads is meaningless, so a mismatch fails the diff outright. A
//! side that is not a manifest at all — not an object, or no `results`
//! object holding a numeric metric — is an error rather than a diff, so
//! two empty documents cannot pass vacuously.

use serde::Value;

/// Default relative tolerance: ±20 % before a metric gates.
pub const DEFAULT_TOLERANCE: f64 = 0.2;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger numbers are better (throughput, speedup).
    HigherIsBetter,
    /// Smaller numbers are better (latency, per-request cost).
    LowerIsBetter,
    /// Reported only; never fails the diff.
    Informational,
}

/// Infers a metric's direction from its dotted path. Higher-is-better
/// patterns are checked first so e.g. `requests_per_sec` never falls
/// through to a time-style match.
pub fn direction_for(path: &str) -> Direction {
    const HIGHER: [&str; 4] = ["per_sec", "speedup", "gflops", "throughput"];
    const LOWER: [&str; 3] = ["_ns", "latency", "per_request"];
    if HIGHER.iter().any(|p| path.contains(p)) {
        Direction::HigherIsBetter
    } else if LOWER.iter().any(|p| path.contains(p)) {
        Direction::LowerIsBetter
    } else {
        Direction::Informational
    }
}

/// Outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Within tolerance.
    Ok,
    /// Moved beyond tolerance in the good direction.
    Improved,
    /// Moved beyond tolerance in the bad direction — fails the diff.
    Regressed,
    /// Present in the baseline, absent from the candidate — fails.
    Missing,
    /// Present only in the candidate — reported, passes.
    New,
    /// Informational metric; never gates.
    Info,
}

impl DeltaStatus {
    fn as_str(self) -> &'static str {
        match self {
            DeltaStatus::Ok => "ok",
            DeltaStatus::Improved => "improved",
            DeltaStatus::Regressed => "regressed",
            DeltaStatus::Missing => "missing",
            DeltaStatus::New => "new",
            DeltaStatus::Info => "info",
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path under `results` (`runs[0].cold.requests_per_sec`).
    pub path: String,
    /// Baseline value (`None` for candidate-only metrics).
    pub baseline: Option<f64>,
    /// Candidate value (`None` for missing metrics).
    pub candidate: Option<f64>,
    /// Relative change `(candidate - baseline) / |baseline|`, when both
    /// sides exist and the baseline is nonzero.
    pub rel_change: Option<f64>,
    /// The inferred direction.
    pub direction: Direction,
    /// The verdict.
    pub status: DeltaStatus,
}

/// The whole comparison: per-metric deltas plus the config check.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Tolerance the verdicts were computed at.
    pub tolerance: f64,
    /// Every compared metric, in baseline path order (then new ones).
    pub deltas: Vec<Delta>,
    /// Whether the manifests' `config` sections differ.
    pub config_mismatch: bool,
}

impl DiffReport {
    /// The machine-readable gate: no regressions, no missing metrics,
    /// matching configs.
    pub fn passed(&self) -> bool {
        !self.config_mismatch
            && !self
                .deltas
                .iter()
                .any(|d| matches!(d.status, DeltaStatus::Regressed | DeltaStatus::Missing))
    }

    /// Serializes the report (for `--out`/CI artifacts).
    pub fn to_value(&self) -> Value {
        let deltas: Vec<Value> = self
            .deltas
            .iter()
            .map(|d| {
                let mut fields: Vec<(String, Value)> = vec![
                    ("path".to_string(), Value::from(d.path.as_str())),
                    ("status".to_string(), Value::from(d.status.as_str())),
                ];
                if let Some(b) = d.baseline {
                    fields.push(("baseline".to_string(), Value::from(b)));
                }
                if let Some(c) = d.candidate {
                    fields.push(("candidate".to_string(), Value::from(c)));
                }
                if let Some(r) = d.rel_change {
                    fields.push(("rel_change".to_string(), Value::from(r)));
                }
                Value::Object(fields)
            })
            .collect();
        Value::Object(vec![
            ("tolerance".to_string(), Value::from(self.tolerance)),
            ("passed".to_string(), Value::from(self.passed())),
            (
                "config_mismatch".to_string(),
                Value::from(self.config_mismatch),
            ),
            ("deltas".to_string(), Value::Array(deltas)),
        ])
    }

    /// Human-readable summary, one line per gating metric plus totals.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.config_mismatch {
            out.push_str("FAIL: config sections differ — runs are not comparable\n");
        }
        let mut counts = [0usize; 6];
        for d in &self.deltas {
            counts[d.status as usize] += 1;
            if matches!(
                d.status,
                DeltaStatus::Regressed | DeltaStatus::Missing | DeltaStatus::Improved
            ) {
                let arrow = match d.status {
                    DeltaStatus::Regressed => "REGRESSED",
                    DeltaStatus::Missing => "MISSING",
                    _ => "improved",
                };
                let change = d
                    .rel_change
                    .map(|r| format!("{:+.1}%", r * 100.0))
                    .unwrap_or_else(|| "-".to_string());
                out.push_str(&format!("{arrow:>9}  {}  ({change})\n", d.path));
            }
        }
        out.push_str(&format!(
            "{} metrics: {} ok, {} improved, {} regressed, {} missing, {} new, {} info \
             (tolerance ±{:.0}%)\n",
            self.deltas.len(),
            counts[DeltaStatus::Ok as usize],
            counts[DeltaStatus::Improved as usize],
            counts[DeltaStatus::Regressed as usize],
            counts[DeltaStatus::Missing as usize],
            counts[DeltaStatus::New as usize],
            counts[DeltaStatus::Info as usize],
            self.tolerance * 100.0,
        ));
        out.push_str(if self.passed() { "PASS\n" } else { "FAIL\n" });
        out
    }
}

/// Looks up a key in an object `Value`.
fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Flattens every numeric leaf under `v` into `(dotted_path, value)`.
fn numeric_leaves(v: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Int(i) => out.push((prefix.to_string(), *i as f64)),
        Value::Float(f) => out.push((prefix.to_string(), *f)),
        Value::Object(fields) => {
            for (k, child) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                numeric_leaves(child, &path, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                numeric_leaves(child, &format!("{prefix}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// The numeric metrics under `manifest`'s `results` object; `side`
/// names the manifest in the error.
fn metrics_of(manifest: &Value, side: &str) -> Result<Vec<(String, f64)>, String> {
    let results = match get(manifest, "results") {
        Some(r @ Value::Object(_)) => r,
        Some(_) => return Err(format!("{side}: `results` is not an object")),
        None => return Err(format!("{side}: not a manifest object with `results`")),
    };
    let mut metrics = Vec::new();
    numeric_leaves(results, "", &mut metrics);
    if metrics.is_empty() {
        return Err(format!("{side}: `results` holds no numeric metric"));
    }
    Ok(metrics)
}

/// Compares two run manifests. Both values are full manifest documents
/// (as written by [`scenerec_obs::RunManifest::write_json`]); metrics are
/// taken from their `results` sections, and the `config` sections must
/// be identical.
///
/// # Errors
/// When either side is not an object whose `results` object holds at
/// least one numeric metric; the message names the side.
pub fn diff_manifests(
    baseline: &Value,
    candidate: &Value,
    tolerance: f64,
) -> Result<DiffReport, String> {
    let base_metrics = metrics_of(baseline, "baseline")?;
    let cand_metrics = metrics_of(candidate, "candidate")?;
    let config_mismatch = get(baseline, "config") != get(candidate, "config");
    let cand_lookup: std::collections::BTreeMap<&str, f64> =
        cand_metrics.iter().map(|(p, v)| (p.as_str(), *v)).collect();
    let base_paths: std::collections::BTreeSet<&str> =
        base_metrics.iter().map(|(p, _)| p.as_str()).collect();

    let mut deltas = Vec::new();
    for (path, base) in &base_metrics {
        let direction = direction_for(path);
        let cand = cand_lookup.get(path.as_str()).copied();
        let delta = match cand {
            None => Delta {
                path: path.clone(),
                baseline: Some(*base),
                candidate: None,
                rel_change: None,
                direction,
                status: DeltaStatus::Missing,
            },
            Some(c) => {
                let rel = if *base != 0.0 {
                    Some((c - base) / base.abs())
                } else {
                    None
                };
                let status = match (direction, rel) {
                    (Direction::Informational, _) => DeltaStatus::Info,
                    // Zero baseline: only an exact match is comparable.
                    (_, None) => {
                        if c == 0.0 {
                            DeltaStatus::Ok
                        } else {
                            DeltaStatus::Info
                        }
                    }
                    (Direction::LowerIsBetter, Some(r)) if r > tolerance => DeltaStatus::Regressed,
                    (Direction::LowerIsBetter, Some(r)) if r < -tolerance => DeltaStatus::Improved,
                    (Direction::HigherIsBetter, Some(r)) if r < -tolerance => {
                        DeltaStatus::Regressed
                    }
                    (Direction::HigherIsBetter, Some(r)) if r > tolerance => DeltaStatus::Improved,
                    _ => DeltaStatus::Ok,
                };
                Delta {
                    path: path.clone(),
                    baseline: Some(*base),
                    candidate: Some(c),
                    rel_change: rel,
                    direction,
                    status,
                }
            }
        };
        deltas.push(delta);
    }
    for (path, value) in &cand_metrics {
        if !base_paths.contains(path.as_str()) {
            deltas.push(Delta {
                path: path.clone(),
                baseline: None,
                candidate: Some(*value),
                rel_change: None,
                direction: direction_for(path),
                status: DeltaStatus::New,
            });
        }
    }

    Ok(DiffReport {
        tolerance,
        deltas,
        config_mismatch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(per_request_ns: f64, per_sec: f64) -> Value {
        serde_json::parse_value(&format!(
            r#"{{
                "experiment": "serve",
                "config": {{"requests": 100, "k": 10}},
                "results": {{
                    "per_request_ns": {per_request_ns},
                    "requests_per_sec": {per_sec},
                    "requests": 100
                }}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn directions_are_inferred_from_paths() {
        assert_eq!(
            direction_for("runs[0].cold.requests_per_sec"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_for("best_speedup_vs_baseline"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction_for("freeze_ns"), Direction::LowerIsBetter);
        assert_eq!(
            direction_for("runs[1].cold_latency_p99_ns"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_for("baseline.requests"), Direction::Informational);
    }

    #[test]
    fn identical_manifests_pass() {
        let m = manifest(1000.0, 1.0e6);
        let report = diff_manifests(&m, &m, DEFAULT_TOLERANCE).unwrap();
        assert!(report.passed(), "{}", report.render_text());
        assert!(report.deltas.iter().all(|d| d.status != DeltaStatus::New));
    }

    #[test]
    fn regression_beyond_tolerance_fails_in_both_directions() {
        let base = manifest(1000.0, 1.0e6);
        // 25 % slower per request: lower-is-better regression.
        let slow = manifest(1250.0, 1.0e6);
        let report = diff_manifests(&base, &slow, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert!(report
            .deltas
            .iter()
            .any(|d| d.path == "per_request_ns" && d.status == DeltaStatus::Regressed));
        // 25 % lower throughput: higher-is-better regression.
        let starved = manifest(1000.0, 0.75e6);
        assert!(!diff_manifests(&base, &starved, DEFAULT_TOLERANCE)
            .unwrap()
            .passed());
    }

    #[test]
    fn improvement_beyond_tolerance_still_passes() {
        let base = manifest(1000.0, 1.0e6);
        let fast = manifest(500.0, 2.0e6);
        let report = diff_manifests(&base, &fast, DEFAULT_TOLERANCE).unwrap();
        assert!(report.passed(), "{}", report.render_text());
        assert_eq!(
            report
                .deltas
                .iter()
                .filter(|d| d.status == DeltaStatus::Improved)
                .count(),
            2
        );
    }

    #[test]
    fn drift_within_tolerance_is_ok() {
        let base = manifest(1000.0, 1.0e6);
        let near = manifest(1100.0, 0.9e6); // ±10 % at ±20 % tolerance
        let report = diff_manifests(&base, &near, DEFAULT_TOLERANCE).unwrap();
        assert!(report.passed());
        assert!(report
            .deltas
            .iter()
            .all(|d| !matches!(d.status, DeltaStatus::Regressed | DeltaStatus::Improved)));
    }

    #[test]
    fn missing_metric_fails_and_new_metric_passes() {
        let base = manifest(1000.0, 1.0e6);
        let renamed = serde_json::parse_value(
            r#"{
                "config": {"requests": 100, "k": 10},
                "results": {"per_request_ns": 1000.0, "brand_new_metric": 7}
            }"#,
        )
        .unwrap();
        let report = diff_manifests(&base, &renamed, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert!(report
            .deltas
            .iter()
            .any(|d| d.path == "requests_per_sec" && d.status == DeltaStatus::Missing));
        assert!(report
            .deltas
            .iter()
            .any(|d| d.path == "brand_new_metric" && d.status == DeltaStatus::New));
    }

    #[test]
    fn config_mismatch_fails_even_with_identical_results() {
        let base = manifest(1000.0, 1.0e6);
        let mut other = manifest(1000.0, 1.0e6);
        if let Value::Object(fields) = &mut other {
            for (k, v) in fields.iter_mut() {
                if k == "config" {
                    *v = serde_json::parse_value(r#"{"requests": 999, "k": 10}"#).unwrap();
                }
            }
        }
        let report = diff_manifests(&base, &other, DEFAULT_TOLERANCE).unwrap();
        assert!(report.config_mismatch);
        assert!(!report.passed());
    }

    #[test]
    fn informational_metrics_never_gate() {
        let base = manifest(1000.0, 1.0e6);
        let mut other = manifest(1000.0, 1.0e6);
        if let Value::Object(fields) = &mut other {
            for (k, v) in fields.iter_mut() {
                if k == "results" {
                    if let Value::Object(r) = v {
                        for (rk, rv) in r.iter_mut() {
                            if rk == "requests" {
                                *rv = Value::from(100_000);
                            }
                        }
                    }
                }
            }
        }
        let report = diff_manifests(&base, &other, DEFAULT_TOLERANCE).unwrap();
        assert!(report.passed(), "request counts are informational");
    }

    #[test]
    fn report_serializes_with_verdict() {
        let report = diff_manifests(
            &manifest(1000.0, 1.0e6),
            &manifest(5000.0, 1.0e6),
            DEFAULT_TOLERANCE,
        )
        .unwrap();
        let v = report.to_value();
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains("\"passed\":false"));
        assert!(json.contains("\"regressed\""));
        assert!(report.render_text().contains("FAIL"));
    }
}
