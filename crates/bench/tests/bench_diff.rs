//! End-to-end perf-gate tests against the *committed* baseline: the
//! checked-in `results/BENCH_serve.json` must pass a self-diff at the
//! default tolerance, and an injected ≥20 % regression on it must fail.
//! A document that is not a manifest with numeric results is an error,
//! which the `bench_diff` binary reports with exit code 2.

use scenerec_bench::diff::{diff_manifests, DeltaStatus, DEFAULT_TOLERANCE};
use serde::Value;
use std::path::PathBuf;

fn committed_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_serve.json")
}

fn committed_baseline() -> Value {
    let path = committed_baseline_path();
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::parse_value(&text).unwrap()
}

/// Multiplies every numeric leaf named `key` by `factor`, recursively.
fn scale_metric(v: &mut Value, key: &str, factor: f64) -> usize {
    match v {
        Value::Object(fields) => {
            let mut hits = 0;
            for (k, child) in fields.iter_mut() {
                if k == key {
                    match child {
                        Value::Float(f) => {
                            *f *= factor;
                            hits += 1;
                        }
                        Value::Int(i) => {
                            *child = Value::Float(*i as f64 * factor);
                            hits += 1;
                        }
                        _ => {}
                    }
                } else {
                    hits += scale_metric(child, key, factor);
                }
            }
            hits
        }
        Value::Array(items) => items.iter_mut().map(|c| scale_metric(c, key, factor)).sum(),
        _ => 0,
    }
}

#[test]
fn committed_baseline_passes_self_diff() {
    let baseline = committed_baseline();
    let report = diff_manifests(&baseline, &baseline, DEFAULT_TOLERANCE).unwrap();
    assert!(report.passed(), "{}", report.render_text());
    assert!(
        report.deltas.len() >= 10,
        "the serve manifest should expose many metrics: {}",
        report.deltas.len()
    );
    // The manifest must carry gating metrics in both directions.
    assert!(report
        .deltas
        .iter()
        .any(|d| d.path.contains("per_request_ns")));
    assert!(report
        .deltas
        .iter()
        .any(|d| d.path.contains("requests_per_sec")));
}

#[test]
fn injected_regression_on_committed_baseline_fails() {
    let baseline = committed_baseline();
    let mut slowed = committed_baseline();
    // 25 % slower per request everywhere: beyond the ±20 % tolerance.
    let hits = scale_metric(&mut slowed, "per_request_ns", 1.25);
    assert!(hits > 0, "fixture never touched a metric");
    let report = diff_manifests(&baseline, &slowed, DEFAULT_TOLERANCE).unwrap();
    assert!(!report.passed(), "{}", report.render_text());
    assert!(report
        .deltas
        .iter()
        .any(|d| d.status == DeltaStatus::Regressed && d.path.contains("per_request_ns")));

    // The same injection in the harmless direction still passes.
    let mut sped_up = committed_baseline();
    scale_metric(&mut sped_up, "per_request_ns", 0.75);
    assert!(diff_manifests(&baseline, &sped_up, DEFAULT_TOLERANCE)
        .unwrap()
        .passed());
}

#[test]
fn throughput_drop_on_committed_baseline_fails() {
    let baseline = committed_baseline();
    let mut starved = committed_baseline();
    let hits = scale_metric(&mut starved, "requests_per_sec", 0.7);
    assert!(hits > 0);
    let report = diff_manifests(&baseline, &starved, DEFAULT_TOLERANCE).unwrap();
    assert!(!report.passed());
    assert!(report
        .deltas
        .iter()
        .any(|d| d.status == DeltaStatus::Regressed && d.path.contains("requests_per_sec")));
}

#[test]
fn non_manifests_are_errors_not_vacuous_passes() {
    let parse = |s: &str| serde_json::parse_value(s).unwrap();
    let baseline = committed_baseline();
    for (base, cand, side) in [
        (parse("{}"), parse("{}"), "baseline"),
        (parse("[1,2]"), parse("{}"), "baseline"),
        (baseline.clone(), parse("{}"), "candidate"),
        (
            baseline.clone(),
            parse(r#"{"results": [1, 2]}"#),
            "candidate",
        ),
        (
            baseline.clone(),
            parse(r#"{"results": {"binary": "serve"}}"#),
            "candidate",
        ),
    ] {
        match diff_manifests(&base, &cand, DEFAULT_TOLERANCE) {
            Err(e) => assert!(e.starts_with(side), "{e}"),
            Ok(report) => panic!("passed a non-manifest:\n{}", report.render_text()),
        }
    }
}

#[test]
fn bench_diff_exits_2_on_non_manifests() {
    let dir = std::env::temp_dir().join(format!("bench-diff-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "{}").unwrap();
    // Nested past the parser's depth limit: a parse error, not a stack
    // overflow.
    let deep = dir.join("deep.json");
    std::fs::write(
        &deep,
        format!("{}{}", "[".repeat(100_000), "]".repeat(100_000)),
    )
    .unwrap();
    for candidate in [&empty, &deep] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_bench_diff"))
            .arg("--baseline")
            .arg(committed_baseline_path())
            .arg("--candidate")
            .arg(candidate)
            .output()
            .unwrap()
            .status;
        assert_eq!(status.code(), Some(2), "{}", candidate.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
