//! The perf-regression gate: diffs a fresh benchmark manifest against a
//! committed baseline and exits nonzero when anything regressed.
//!
//! ```text
//! cargo run -p scenerec-bench --bin bench_diff --release -- \
//!     --baseline results/BENCH_serve.json \
//!     --candidate results/ci/BENCH_serve.json \
//!     [--tolerance 0.2] [--out results/ci/bench_diff.json]
//! ```
//!
//! Exit codes: `0` pass, `1` regression / missing metric / config
//! mismatch, `2` usage or I/O error, or a file that is not a manifest
//! with numeric `results`. See `scenerec_bench::diff` for the
//! comparison semantics (per-metric direction inference, tolerances).

use scenerec_bench::cli::Args;
use scenerec_bench::diff::{diff_manifests, DEFAULT_TOLERANCE};
use serde::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("parse {path}: {e:?}"))
}

fn run() -> Result<bool, String> {
    let args = Args::from_env();
    let baseline_path = args.get("baseline").ok_or(
        "usage: bench_diff --baseline <json> --candidate <json> [--tolerance 0.2] [--out <json>]",
    )?;
    let candidate_path = args.get("candidate").ok_or("missing --candidate <json>")?;
    let tolerance: f64 = args.get_or("tolerance", DEFAULT_TOLERANCE);
    if tolerance.is_nan() || tolerance < 0.0 {
        return Err(format!("--tolerance must be >= 0, got {tolerance}"));
    }

    let baseline = load(baseline_path)?;
    let candidate = load(candidate_path)?;
    let report = diff_manifests(&baseline, &candidate, tolerance)?;

    println!("baseline:  {baseline_path}");
    println!("candidate: {candidate_path}");
    print!("{}", report.render_text());

    if let Some(out) = args.get("out") {
        if let Some(dir) = std::path::Path::new(out).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        let json = serde_json::to_string_pretty(&report.to_value())
            .map_err(|e| format!("serialize report: {e:?}"))?;
        std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("[bench_diff] wrote {out}");
    }
    Ok(report.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            ExitCode::from(2)
        }
    }
}
