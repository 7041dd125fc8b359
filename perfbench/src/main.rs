//! One command for the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_electronics|serve_hot|serve_catalog> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, checks the program's
//! outputs, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records
//! spans around each call into a layer, writes them as Chrome trace JSON
//! under `perfbench/out/`, and reports the per-layer metrics derived from
//! them. See `perfbench/README.md`.

mod catalog;
mod hot;
mod stats;
mod train;

use scenerec_obs::trace::{chrome_trace_json, Trace, TraceData};
use scenerec_obs::HostInfo;
use std::process::ExitCode;
use std::time::Instant;

/// How many times each workload repeats its set-up; `setup_s` is the
/// median, so one slow repetition does not move it.
pub const SETUP_REPS: usize = 5;

/// Runs a workload's set-up [`SETUP_REPS`] times, freeing each build
/// before the next; returns the last build and the median seconds.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (built.expect("SETUP_REPS > 0"), stats::median(&times))
}

/// Threads every workload runs on (the reference box has two cores):
/// trainer workers, ranking threads, serving workers, replay workers.
pub const THREADS: usize = 2;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer its workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("core.model_build_ms", "ms"),
    ("trainer.sample_ms", "ms/epoch"),
    ("trainer.fanout_ms", "ms/epoch"),
    ("trainer.reduce_ms", "ms/epoch"),
    ("trainer.step_ms", "ms/epoch"),
    ("trainer.eval_ms", "ms/epoch"),
    ("trainer.parallel_efficiency", "ratio"),
    ("autodiff.forward_us", "us/triple"),
    ("autodiff.backward_us", "us/triple"),
    ("autodiff.tape_nodes", "nodes/triple"),
    ("autodiff.optim_step_us", "us"),
    ("core.item_item_us", "us/triple"),
    ("core.scene_us", "us/triple"),
    ("core.attention_us", "us/triple"),
    ("eval.evaluate_ms", "ms"),
    ("core.freeze_ms", "ms"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.hit_us_p50", "us"),
    ("serve.miss_us_p50", "us"),
    ("serve.miss_us_p99", "us"),
    ("serve.mark_seen_us_p99", "us"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.backlog_end", "count"),
    ("serve.shard0.partial_us_p50", "us"),
    ("serve.shard1.partial_us_p50", "us"),
    ("serve.shard0.candidates", "count"),
    ("serve.shard1.candidates", "count"),
    ("tensor.score_bt_gflops", "GFLOP/s"),
    ("tensor.score_bt_mb", "MB/call"),
    ("serve.topk_us", "us"),
    ("serve.merge_us", "us"),
    ("serve.scheduler_share", "ratio"),
    ("bench.sender_late_ms_p99", "ms"),
    ("bench.layer_coverage", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the measured window plus output checks.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Median set-up time over [`SETUP_REPS`] repetitions.
    pub setup_s: f64,
    /// Work items per wall second (per-workload definition in README.md).
    pub throughput_per_s: f64,
    /// Latency samples of the workload's user-facing operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Per-layer figures (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// False when the harness could not drive the load it meant to (an
    /// open-loop sender that fell behind); the figures are then printed
    /// but flagged.
    pub valid: bool,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans recorded by a traced run.
    pub traces: Vec<TraceData>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_s: f64::NAN,
            throughput_per_s: f64::NAN,
            latencies_ms: Vec::new(),
            layers: Vec::new(),
            valid: true,
            notes: Vec::new(),
            traces: Vec::new(),
        }
    }
}

impl Outcome {
    /// Records one output check; a failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {name}"));
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<RunConfig, String> {
    let mut rc = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => rc.workload = value.clone(),
            "--seed" => rc.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => rc.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                rc.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(rc.seconds > 0.0 && rc.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", rc.seconds));
    }
    Ok(rc)
}

/// Records spans when tracing is on and does nothing otherwise, so the
/// traced and untraced runs execute the same calls.
pub struct Tracer(Option<Trace>);

impl Tracer {
    pub fn new(on: bool, id: u64) -> Self {
        Tracer(on.then(|| Trace::new(id)))
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(t) = self.0.as_mut() else { return f() };
        let s = t.start_span(name);
        let out = f();
        t.end_span(s);
        out
    }

    pub fn finish(self) -> Option<TraceData> {
        self.0.map(Trace::finish)
    }
}

/// Durations in nanoseconds of every span called `name`.
pub fn span_ns<'a>(traces: impl IntoIterator<Item = &'a TraceData>, name: &str) -> Vec<f64> {
    traces
        .into_iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Nanoseconds to open and close one span, measured on this machine.
fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut t = Trace::new(0);
    let start = Instant::now();
    for _ in 0..N {
        let s = t.start_span("bench.calibrate");
        t.end_span(s);
    }
    std::hint::black_box(t.finish());
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of a git checkout in the working directory, if any.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

fn provenance(rc: &RunConfig) -> String {
    let host = HostInfo::detect();
    let features: Vec<String> = host
        .cpu_features
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"threads_used\": {}, \"tensor_backend\": \"{}\", \"cpu_features\": [{}], \
         \"git_rev\": \"{}\"}}}}",
        rc.workload,
        rc.seed,
        rc.seconds,
        u8::from(rc.trace),
        host.threads,
        THREADS,
        scenerec_tensor::backend_name(),
        features.join(", "),
        git_rev(),
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let rc = match parse_args() {
        Ok(rc) => rc,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut out = match rc.workload.as_str() {
        "train_electronics" => train::run(&rc),
        "serve_hot" => hot::run(&rc),
        "serve_catalog" => catalog::run(&rc),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let wall_s = start.elapsed().as_secs_f64();

    println!("{}", provenance(&rc));
    println!(
        "{{\"valid\": {}{}}}",
        out.valid,
        if out.valid {
            ""
        } else {
            ", \"reason\": \"the open-loop sender fell behind its schedule\""
        }
    );
    let mut metrics = Vec::new();
    if rc.trace {
        let spans: usize = out.traces.iter().map(|t| t.spans.len()).sum();
        let overhead = spans as f64 * span_cost_ns() / (wall_s * 1e9);
        out.layers.push(("bench.trace_overhead_share", overhead));
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace_{}_seed{}.json", rc.workload, rc.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_trace_json(&out.traces)));
        match written {
            Ok(()) => out
                .notes
                .push(format!("trace: {spans} spans written to {path}")),
            Err(e) => out.check(&format!("write trace {path}: {e}"), false),
        }
        for &(name, unit) in PER_LAYER {
            let value = out
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |l| l.1);
            metrics.push((name, value, unit));
        }
        for (name, _) in &out.layers {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "layer {name} is not in PER_LAYER"
            );
        }
    } else {
        let p50 = stats::median(&out.latencies_ms);
        let tail = stats::segmented_tail(&out.latencies_ms);
        if let Some(t) = tail {
            out.notes.push(format!(
                "latency: p50 {p50:.4} ms; tail {:.4} ms = p{} of {}, from {} samples",
                t.value,
                t.pct,
                if t.n >= 2 * stats::SEGMENT {
                    "each 100-sample window, median over windows"
                } else {
                    "all samples"
                },
                t.n
            ));
        }
        let rss = peak_rss_mb();
        out.check("peak RSS readable", rss.is_some());
        metrics.push(("setup_s", out.setup_s, "s"));
        metrics.push(("throughput_per_s", out.throughput_per_s, "1/s"));
        metrics.push(("p50_ms", p50, "ms"));
        metrics.push(("tail_ms", tail.map_or(f64::NAN, |t| t.value), "ms"));
        metrics.push(("peak_rss_mb", rss.unwrap_or(f64::NAN), "MiB"));
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    out.check("every metric is a finite number", finite);
    for note in &out.notes {
        println!("{note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|&(n, v, u)| metric_json(n, if v.is_finite() { v } else { -1.0 }, u))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// The metric names this program prints must be the ones
    /// BENCHMARK.json declares.
    #[test]
    fn per_layer_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").unwrap()..];
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }
}
