//! Telemetry tour: train a small SceneRec with tracing, read where the
//! time went from its spans, write a run manifest whose `timings` are
//! those spans, and measure the trainer's instrumentation overhead.
//!
//! ```text
//! cargo run --release -p scenerec-integration --example telemetry
//! ```

use scenerec_core::trainer::{train_traced, TrainConfig};
use scenerec_core::{SceneRec, SceneRecConfig};
use scenerec_data::{generate, GeneratorConfig};
use scenerec_obs as obs;
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join(format!("scenerec-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // 1. Train a small SceneRec with tracing: one `trainer.train` root,
    //    one `trainer.epoch` per epoch, and one span per training phase.
    let data = generate(&GeneratorConfig::tiny(7)).expect("generate");
    let tc = TrainConfig {
        epochs: 4,
        eval_every: 2,
        patience: 0,
        seed: 7,
        ..TrainConfig::default()
    };
    let mut model = SceneRec::new(SceneRecConfig::default().with_dim(16).with_seed(7), &data);
    let (report, trace) = train_traced(&mut model, &data, &tc);
    println!(
        "trained {} epochs, final loss {:.4}, {} spans",
        report.epochs.len(),
        report.final_loss(),
        trace.spans.len()
    );
    let traces = [trace];

    // 2. Where the time went: wall time per span name. Self time is what
    //    a span's children do not cover.
    println!("\nspan timings:");
    for t in obs::trace::timings(&traces) {
        println!(
            "  {:<17} count {:>2}  total {:>9.3} ms  self {:>9.3} ms",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, obs::chrome_trace_json(&traces)).expect("write trace");
    println!(
        "Chrome trace (open in ui.perfetto.dev): {}",
        trace_path.display()
    );

    // 3. A run manifest bundles provenance, the span timings of the
    //    traces above and the results.
    let manifest_path = obs::RunManifest::new("telemetry-example")
        .with_seed(7)
        .with_scale("tiny")
        .with_models(["SceneRec".to_owned()])
        .with_config(&tc)
        .with_results(&report)
        .capture_telemetry(&traces)
        .write_next_to(dir.join("run.json"))
        .expect("write manifest");
    let manifest = std::fs::read_to_string(&manifest_path).expect("read manifest");
    assert!(
        manifest.contains("\"name\": \"trainer.epoch\""),
        "the manifest's timings come from the trace"
    );
    println!("manifest: {}", manifest_path.display());

    // 4. Overhead: at batch size 1 the training loop reads the clock 10
    //    times per BPR triple for its phase accounting (the spans are
    //    recorded once per epoch). Price one clock read, then compare
    //    against the measured training cost.
    const READS_PER_TRIPLE: f64 = 10.0;
    let reps = 1_000_000u64;
    let t0 = Instant::now();
    let mut mark = Instant::now();
    let mut sink_ns = 0u64;
    for _ in 0..reps {
        let now = Instant::now();
        sink_ns += now.duration_since(mark).as_nanos() as u64;
        mark = now;
    }
    let read_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    std::hint::black_box(sink_ns);

    let triples = data.split.train.len() as f64 * report.epochs.len() as f64;
    let train_ns = report.phases.total_ns() as f64;
    let overhead_ns = READS_PER_TRIPLE * read_ns * triples;
    let overhead_pct = 100.0 * overhead_ns / train_ns;
    println!(
        "\ninstrumentation overhead: {read_ns:.0} ns/read x {READS_PER_TRIPLE}/triple x \
         {triples:.0} triples = {:.2} ms of {:.0} ms training = {overhead_pct:.3}%",
        overhead_ns / 1e6,
        train_ns / 1e6
    );
    assert!(
        overhead_pct < 2.0,
        "instrumentation overhead {overhead_pct:.3}% exceeds the 2% budget"
    );
    println!("within the <2% budget.");

    std::fs::remove_dir_all(&dir).ok();
}
