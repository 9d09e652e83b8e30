//! Trace a real parallel factorization and export it as Chrome
//! `trace_event` JSON (loadable in Perfetto or `chrome://tracing`),
//! alongside per-kernel latency percentiles and a sim-vs-real
//! calibration report.
//!
//! ```text
//! cargo run --release --example trace_export [n] [tile] [workers] [out.trace.json]
//! ```

use tileqr::obs::{chrome, KernelHistograms};
use tileqr::prelude::*;
use tileqr::runtime::TraceConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(128);
    let b: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let out = args
        .next()
        .unwrap_or_else(|| "tileqr.trace.json".to_string());

    let a = tileqr::gen::random_matrix::<f64>(n, n, 42);
    let opts = QrOptions::new()
        .tile_size(b)
        .workers(workers)
        .tracing(TraceConfig::enabled());
    let (qr, report) = TiledQr::factor_traced(&a, &opts).expect("factorization");
    let trace = report.trace.as_ref().expect("tracing was enabled");

    println!(
        "factored {n}x{n} (tile {b}) on {workers} workers: {} tasks in {:.2} ms",
        qr.graph().len(),
        report.elapsed.as_secs_f64() * 1e3
    );
    assert_eq!(
        trace.compute_span_count(),
        qr.graph().len(),
        "one compute span per DAG task"
    );

    println!("\nper-kernel latency percentiles:");
    print!("{}", KernelHistograms::from_trace(trace).summary());

    let json = chrome::export(trace);
    chrome::validate(&json).expect("exporter emits valid JSON");
    std::fs::write(&out, &json).expect("write trace file");
    println!(
        "\nwrote {} ({} spans, {} events, {} lanes) — open in Perfetto",
        out,
        trace.spans.len(),
        trace.events.len(),
        trace.lanes.len()
    );
    println!("OK");
}
