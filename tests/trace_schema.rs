//! Schema snapshot suite for the Chrome `trace_event` exporter: the
//! emitted JSON must stay valid, carry a stable field set per event
//! type, and keep a monotone `ts` stream — for traces from the real
//! pool and from the simulator alike (the two sides share one
//! [`tileqr::obs::Trace`] model, so one exporter serves both).

use tileqr::dag::{EliminationTree, TaskGraph};
use tileqr::hetero::{assign, engine, plan, profiles, DistributionStrategy, MainDevicePolicy};
use tileqr::obs::{chrome, EventKind, Trace};
use tileqr::prelude::*;
use tileqr::runtime::TraceConfig;

/// A real-pool trace of a fixed 32x32 / tile-4 factorization.
fn real_trace() -> (Trace, usize) {
    let a = tileqr::gen::random_matrix::<f64>(32, 32, 0xC0FFEE);
    let opts = QrOptions::new()
        .tile_size(4)
        .workers(3)
        .tracing(TraceConfig::enabled());
    let (qr, report) = TiledQr::factor_traced(&a, &opts).unwrap();
    (report.trace.unwrap(), qr.graph().len())
}

/// A simulator trace on the paper's testbed — the same plan the
/// `schedule_gantt` example renders.
fn sim_trace() -> (Trace, usize) {
    let nt = 8;
    let platform = profiles::paper_testbed(16);
    let hp = plan::plan_with(
        &platform,
        nt,
        nt,
        MainDevicePolicy::Auto,
        DistributionStrategy::GuideArray,
        Some(platform.num_devices()),
        &[],
    );
    let graph = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
    let assignment = assign::assign_tasks(&graph, &hp.distribution, hp.policy);
    let (_, timeline) = engine::simulate_traced(&graph, &platform, &assignment);
    let lanes: Vec<String> = (0..platform.num_devices())
        .map(|d| platform.device(d).name.clone())
        .collect();
    (Trace::from_timeline(&timeline, &lanes), graph.len())
}

/// Assert the stable schema contract on one exported document.
fn assert_schema(json: &str, trace: &Trace) {
    chrome::validate(json).expect("exporter must emit valid JSON");

    // Envelope snapshot.
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
    assert!(json.ends_with("\n]}"));

    // One thread_name metadata record per lane, before any timed event.
    let first_x = json.find("\"ph\":\"X\"").unwrap_or(json.len());
    for lane in &trace.lanes {
        let needle = format!("\"args\":{{\"name\":\"{lane}\"}}");
        let at = json
            .find(&needle)
            .unwrap_or_else(|| panic!("missing thread_name metadata for lane {lane}"));
        assert!(at < first_x, "lane metadata must precede spans");
    }
    assert_eq!(
        json.matches("\"ph\":\"M\"").count(),
        trace.lanes.len(),
        "exactly one metadata record per lane"
    );

    // Every complete event carries the full span field set, in order —
    // a change to any field name or ordering is a schema break.
    let mut x_lines = 0;
    for line in json.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
        x_lines += 1;
        let mut cursor = 0;
        for field in chrome::SPAN_FIELDS {
            let needle = format!("\"{field}\":");
            let at = line[cursor..]
                .find(&needle)
                .unwrap_or_else(|| panic!("span event missing/reordered {field:?}: {line}"));
            cursor += at + needle.len();
        }
    }
    assert_eq!(x_lines, trace.spans.len(), "one X event per span");

    // Every instant carries the instant field set.
    let mut i_lines = 0;
    for line in json.lines().filter(|l| l.contains("\"ph\":\"i\"")) {
        i_lines += 1;
        let mut cursor = 0;
        for field in chrome::INSTANT_FIELDS {
            let needle = format!("\"{field}\":");
            let at = line[cursor..]
                .find(&needle)
                .unwrap_or_else(|| panic!("instant event missing/reordered {field:?}: {line}"));
            cursor += at + needle.len();
        }
    }
    assert_eq!(i_lines, trace.events.len(), "one i event per instant");

    // The ts stream is monotone non-decreasing — Perfetto requires it
    // per track, the exporter guarantees it globally.
    let ts = chrome::extract_timestamps(json);
    assert_eq!(ts.len(), trace.spans.len() + trace.events.len());
    for w in ts.windows(2) {
        assert!(w[0] <= w[1], "ts regressed: {} then {}", w[0], w[1]);
    }
}

#[test]
fn real_pool_export_matches_schema() {
    let (trace, tasks) = real_trace();
    assert_eq!(trace.compute_span_count(), tasks);
    let json = chrome::export(&trace);
    assert_schema(&json, &trace);
    // Spot-check roundtrip content: dispatch instants surface in JSON.
    assert_eq!(
        json.matches("\"name\":\"dispatch\"").count(),
        trace.events_of(EventKind::Dispatch).count()
    );
}

#[test]
fn simulator_export_matches_schema() {
    let (trace, tasks) = sim_trace();
    assert_eq!(trace.compute_span_count(), tasks);
    trace.validate(false).unwrap();
    let json = chrome::export(&trace);
    assert_schema(&json, &trace);
}

#[test]
fn compute_only_export_is_the_sim_view_of_a_real_run() {
    // Filtering a real trace to compute spans yields a document with the
    // same shape as a simulator export: one X event per task, no
    // lifecycle instants.
    let (trace, tasks) = real_trace();
    let json = chrome::export_compute_only(&trace);
    chrome::validate(&json).unwrap();
    assert_eq!(json.matches("\"ph\":\"X\"").count(), tasks);
    assert_eq!(json.matches("\"ph\":\"i\"").count(), 0);
    assert_eq!(json.matches("\"cat\":\"compute\"").count(), tasks);
}

#[test]
fn validator_rejects_malformed_documents() {
    let (trace, _) = sim_trace();
    let json = chrome::export(&trace);
    assert!(
        chrome::validate(&json[..json.len() - 1]).is_err(),
        "truncated"
    );
    assert!(chrome::validate(&json.replacen(':', ";", 1)).is_err());
    assert!(chrome::validate("").is_err());
    assert!(chrome::validate("[1,2,").is_err());
}
