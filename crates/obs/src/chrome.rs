//! Chrome `trace_event` JSON export of a [`Trace`].
//!
//! The output is the stable subset of the Trace Event Format that
//! `chrome://tracing` and Perfetto load directly: one process, one
//! thread (`tid`) per lane, named via `thread_name` metadata events;
//! spans as complete (`"ph":"X"`) events with µs timestamps; lifecycle
//! markers as thread-scoped instants (`"ph":"i"`). Field set and order
//! are fixed — the schema snapshot test freezes them so external tooling
//! doesn't silently break.
//!
//! No JSON library exists in the container, so the writer is hand-rolled
//! (the format needs only numbers and escaped strings) and [`validate`]
//! runs the crate's one JSON reader over the result: the snapshot suite
//! uses it to guarantee the writer never emits malformed output.

use crate::json::escape;
use crate::span::{Phase, Trace};

/// Keys every exported span event carries, in emission order — the
/// schema contract frozen by the snapshot test.
pub const SPAN_FIELDS: [&str; 8] = ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"];

/// Keys every exported instant event carries, in emission order.
pub const INSTANT_FIELDS: [&str; 7] = ["name", "cat", "ph", "ts", "s", "pid", "tid"];

/// Display name of a span: kernel shorthand plus panel, e.g. `GEQRT k2`.
fn span_name(s: &crate::span::Span) -> String {
    format!(
        "{} k{}",
        crate::span::KIND_NAMES[crate::span::kind_index(s.kind)].to_uppercase(),
        s.kind.panel()
    )
}

/// Export `trace` as a Chrome trace JSON object (`{"traceEvents":[…]}`).
///
/// Events are ordered: lane-name metadata first, then all spans and
/// instants sorted by timestamp (ties broken by lane), so the `ts`
/// stream is monotone — asserted by the snapshot suite.
pub fn export(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    for (tid, name) in trace.lanes.iter().enumerate() {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            ),
            &mut out,
        );
    }

    // Interleave spans and instants by timestamp.
    enum Item<'a> {
        Span(&'a crate::span::Span),
        Event(&'a crate::span::TraceEvent),
    }
    let mut items: Vec<(f64, usize, Item)> = trace
        .spans
        .iter()
        .map(|s| (s.start_us, s.lane, Item::Span(s)))
        .chain(
            trace
                .events
                .iter()
                .map(|e| (e.at_us, e.lane, Item::Event(e))),
        )
        .collect();
    items.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    for (_, _, item) in &items {
        match item {
            Item::Span(s) => push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"task\":{},\"attempt\":{}}}}}",
                    escape(&span_name(s)),
                    s.phase.name(),
                    s.start_us,
                    s.duration_us(),
                    s.lane,
                    s.task,
                    s.attempt
                ),
                &mut out,
            ),
            Item::Event(e) => push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"ts\":{:.3},\"s\":\"t\",\"pid\":0,\"tid\":{}{}}}",
                    e.kind.name(),
                    e.at_us,
                    e.lane,
                    match e.task {
                        Some(t) => format!(",\"args\":{{\"task\":{t},\"aux\":{}}}", e.aux),
                        None => format!(",\"args\":{{\"aux\":{}}}", e.aux),
                    }
                ),
                &mut out,
            ),
        }
    }
    out.push_str("\n]}");
    out
}

/// Export only the `Compute` spans — the lane-per-device view matching
/// the simulator's Gantt output, useful for diffing sim vs real.
pub fn export_compute_only(trace: &Trace) -> String {
    let compute = Trace {
        spans: trace
            .spans
            .iter()
            .copied()
            .filter(|s| s.phase == Phase::Compute)
            .collect(),
        events: Vec::new(),
        lanes: trace.lanes.clone(),
        hot_path_reallocations: trace.hot_path_reallocations,
    };
    export(&compute)
}

/// Validate that `s` is one well-formed JSON document.
pub fn validate(s: &str) -> Result<(), String> {
    crate::json::parse(s).map(drop)
}

/// Extract every `"ts":<number>` value in emission order — the snapshot
/// suite's monotonicity probe.
pub fn extract_timestamps(s: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let needle = "\"ts\":";
    let mut rest = s;
    while let Some(pos) = rest.find(needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse::<f64>() {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{EventKind, Span, TraceEvent};
    use tileqr_dag::TaskKind;

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                Span {
                    task: 0,
                    kind: TaskKind::Geqrt { i: 0, k: 0 },
                    lane: 0,
                    phase: Phase::Compute,
                    attempt: 0,
                    start_us: 1.25,
                    end_us: 7.5,
                },
                Span {
                    task: 1,
                    kind: TaskKind::Tsqrt { p: 0, i: 1, k: 0 },
                    lane: 1,
                    phase: Phase::Stage,
                    attempt: 1,
                    start_us: 8.0,
                    end_us: 9.0,
                },
            ],
            events: vec![TraceEvent {
                kind: EventKind::Dispatch,
                task: Some(0),
                lane: 2,
                at_us: 0.5,
                aux: 0,
            }],
            lanes: vec!["worker0".into(), "worker1".into(), "manager".into()],
            hot_path_reallocations: 0,
        }
    }

    #[test]
    fn export_is_valid_json_with_monotone_ts() {
        let json = export(&sample_trace());
        validate(&json).unwrap();
        let ts = extract_timestamps(&json);
        assert_eq!(ts.len(), 3, "one ts per span/instant");
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn export_carries_schema_fields() {
        let json = export(&sample_trace());
        for f in SPAN_FIELDS {
            assert!(json.contains(&format!("\"{f}\":")), "missing field {f}");
        }
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"GEQRT k0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\""));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate("{\"a\":[1,2.5,-3e2],\"b\":\"x\\n\",\"c\":null}").unwrap();
        assert!(validate("{\"a\":}").is_err());
        assert!(validate("[1,2").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("{} trailing").is_err());
        assert!(validate("01abc").is_err());
    }

    #[test]
    fn compute_only_strips_other_phases() {
        let json = export_compute_only(&sample_trace());
        validate(&json).unwrap();
        assert!(!json.contains("\"cat\":\"stage\""));
        assert!(json.contains("\"cat\":\"compute\""));
    }
}
