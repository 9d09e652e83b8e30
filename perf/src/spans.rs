//! Benchmark-side spans: one per call into a layer's public functions.
//!
//! Spans stay in memory while the workload runs and are written out once
//! at the end as a Chrome `trace_event` file. Each span names the span
//! that caused it (`parent`) and the operation it belongs to (`op_id`:
//! one per factor call, service job or planner sweep), so a layer's
//! *self time* — its duration minus the part its children cover — can be
//! read per operation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Spans`] recorder.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `matrix.tile`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The factor call, job or sweep this span belongs to.
    pub op_id: u64,
    /// Display lane (Chrome `tid`): 0 is the benchmark's own thread.
    pub lane: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span recorder.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    lanes: BTreeMap<u32, String>,
}

impl Spans {
    pub fn new() -> Self {
        let mut lanes = BTreeMap::new();
        lanes.insert(0, "bench".to_string());
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            lanes,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` on this recorder's clock (0 for instants before its creation).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span on lane 0 whose parent is the innermost open span.
    pub fn open(&mut self, name: &'static str, op_id: u64) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
            lane: 0,
        });
        self.open.push(id);
        id
    }

    /// End `id`, which must be the innermost open span; returns its
    /// duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    /// Record a span measured elsewhere (another thread's clock mapped
    /// onto this recorder's, or an interval that overlaps its siblings).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op_id: u64,
        lane: u32,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
            lane,
        });
        self.spans.len() - 1
    }

    /// Name a display lane.
    pub fn name_lane(&mut self, lane: u32, name: &str) {
        self.lanes.insert(lane, name.to_string());
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span, indexed by [`SpanId`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The recorder as one Chrome `trace_event` document.
    pub fn chrome_json(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
        };
        for (tid, name) in &self.lanes {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            );
        }
        let mut order: Vec<SpanId> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start_ns, self.spans[i].lane, i));
        for i in order {
            let s = &self.spans[i];
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"self_us\":{:.3}}}}}",
                escape(s.name),
                escape(layer_of(s.name)),
                s.start_ns as f64 * 1e-3,
                s.duration_ns() as f64 * 1e-3,
                s.lane,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op_id,
                selfs[i] as f64 * 1e-3,
            );
        }
        out.push_str("\n]}");
        out
    }
}

/// The layer a span or metric belongs to: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (worker lanes under one pool span), so their union is subtracted, not
/// their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t.x",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two worker lanes busy at the same time under one pool span.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_child_reaching_outside_its_parent_is_clamped() {
        let spans = [
            span(10, 50, None),
            span(0, 20, Some(0)),
            span(45, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn recorder_nests_by_open_order_and_exports_valid_json() {
        let mut r = Spans::new();
        let op = r.open("core.factor", 7);
        let tile = r.open("matrix.tile", 7);
        r.close(tile);
        let pool = r.open("runtime.pool", 7);
        let (a, b) = (r.get(pool).start_ns, r.now_ns());
        r.name_lane(1, "worker \"0\"");
        r.record("runtime.compute", a, b, Some(pool), 7, 1);
        r.close(pool);
        r.close(op);
        assert_eq!(r.get(tile).parent, Some(op));
        assert_eq!(r.get(pool).parent, Some(op));
        assert_eq!(r.len(), 4);
        let totals = r.totals();
        assert_eq!(totals["core.factor"].count, 1);
        assert!(totals["core.factor"].self_ns <= totals["core.factor"].total_ns);
        let json = r.chrome_json();
        tileqr::obs::chrome::validate(&json).expect("chrome export parses");
        assert!(json.contains("\"cat\":\"runtime\""));
    }

    #[test]
    fn layer_is_the_name_up_to_the_first_dot() {
        assert_eq!(layer_of("kernels.geqrt_ns"), "kernels");
        assert_eq!(layer_of("plain"), "plain");
    }
}
