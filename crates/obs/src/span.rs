//! The unified span model shared by the real pool and the simulator.
//!
//! Both execution engines — the host thread pool
//! (`tileqr-runtime`) and the discrete-event simulator
//! ([`tileqr_sim::engine`]) — describe a run as intervals on lanes. A
//! *lane* is one worker thread in the real pool or one device in the
//! simulator, plus the manager's own lane in fault-tolerant runs. A
//! [`Span`] is one phase of one task attempt on one lane; a
//! [`TraceEvent`] is an instantaneous lifecycle marker (ready, dispatch,
//! retry, requeue, worker death). A [`Trace`] collects both, along with
//! the lane names, and is what the Chrome exporter, the latency
//! histograms and the calibration fitter all consume. These are also the
//! types a traced pool run records, pushed into its `Trace` as each event
//! happens: the recording vocabulary and the consumers' are one.

use std::collections::HashMap;
use tileqr_dag::{TaskId, TaskKind};
use tileqr_sim::Timeline;

/// Which part of a task attempt a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Moving the task's tiles out of shared state (real pool only).
    Stage,
    /// The kernel itself. Simulator spans are always `Compute`.
    Compute,
    /// Writing results back to shared state.
    Commit,
}

impl Phase {
    /// Stable lowercase name, used as the Chrome trace category.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Stage => "stage",
            Phase::Compute => "compute",
            Phase::Commit => "commit",
        }
    }
}

/// Instantaneous lifecycle markers outside the span phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The task entered the manager's ready set.
    Ready,
    /// The manager handed the task to a worker (`aux` = worker lane).
    Dispatch,
    /// A failed attempt was parked for a backoff-delayed retry
    /// (`aux` = the attempt count so far).
    Retry,
    /// An in-flight task returned to the pending set because its worker
    /// died (`aux` = the dead worker's lane).
    Requeue,
    /// A worker was retired mid-run (`aux` = its lane; no task).
    WorkerDeath,
}

impl EventKind {
    /// Stable lowercase name, used as the Chrome trace event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Ready => "ready",
            EventKind::Dispatch => "dispatch",
            EventKind::Retry => "retry",
            EventKind::Requeue => "requeue",
            EventKind::WorkerDeath => "worker_death",
        }
    }
}

/// One phase of one task attempt on one lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Task id within the graph.
    pub task: TaskId,
    /// Task kind (determines the histogram bucket and display name).
    pub kind: TaskKind,
    /// Lane index into [`Trace::lanes`].
    pub lane: usize,
    /// Phase of the attempt.
    pub phase: Phase,
    /// Attempt number, 0-based (always 0 without faults).
    pub attempt: u32,
    /// Start time, µs from run start.
    pub start_us: f64,
    /// End time, µs from run start.
    pub end_us: f64,
}

impl Span {
    /// Span duration in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One instantaneous lifecycle marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Marker kind.
    pub kind: EventKind,
    /// Task the marker refers to (`None` for [`EventKind::WorkerDeath`]).
    pub task: Option<TaskId>,
    /// Lane the marker was recorded on (the manager's lane for
    /// scheduling events).
    pub lane: usize,
    /// Timestamp, µs from run start.
    pub at_us: f64,
    /// Kind-specific detail — see each [`EventKind`] variant.
    pub aux: u64,
}

/// A complete recorded run: spans + events + lane names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, in record order. A real run pushes each as its phase
    /// ends, so they are not sorted by start time
    /// ([`lane_spans`](Self::lane_spans) sorts one lane, and the Chrome
    /// exporter sorts its output); a simulator trace is.
    pub spans: Vec<Span>,
    /// All instantaneous events, in record order — a real run stamps each
    /// as it records it, so this is also timestamp order.
    pub events: Vec<TraceEvent>,
    /// Display name per lane (`worker0`, `manager`, `GTX580`, …).
    pub lanes: Vec<String>,
    /// Whether the run's trace grew past the room it was sized for
    /// ([`with_room`](Self::with_room)), as [`push_span`](Self::push_span)
    /// and [`push_event`](Self::push_event) count it: 0 on a clean run —
    /// asserted by the overhead regression suite.
    pub hot_path_reallocations: u64,
}

/// Stable histogram index of a task kind (0..[`NUM_KINDS`]).
pub fn kind_index(kind: TaskKind) -> usize {
    match kind {
        TaskKind::Geqrt { .. } => 0,
        TaskKind::Unmqr { .. } => 1,
        TaskKind::Tsqrt { .. } => 2,
        TaskKind::Tsmqr { .. } => 3,
        TaskKind::Ttqrt { .. } => 4,
        TaskKind::Ttmqr { .. } => 5,
    }
}

/// Number of distinct task kinds (see [`kind_index`]).
pub const NUM_KINDS: usize = 6;

/// Stable lowercase kernel name per [`kind_index`] slot.
pub const KIND_NAMES: [&str; NUM_KINDS] = ["geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr"];

impl Trace {
    /// An empty trace on `lanes` with room for `spans` spans and `events`
    /// instants: what a run records when nothing goes wrong.
    pub fn with_room(lanes: Vec<String>, spans: usize, events: usize) -> Trace {
        Trace {
            spans: Vec::with_capacity(spans),
            events: Vec::with_capacity(events),
            lanes,
            hot_path_reallocations: 0,
        }
    }

    /// Append `span`, noting a push past the room the trace was sized for.
    pub fn push_span(&mut self, span: Span) {
        self.hot_path_reallocations |= u64::from(self.spans.len() == self.spans.capacity());
        self.spans.push(span);
    }

    /// Append `event`, noting a push past the room the trace was sized for.
    pub fn push_event(&mut self, event: TraceEvent) {
        self.hot_path_reallocations |= u64::from(self.events.len() == self.events.capacity());
        self.events.push(event);
    }

    /// Convert a simulator [`Timeline`] into the unified model: every
    /// kernel becomes a `Compute` span on its device's lane.
    ///
    /// `lane_names` must have one entry per device (missing entries fall
    /// back to `devN`).
    pub fn from_timeline(tl: &Timeline, lane_names: &[String]) -> Trace {
        let num_lanes = tl
            .tasks
            .iter()
            .map(|s| s.device + 1)
            .max()
            .unwrap_or(0)
            .max(lane_names.len());
        let lanes = (0..num_lanes)
            .map(|d| {
                lane_names
                    .get(d)
                    .cloned()
                    .unwrap_or_else(|| format!("dev{d}"))
            })
            .collect();
        let mut spans: Vec<Span> = tl
            .tasks
            .iter()
            .map(|s| Span {
                task: s.task,
                kind: s.kind,
                lane: s.device,
                phase: Phase::Compute,
                attempt: 0,
                start_us: s.start_us,
                end_us: s.end_us,
            })
            .collect();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.task.cmp(&b.task)));
        Trace {
            spans,
            events: Vec::new(),
            lanes,
            hot_path_reallocations: 0,
        }
    }

    /// Spans in `phase`, in stored order.
    pub fn phase_spans(&self, phase: Phase) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.phase == phase)
    }

    /// Number of `Compute` spans — one per executed kernel attempt.
    pub fn compute_span_count(&self) -> usize {
        self.phase_spans(Phase::Compute).count()
    }

    /// Spans on one lane, sorted by start time.
    pub fn lane_spans(&self, lane: usize) -> Vec<Span> {
        let mut v: Vec<Span> = self
            .spans
            .iter()
            .copied()
            .filter(|s| s.lane == lane)
            .collect();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        v
    }

    /// Latest span end — the recorded makespan in µs (0 when empty).
    pub fn makespan_us(&self) -> f64 {
        self.spans.iter().map(|s| s.end_us).fold(0.0, f64::max)
    }

    /// Events of one kind, in stored order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Structural validation shared by the golden-trace suites:
    ///
    /// 1. every span has `start <= end` and a known lane,
    /// 2. per `(task, attempt)`: stage ends no later than compute starts
    ///    and compute ends no later than commit starts (well-nesting),
    /// 3. spans on one lane never overlap (each worker/device slot-0 lane
    ///    is sequential; simulator traces with multi-slot devices should
    ///    skip this via `check_lane_overlap = false`).
    pub fn validate(&self, check_lane_overlap: bool) -> Result<(), String> {
        for s in &self.spans {
            if s.end_us < s.start_us {
                return Err(format!("span for task {} ends before it starts", s.task));
            }
            if s.lane >= self.lanes.len() {
                return Err(format!(
                    "span for task {} on unknown lane {}",
                    s.task, s.lane
                ));
            }
        }
        for e in &self.events {
            if e.lane >= self.lanes.len() {
                return Err(format!("event {:?} on unknown lane {}", e.kind, e.lane));
            }
        }
        // Well-nesting per (task, attempt), against the first stage and
        // the first commit span of each, indexed in one pass.
        let mut bounds: HashMap<(TaskId, u32), [Option<&Span>; 2]> = HashMap::new();
        for s in &self.spans {
            let side = match s.phase {
                Phase::Stage => 0,
                Phase::Commit => 1,
                Phase::Compute => continue,
            };
            let first = &mut bounds.entry((s.task, s.attempt)).or_default()[side];
            first.get_or_insert(s);
        }
        for s in self.phase_spans(Phase::Compute) {
            let [stage, commit] = bounds
                .get(&(s.task, s.attempt))
                .copied()
                .unwrap_or_default();
            if let Some(stage) = stage {
                if stage.end_us > s.start_us {
                    return Err(format!(
                        "task {} attempt {}: stage ends after compute starts",
                        s.task, s.attempt
                    ));
                }
            }
            if let Some(commit) = commit {
                if s.end_us > commit.start_us {
                    return Err(format!(
                        "task {} attempt {}: compute ends after commit starts",
                        s.task, s.attempt
                    ));
                }
            }
        }
        if check_lane_overlap {
            for lane in 0..self.lanes.len() {
                let spans = self.lane_spans(lane);
                for w in spans.windows(2) {
                    if w[1].start_us < w[0].end_us {
                        return Err(format!(
                            "lane {lane} ({}): task {} overlaps task {}",
                            self.lanes[lane], w[0].task, w[1].task
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Render a coarse text Gantt chart from the compute spans: one row
    /// per lane, `width` columns spanning `[0, makespan]`, each cell the
    /// step-class shorthand dominating that bucket (`.` = idle) — the
    /// unified-model successor of the simulator's private renderer.
    pub fn gantt(&self, width: usize) -> String {
        let makespan = self.makespan_us().max(1e-9);
        let mut out = String::new();
        for (lane, name) in self.lanes.iter().enumerate() {
            let mut row = vec!['.'; width];
            for s in self.phase_spans(Phase::Compute).filter(|s| s.lane == lane) {
                let a = ((s.start_us / makespan) * width as f64) as usize;
                let b = (((s.end_us / makespan) * width as f64).ceil() as usize).min(width);
                let ch = match s.kind.class().shorthand() {
                    "T" => 'T',
                    "E" => 'E',
                    "UT" => 'u',
                    _ => 'U',
                };
                for cell in row.iter_mut().take(b).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            out.push_str(&format!("{name:>12} |"));
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::TaskSpan;

    fn compute(task: TaskId, lane: usize, start: f64, end: f64) -> Span {
        Span {
            task,
            kind: TaskKind::Geqrt { i: 0, k: 0 },
            lane,
            phase: Phase::Compute,
            attempt: 0,
            start_us: start,
            end_us: end,
        }
    }

    fn trace(spans: Vec<Span>, lanes: usize) -> Trace {
        Trace {
            spans,
            events: vec![],
            lanes: (0..lanes).map(|i| format!("worker{i}")).collect(),
            hot_path_reallocations: 0,
        }
    }

    #[test]
    fn from_timeline_maps_devices_to_lanes() {
        let tl = Timeline {
            tasks: vec![
                TaskSpan {
                    task: 1,
                    kind: TaskKind::Geqrt { i: 0, k: 0 },
                    device: 2,
                    start_us: 5.0,
                    end_us: 9.0,
                },
                TaskSpan {
                    task: 0,
                    kind: TaskKind::Geqrt { i: 0, k: 0 },
                    device: 0,
                    start_us: 0.0,
                    end_us: 4.0,
                },
            ],
            transfers: vec![],
        };
        let t = Trace::from_timeline(&tl, &["GTX580".to_string()]);
        assert_eq!(t.lanes, vec!["GTX580", "dev1", "dev2"]);
        assert_eq!(t.compute_span_count(), 2);
        // Sorted by start time.
        assert_eq!(t.spans[0].task, 0);
        assert_eq!(t.spans[1].lane, 2);
        assert!((t.makespan_us() - 9.0).abs() < 1e-12);
        t.validate(true).unwrap();
    }

    #[test]
    fn a_trace_grows_only_past_its_room_and_keeps_every_push() {
        let mut t = Trace::with_room(vec!["worker0".into()], 2, 1);
        t.push_span(compute(1, 0, 5.0, 9.0));
        t.push_span(compute(0, 0, 0.0, 4.0));
        assert_eq!(t.hot_path_reallocations, 0);
        t.push_span(compute(2, 0, 9.0, 12.0));
        assert_eq!(t.hot_path_reallocations, 1, "a third span outgrew the room");
        let order: Vec<TaskId> = t.spans.iter().map(|s| s.task).collect();
        assert_eq!(order, [1, 0, 2], "record order, unsorted");
        let mut t = Trace::with_room(vec!["manager".into()], 0, 1);
        let ready = |task| TraceEvent {
            kind: EventKind::Ready,
            task: Some(task),
            lane: 0,
            at_us: 0.0,
            aux: 0,
        };
        t.push_event(ready(0));
        assert_eq!(t.hot_path_reallocations, 0);
        t.push_event(ready(1));
        assert_eq!((t.hot_path_reallocations, t.events.len()), (1, 2));
    }

    #[test]
    fn validate_catches_lane_overlap() {
        let t = trace(vec![compute(0, 0, 0.0, 10.0), compute(1, 0, 5.0, 15.0)], 1);
        assert!(t.validate(true).is_err());
        assert!(t.validate(false).is_ok());
    }

    #[test]
    fn validate_catches_bad_nesting() {
        let mut stage = compute(0, 0, 4.0, 6.0);
        stage.phase = Phase::Stage;
        let t = trace(vec![stage, compute(0, 0, 5.0, 9.0)], 1);
        let err = t.validate(true).unwrap_err();
        assert!(err.contains("stage ends after compute"), "{err}");
    }

    #[test]
    fn gantt_one_row_per_lane() {
        let t = trace(
            vec![compute(0, 0, 0.0, 50.0), compute(1, 1, 50.0, 100.0)],
            2,
        );
        let g = t.gantt(20);
        assert_eq!(g.lines().count(), 2);
        assert!(g.contains("worker0"));
        assert!(g.contains('T'));
    }

    #[test]
    fn kind_indices_are_distinct_and_named() {
        let kinds = [
            TaskKind::Geqrt { i: 0, k: 0 },
            TaskKind::Unmqr { i: 0, j: 1, k: 0 },
            TaskKind::Tsqrt { p: 0, i: 1, k: 0 },
            TaskKind::Tsmqr {
                p: 0,
                i: 1,
                j: 1,
                k: 0,
            },
            TaskKind::Ttqrt { p: 0, i: 1, k: 0 },
            TaskKind::Ttmqr {
                p: 0,
                i: 1,
                j: 1,
                k: 0,
            },
        ];
        let mut seen = [false; NUM_KINDS];
        for k in kinds {
            let idx = kind_index(k);
            assert!(!seen[idx]);
            seen[idx] = true;
            assert!(!KIND_NAMES[idx].is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }
}
