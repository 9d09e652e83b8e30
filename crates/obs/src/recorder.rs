//! The event recorder of one traced run.
//!
//! A traced run owns one [`WorkerRecorder`]: an append-only buffer of
//! plain-old-data [`RawEvent`]s, each tagged with the lane it belongs to
//! (a worker slot, or the manager). The run sizes it from its graph to the
//! events a clean run records, so recording is a push into reserved room —
//! no lock of its own, no allocation, no formatting — and a run records
//! every event it sees. Only a run that records more than its clean size (a retried
//! attempt) grows the buffer; [`WorkerRecorder::hot_path_reallocations`]
//! counts that, and the overhead suites assert it is 0 on clean runs. An
//! untraced run builds no recorder and reads no extra clock.
//!
//! When the run retires, [`WorkerRecorder::into_trace`] turns the buffer
//! into a [`Trace`], resolving task kinds from the graph and converting
//! nanosecond offsets to the µs timescale shared with the simulator.

use crate::span::{EventKind, Phase, Span, Trace, TraceEvent};
use tileqr_dag::{TaskGraph, TaskId};

/// Tracing configuration carried by the pool config.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record the run. Off by default: a disabled config makes the pool
    /// allocate nothing and read no extra clocks. An enabled run records
    /// every event into one recorder sized from its graph.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing on.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }
}

/// What one raw record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawKind {
    /// Interval: staging the task's tiles.
    Stage,
    /// Interval: the kernel.
    Compute,
    /// Interval: committing results.
    Commit,
    /// Instant: task entered the ready set.
    Ready,
    /// Instant: task handed to worker `aux`.
    Dispatch,
    /// Instant: failed attempt parked for retry (`aux` = attempts so far).
    Retry,
    /// Instant: in-flight task returned to pending (`aux` = dead lane).
    Requeue,
    /// Instant: worker `aux` retired.
    WorkerDeath,
}

impl RawKind {
    /// The span phase of an interval kind; `None` for an instant.
    fn phase(self) -> Option<Phase> {
        match self {
            RawKind::Stage => Some(Phase::Stage),
            RawKind::Compute => Some(Phase::Compute),
            RawKind::Commit => Some(Phase::Commit),
            _ => None,
        }
    }
}

/// One fixed-size record: no heap data, cheap to append.
#[derive(Debug, Clone, Copy)]
pub struct RawEvent {
    /// Record kind.
    pub kind: RawKind,
    /// Lane the record belongs to: a worker slot, or the manager's lane
    /// after the last worker (`u32` keeps a record at six words).
    pub lane: u32,
    /// Task id (`usize::MAX` for task-less records like worker death).
    pub task: TaskId,
    /// Attempt number, 0-based.
    pub attempt: u32,
    /// Kind-specific detail (worker lane, attempt count, …).
    pub aux: u64,
    /// Interval start (or the instant), nanoseconds from run start.
    pub t0_ns: u64,
    /// Interval end; equals `t0_ns` for instants.
    pub t1_ns: u64,
}

impl RawEvent {
    /// Sentinel task id for records that refer to no task.
    pub const NO_TASK: TaskId = usize::MAX;

    /// An interval record of attempt `attempt` of `task` on `lane`.
    pub fn interval(
        kind: RawKind,
        lane: usize,
        (task, attempt): (TaskId, u32),
        t0_ns: u64,
        t1_ns: u64,
    ) -> Self {
        RawEvent {
            kind,
            lane: lane as u32,
            task,
            attempt,
            aux: 0,
            t0_ns,
            t1_ns,
        }
    }

    /// An instant record on `lane`.
    pub fn instant(kind: RawKind, lane: usize, task: TaskId, aux: u64, at_ns: u64) -> Self {
        RawEvent {
            kind,
            lane: lane as u32,
            task,
            attempt: 0,
            aux,
            t0_ns: at_ns,
            t1_ns: at_ns,
        }
    }
}

/// Append-only buffer of one run's [`RawEvent`]s, every lane's.
#[derive(Debug)]
pub struct WorkerRecorder {
    buf: Vec<RawEvent>,
    initial_heap_capacity: usize,
}

impl WorkerRecorder {
    /// A recorder with room for `capacity` events: what the run records
    /// when nothing goes wrong.
    pub fn new(capacity: usize) -> Self {
        let buf = Vec::with_capacity(capacity);
        let initial_heap_capacity = buf.capacity();
        WorkerRecorder {
            buf,
            initial_heap_capacity,
        }
    }

    /// Record one event: an append, which allocates only once the run has
    /// recorded more than it was sized for.
    #[inline]
    pub fn record(&mut self, ev: RawEvent) {
        self.buf.push(ev);
    }

    /// Whether the buffer grew past its pre-allocated room (1) or not (0).
    /// A clean run records exactly what it was sized for, so this is 0 —
    /// the counting assertion the overhead suite locks down.
    pub fn hot_path_reallocations(&self) -> u64 {
        u64::from(self.buf.capacity() > self.initial_heap_capacity)
    }

    /// The run as a [`Trace`], resolving task kinds from `graph`.
    /// `lanes[i]` names lane `i`.
    pub fn into_trace(self, lanes: Vec<String>, graph: &TaskGraph) -> Trace {
        let n_spans = self
            .buf
            .iter()
            .filter(|ev| ev.kind.phase().is_some())
            .count();
        let mut spans = Vec::with_capacity(n_spans);
        let mut events = Vec::with_capacity(self.buf.len() - n_spans);
        let hot_path_reallocations = self.hot_path_reallocations();
        for ev in self.buf {
            if let Some(phase) = ev.kind.phase() {
                spans.push(Span {
                    task: ev.task,
                    kind: graph.task(ev.task),
                    lane: ev.lane as usize,
                    phase,
                    attempt: ev.attempt,
                    start_us: ev.t0_ns as f64 / NS_PER_US,
                    end_us: ev.t1_ns as f64 / NS_PER_US,
                });
            } else {
                let kind = match ev.kind {
                    RawKind::Ready => EventKind::Ready,
                    RawKind::Dispatch => EventKind::Dispatch,
                    RawKind::Retry => EventKind::Retry,
                    RawKind::Requeue => EventKind::Requeue,
                    RawKind::WorkerDeath => EventKind::WorkerDeath,
                    _ => unreachable!("interval kinds handled above"),
                };
                events.push(TraceEvent {
                    kind,
                    task: (ev.task != RawEvent::NO_TASK).then_some(ev.task),
                    lane: ev.lane as usize,
                    at_us: ev.t0_ns as f64 / NS_PER_US,
                    aux: ev.aux,
                });
            }
        }
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.task.cmp(&b.task)));
        events.sort_by(|a, b| a.at_us.total_cmp(&b.at_us).then(a.lane.cmp(&b.lane)));
        Trace {
            spans,
            events,
            lanes,
            hot_path_reallocations,
        }
    }
}

const NS_PER_US: f64 = 1e3;

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_dag::EliminationTree;

    #[test]
    fn merge_resolves_kinds_and_sorts() {
        let g = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        let mut rec = WorkerRecorder::new(3);
        rec.record(RawEvent::interval(
            RawKind::Compute,
            1,
            (1, 0),
            5_000,
            9_000,
        ));
        rec.record(RawEvent::interval(
            RawKind::Compute,
            0,
            (0, 0),
            1_000,
            4_000,
        ));
        rec.record(RawEvent::instant(RawKind::Dispatch, 2, 0, 1, 500));
        let lanes = ["worker0", "worker1", "manager"];
        let t = rec.into_trace(lanes.map(String::from).to_vec(), &g);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].task, 0, "sorted by start");
        assert_eq!(t.spans[0].kind, g.task(0));
        assert_eq!((t.spans[0].lane, t.spans[1].lane), (0, 1));
        assert!((t.spans[0].start_us - 1.0).abs() < 1e-12);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].kind, EventKind::Dispatch);
        assert_eq!((t.events[0].lane, t.events[0].aux), (2, 1));
        assert_eq!(t.hot_path_reallocations, 0);
    }

    #[test]
    fn a_recorder_grows_only_past_its_size_and_keeps_every_event() {
        let mut r = WorkerRecorder::new(4);
        for i in 0..4u64 {
            r.record(RawEvent::instant(RawKind::Ready, 0, i as usize, 0, i));
        }
        assert_eq!(r.hot_path_reallocations(), 0);
        for i in 4..10u64 {
            r.record(RawEvent::instant(RawKind::Ready, 0, i as usize, 0, i));
        }
        assert_eq!(r.hot_path_reallocations(), 1);
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let t = r.into_trace(vec!["manager".into()], &g);
        let kept: Vec<Option<usize>> = t.events.iter().map(|e| e.task).collect();
        assert_eq!(kept, (0..10).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn config_defaults_disabled() {
        assert!(!TraceConfig::default().enabled);
        assert!(TraceConfig::enabled().enabled);
    }
}
