//! Low-overhead per-lane event recorders for the real pool.
//!
//! Each worker thread (and the manager) owns one [`WorkerRecorder`]: a
//! fixed-capacity ring buffer of plain-old-data [`RawEvent`]s. Recording
//! is a bounds-checked array write — no locks, no allocation, no
//! formatting — so the hot path pays a few nanoseconds per event when
//! tracing is on and exactly nothing when it is off (the pool holds
//! `Option<WorkerRecorder>` and skips the timestamp reads entirely).
//! When the buffer fills, the oldest events are overwritten and counted,
//! never reallocated; [`WorkerRecorder::hot_path_reallocations`] is the
//! counting seam the overhead regression suite asserts on.
//!
//! At pool join the recorders are merged into one [`Trace`] via
//! [`merge_recorders`], which resolves task kinds from the graph and
//! converts nanosecond offsets to the µs timescale shared with the
//! simulator.

use crate::span::{EventKind, Phase, Span, Trace, TraceEvent};
use tileqr_dag::{TaskGraph, TaskId};

/// Tracing configuration carried by the pool config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record the run. Off by default: a disabled config makes the pool
    /// allocate nothing and read no extra clocks.
    pub enabled: bool,
    /// Ring-buffer capacity per lane, in events. Each event is a few
    /// machine words; the default holds ~64k events per lane, enough for
    /// a 100×100-tile factorization without overwrites.
    pub capacity_per_lane: usize,
}

/// Default per-lane ring capacity (events).
pub const DEFAULT_CAPACITY_PER_LANE: usize = 1 << 16;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity_per_lane: DEFAULT_CAPACITY_PER_LANE,
        }
    }
}

impl TraceConfig {
    /// Tracing on, default capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Tracing on with an explicit per-lane capacity (min 1).
    pub fn with_capacity(capacity_per_lane: usize) -> Self {
        TraceConfig {
            enabled: true,
            capacity_per_lane: capacity_per_lane.max(1),
        }
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

/// One fixed-size record: no heap data, cheap to copy into the ring.
#[derive(Debug, Clone, Copy)]
pub struct RawEvent {
    /// Record kind.
    pub kind: RawKind,
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

    /// An interval record.
    pub fn interval(kind: RawKind, task: TaskId, attempt: u32, t0_ns: u64, t1_ns: u64) -> Self {
        RawEvent {
            kind,
            task,
            attempt,
            aux: 0,
            t0_ns,
            t1_ns,
        }
    }

    /// An instant record.
    pub fn instant(kind: RawKind, task: TaskId, aux: u64, at_ns: u64) -> Self {
        RawEvent {
            kind,
            task,
            attempt: 0,
            aux,
            t0_ns: at_ns,
            t1_ns: at_ns,
        }
    }
}

/// Fixed-capacity ring buffer of [`RawEvent`]s owned by one lane.
#[derive(Debug)]
pub struct WorkerRecorder {
    buf: Vec<RawEvent>,
    cap: usize,
    /// Next overwrite position once the buffer is full.
    head: usize,
    overwritten: u64,
    initial_heap_capacity: usize,
}

impl WorkerRecorder {
    /// Pre-allocate a recorder holding `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let buf = Vec::with_capacity(cap);
        let initial_heap_capacity = buf.capacity();
        WorkerRecorder {
            buf,
            cap,
            head: 0,
            overwritten: 0,
            initial_heap_capacity,
        }
    }

    /// Record one event: an append while the ring has room, otherwise an
    /// overwrite of the oldest event. Never allocates.
    #[inline]
    pub fn record(&mut self, ev: RawEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events lost to ring overwrites.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Number of times the underlying buffer grew past its pre-allocated
    /// capacity. The recorder never grows it, so this is 0 — the counting
    /// assertion the overhead suite locks down.
    pub fn hot_path_reallocations(&self) -> u64 {
        u64::from(self.buf.capacity() > self.initial_heap_capacity)
    }

    /// The held events in recording order (oldest first).
    pub fn events(&self) -> Vec<RawEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.cap {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }
}

const NS_PER_US: f64 = 1e3;

/// Merge one recorder per lane into a unified [`Trace`], resolving task
/// kinds from `graph`. `lanes[i]` names recorder `i`'s lane.
pub fn merge_recorders(
    recorders: &[WorkerRecorder],
    lanes: Vec<String>,
    graph: &TaskGraph,
) -> Trace {
    assert_eq!(recorders.len(), lanes.len(), "one name per lane");
    let mut spans = Vec::new();
    let mut events = Vec::new();
    let mut dropped = 0;
    let mut hot_path_reallocations = 0;
    for (lane, rec) in recorders.iter().enumerate() {
        dropped += rec.overwritten();
        hot_path_reallocations += rec.hot_path_reallocations();
        for ev in rec.events() {
            let phase = match ev.kind {
                RawKind::Stage => Some(Phase::Stage),
                RawKind::Compute => Some(Phase::Compute),
                RawKind::Commit => Some(Phase::Commit),
                _ => None,
            };
            if let Some(phase) = phase {
                spans.push(Span {
                    task: ev.task,
                    kind: graph.task(ev.task),
                    lane,
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
                    lane,
                    at_us: ev.t0_ns as f64 / NS_PER_US,
                    aux: ev.aux,
                });
            }
        }
    }
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.task.cmp(&b.task)));
    events.sort_by(|a, b| a.at_us.total_cmp(&b.at_us).then(a.lane.cmp(&b.lane)));
    Trace {
        spans,
        events,
        lanes,
        dropped,
        hot_path_reallocations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_dag::EliminationTree;

    #[test]
    fn ring_overwrites_oldest_without_allocating() {
        let mut r = WorkerRecorder::new(4);
        let heap_cap = r.buf.capacity();
        for i in 0..10u64 {
            r.record(RawEvent::instant(RawKind::Ready, i as usize, 0, i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 6);
        assert_eq!(r.buf.capacity(), heap_cap);
        assert_eq!(r.hot_path_reallocations(), 0);
        // Oldest-first order after wrap: events 6..10 survive.
        let kept: Vec<u64> = r.events().iter().map(|e| e.t0_ns).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn merge_resolves_kinds_and_sorts() {
        let g = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        let mut w0 = WorkerRecorder::new(16);
        let mut w1 = WorkerRecorder::new(16);
        w1.record(RawEvent::interval(RawKind::Compute, 1, 0, 5_000, 9_000));
        w0.record(RawEvent::interval(RawKind::Compute, 0, 0, 1_000, 4_000));
        w0.record(RawEvent::instant(RawKind::Dispatch, 0, 1, 500));
        let t = merge_recorders(
            &[w0, w1],
            vec!["worker0".to_string(), "worker1".to_string()],
            &g,
        );
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].task, 0, "sorted by start");
        assert_eq!(t.spans[0].kind, g.task(0));
        assert!((t.spans[0].start_us - 1.0).abs() < 1e-12);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].kind, EventKind::Dispatch);
        assert_eq!(t.events[0].aux, 1);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.hot_path_reallocations, 0);
    }

    #[test]
    fn config_defaults_disabled() {
        let c = TraceConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.capacity_per_lane, DEFAULT_CAPACITY_PER_LANE);
        assert!(TraceConfig::enabled().enabled);
        assert_eq!(TraceConfig::with_capacity(0).capacity_per_lane, 1);
    }
}
