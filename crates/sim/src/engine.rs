//! Task-level discrete-event simulation engine.
//!
//! Executes a [`TaskGraph`] on a [`Platform`] under a fixed task → device
//! assignment:
//!
//! * each device runs up to [`DeviceProfile::slots`] concurrent tile
//!   kernels; excess ready work queues FIFO (lowest task id first, so runs
//!   are bit-for-bit deterministic),
//! * when a task's output is consumed on another device, its bytes cross
//!   the shared PCIe bus as one message, pushed as soon as the producer
//!   finishes, deduplicated per `(producer, destination device)` exactly
//!   like the paper's post-T/E broadcasts (§IV-D), and serialized FIFO on
//!   the bus,
//! * messages travel in *streams*, one per `(source device, destination
//!   device, producer panel)`: the first message of a stream pays the
//!   batched-copy setup ([`Link::batch_time_us`]), later ones wire time
//!   only — the per-panel batched copy of Eq. 11 and the fast simulator,
//!   so [`SimStats::transfer_count`] counts batches in both,
//! * only data edges ship bytes: an edge carries data when the successor
//!   reads or writes a tile the producer writes. A write-after-read edge
//!   (`UNMQR(k, j)` → `TSQRT(k, k+1, k)`: the reader must finish before the
//!   diagonal tile is overwritten) orders the two tasks but moves nothing,
//! * a task starts only when all predecessors have finished *and* every
//!   cross-device input has arrived.
//!
//! [`DeviceProfile::slots`]: crate::DeviceProfile::slots
//! [`Link::batch_time_us`]: crate::Link::batch_time_us

use crate::device::DeviceId;
use crate::fault::FaultPlan;
use crate::platform::Platform;
use crate::stats::SimStats;
use crate::trace::{TaskSpan, Timeline, TransferSpan};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tileqr_dag::{TaskGraph, TaskId, TaskKind};

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    TaskDone(TaskId),
    /// A transient-fault attempt burned its duration and produced nothing;
    /// the retry hook re-queues the task on its device.
    TaskAttemptFailed(TaskId),
    TransferDone(TaskId, DeviceId),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for a min-heap via BinaryHeap<Reverse<_>> — here plain
        // ascending order; the heap wraps in Reverse.
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// `true` when the edge `p → s` carries data: `s` reads or writes a tile
/// `p` writes. Otherwise it is a write-after-read edge, which only orders.
fn carries_data(p: TaskKind, s: TaskKind) -> bool {
    let w = p.writes();
    s.reads()
        .iter()
        .chain(s.writes().iter())
        .any(|x| w.contains(x))
}

/// Simulate the execution of `g` where task `t` runs on
/// `assignment[t]`. Returns the full [`SimStats`].
///
/// Panics if `assignment.len() != g.len()` or any device id is out of
/// range.
pub fn simulate(g: &TaskGraph, platform: &Platform, assignment: &[DeviceId]) -> SimStats {
    simulate_impl(g, platform, assignment, None, &FaultPlan::none())
}

/// [`simulate`], additionally recording the full execution [`Timeline`]
/// (every kernel span and every bus transfer).
pub fn simulate_traced(
    g: &TaskGraph,
    platform: &Platform,
    assignment: &[DeviceId],
) -> (SimStats, Timeline) {
    let mut timeline = Timeline::default();
    let stats = simulate_impl(
        g,
        platform,
        assignment,
        Some(&mut timeline),
        &FaultPlan::none(),
    );
    (stats, timeline)
}

/// [`simulate`] under an injected [`FaultPlan`]: device slowdown spikes
/// stretch kernels starting in their window, bus stalls/storms delay
/// transfers, and transient kernel failures burn full-duration attempts
/// before the retry succeeds. With [`FaultPlan::none`] the result is
/// bit-identical to [`simulate`].
pub fn simulate_with_faults(
    g: &TaskGraph,
    platform: &Platform,
    assignment: &[DeviceId],
    faults: &FaultPlan,
) -> SimStats {
    simulate_impl(g, platform, assignment, None, faults)
}

fn simulate_impl(
    g: &TaskGraph,
    platform: &Platform,
    assignment: &[DeviceId],
    mut trace: Option<&mut Timeline>,
    faults: &FaultPlan,
) -> SimStats {
    assert_eq!(assignment.len(), g.len(), "one device per task required");
    let ndev = platform.num_devices();
    assert!(
        assignment.iter().all(|&d| d < ndev),
        "assignment references unknown device"
    );
    let b = platform.config().tile_size;
    let slots: Vec<usize> = (0..ndev).map(|d| platform.device(d).slots(b)).collect();

    let mut stats = SimStats::new(ndev);
    let mut remaining_preds = g.indegrees();
    // An edge puts a message on the bus when it carries data across devices.
    let ships =
        |p: TaskId, s: TaskId| assignment[p] != assignment[s] && carries_data(g.task(p), g.task(s));
    // Cross-device inputs not yet arrived, per task.
    let mut missing_inputs: Vec<usize> = (0..g.len())
        .map(|t| g.preds(t).iter().filter(|&&p| ships(p, t)).count())
        .collect();

    let mut ready: Vec<BinaryHeap<Reverse<TaskId>>> =
        (0..ndev).map(|_| BinaryHeap::new()).collect();
    let mut busy = vec![0usize; ndev];
    let mut bus_free = 0.0f64;
    let link = platform.link();
    // Streams that have paid their setup, indexed `(src · ndev + dest) · nt
    // + panel`.
    let nt = g.tile_cols();
    let mut opened = vec![false; ndev * ndev * nt];

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut makespan = 0.0f64;

    macro_rules! push_event {
        ($time:expr, $kind:expr) => {{
            heap.push(Reverse(Event {
                time: $time,
                seq,
                kind: $kind,
            }));
            seq += 1;
        }};
    }

    // Remaining failing attempts injected per task (usually all zero).
    let mut attempts_left: Vec<usize> = (0..g.len()).map(|t| faults.failures_for(t)).collect();

    // Dispatch as much queued work as device `d` has free slots for.
    macro_rules! dispatch {
        ($d:expr, $now:expr) => {{
            let d = $d;
            while busy[d] < slots[d] {
                let Some(Reverse(t)) = ready[d].pop() else {
                    break;
                };
                busy[d] += 1;
                let dur = platform.task_time_us(d, g.task(t)) * faults.effective_slowdown(d, $now);
                stats.device_busy_us[d] += dur;
                let will_fail = attempts_left[t] > 0;
                if will_fail {
                    attempts_left[t] -= 1;
                } else {
                    stats.tasks_per_device[d] += 1;
                }
                if let Some(tl) = trace.as_deref_mut() {
                    tl.tasks.push(TaskSpan {
                        task: t,
                        kind: g.task(t),
                        device: d,
                        start_us: $now,
                        end_us: $now + dur,
                    });
                }
                let kind = if will_fail {
                    EventKind::TaskAttemptFailed(t)
                } else {
                    EventKind::TaskDone(t)
                };
                push_event!($now + dur, kind);
            }
        }};
    }

    // Seed: sources have no preds, hence no transfers.
    for t in g.sources() {
        ready[assignment[t]].push(Reverse(t));
    }
    for d in 0..ndev {
        dispatch!(d, 0.0);
    }

    while let Some(Reverse(ev)) = heap.pop() {
        let now = ev.time;
        makespan = makespan.max(now);
        match ev.kind {
            EventKind::TaskDone(t) => {
                let d = assignment[t];
                busy[d] -= 1;

                // Push-broadcast this output to every other device that
                // will read it (deduplicated), as the paper does after each
                // T and E step.
                let kind = g.task(t);
                let bytes = platform.output_bytes(kind);
                let mut dests: Vec<DeviceId> = g
                    .succs(t)
                    .iter()
                    .filter(|&&s| ships(t, s))
                    .map(|&s| assignment[s])
                    .collect();
                dests.sort_unstable();
                dests.dedup();
                for dest in dests {
                    let start = faults.bus_available_at(bus_free.max(now));
                    let stream = (d * ndev + dest) * nt + kind.panel();
                    // The stream's first message opens the batch.
                    let dur = if opened[stream] {
                        bytes as f64 / link.bandwidth_bytes_per_us
                    } else {
                        opened[stream] = true;
                        stats.transfer_count += 1;
                        link.batch_time_us(bytes) + faults.transfer_overhead_at(start)
                    };
                    bus_free = start + dur;
                    stats.bus_busy_us += dur;
                    stats.bytes_transferred += bytes;
                    if let Some(tl) = trace.as_deref_mut() {
                        tl.transfers.push(TransferSpan {
                            producer: t,
                            dest,
                            bytes,
                            start_us: start,
                            end_us: bus_free,
                        });
                    }
                    push_event!(bus_free, EventKind::TransferDone(t, dest));
                }

                // A successor is ready once its last predecessor is done
                // and its last cross-device input has arrived.
                for &s in g.succs(t) {
                    remaining_preds[s] -= 1;
                    if remaining_preds[s] == 0 && missing_inputs[s] == 0 {
                        ready[assignment[s]].push(Reverse(s));
                        dispatch!(assignment[s], now);
                    }
                }
                dispatch!(d, now);
            }
            EventKind::TaskAttemptFailed(t) => {
                // Retry hook: free the slot, count the retry, and re-queue
                // the task on its assigned device.
                let d = assignment[t];
                busy[d] -= 1;
                stats.retry_count += 1;
                ready[d].push(Reverse(t));
                dispatch!(d, now);
            }
            EventKind::TransferDone(p, dest) => {
                for &s in g.succs(p) {
                    if assignment[s] == dest && ships(p, s) {
                        missing_inputs[s] -= 1;
                        if missing_inputs[s] == 0 && remaining_preds[s] == 0 {
                            ready[dest].push(Reverse(s));
                        }
                    }
                }
                dispatch!(dest, now);
            }
        }
    }

    debug_assert!(
        remaining_preds.iter().all(|&r| r == 0),
        "simulation finished with blocked tasks"
    );
    stats.makespan_us = makespan;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use tileqr_dag::{EliminationTree, StepClass, TaskGraph};

    fn all_on(g: &TaskGraph, dev: DeviceId) -> Vec<DeviceId> {
        vec![dev; g.len()]
    }

    /// Paper-style assignment: T/E on device 0, updates round-robin by
    /// column over all devices.
    fn column_cyclic(g: &TaskGraph, ndev: usize) -> Vec<DeviceId> {
        g.tasks()
            .iter()
            .map(|t| {
                if t.class().is_main_device_work() {
                    0
                } else {
                    t.home_column() % ndev
                }
            })
            .collect()
    }

    #[test]
    fn single_task_single_device() {
        let g = TaskGraph::build_tree(1, 1, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let s = simulate(&g, &p, &all_on(&g, 0));
        let expect = p.task_time_us(0, g.task(0));
        assert!((s.makespan_us - expect).abs() < 1e-9);
        assert_eq!(s.transfer_count, 0);
        assert_eq!(s.tasks_per_device[0], 1);
    }

    #[test]
    fn single_device_has_no_communication() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let s = simulate(&g, &p, &all_on(&g, 1));
        assert_eq!(s.bus_busy_us, 0.0);
        assert_eq!(s.bytes_transferred, 0);
        assert_eq!(s.tasks_per_device[1] as usize, g.len());
    }

    #[test]
    fn makespan_at_least_critical_path_and_at_most_serial() {
        let g = TaskGraph::build_tree(5, 5, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let assign = all_on(&g, 0);
        let s = simulate(&g, &p, &assign);
        let cp = tileqr_dag::critical_path::critical_path_length(&g, |t| p.task_time_us(0, t));
        let serial: f64 = g.tasks().iter().map(|&t| p.task_time_us(0, t)).sum();
        assert!(s.makespan_us >= cp - 1e-6, "{} < {}", s.makespan_us, cp);
        assert!(s.makespan_us <= serial + 1e-6);
        assert!(s.makespan_us < serial, "slots must give some overlap");
    }

    #[test]
    fn cross_device_assignment_produces_transfers() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let s = simulate(&g, &p, &column_cyclic(&g, 3));
        assert!(s.transfer_count > 0);
        assert!(s.bus_busy_us > 0.0);
        // Every device got some work.
        assert!(s.tasks_per_device[..3].iter().all(|&c| c > 0));
    }

    #[test]
    fn deterministic_replay() {
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 4);
        let s1 = simulate(&g, &p, &a);
        let s2 = simulate(&g, &p, &a);
        assert_eq!(s1, s2);
    }

    #[test]
    fn faster_device_finishes_sooner() {
        let g = TaskGraph::build_tree(5, 5, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let on_gpu = simulate(&g, &p, &all_on(&g, 0));
        let on_cpu = simulate(&g, &p, &all_on(&g, 3));
        assert!(on_gpu.makespan_us < on_cpu.makespan_us);
    }

    #[test]
    fn busy_time_equals_task_durations() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 2);
        let s = simulate(&g, &p, &a);
        let mut expect = vec![0.0f64; p.num_devices()];
        for (t, &d) in g.tasks().iter().zip(&a) {
            expect[d] += p.task_time_us(d, *t);
        }
        for (got, want) in s.device_busy_us.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn war_edges_order_but_ship_no_bytes() {
        // In a flat TS tree the only write-after-read edges are
        // UNMQR(k, j) -> TSQRT(k, k+1, k): the TSQRT overwrites the
        // diagonal tile the UNMQR read. Column-cyclic over two devices puts
        // many of them across the bus; none may move bytes.
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 2);
        let war = |t: TaskId, s: TaskId| {
            matches!(
                (g.task(t), g.task(s)),
                (TaskKind::Unmqr { .. }, TaskKind::Tsqrt { .. })
            )
        };
        let shipped = |with_war: bool| -> u64 {
            (0..g.len())
                .map(|t| {
                    let mut dests: Vec<DeviceId> = g
                        .succs(t)
                        .iter()
                        .filter(|&&s| with_war || !war(t, s))
                        .map(|&s| a[s])
                        .filter(|&d| d != a[t])
                        .collect();
                    dests.sort_unstable();
                    dests.dedup();
                    dests.len() as u64 * p.output_bytes(g.task(t))
                })
                .sum()
        };
        let (s, tl) = simulate_traced(&g, &p, &a);
        assert!(
            shipped(true) > shipped(false),
            "the grid must cross WAR edges"
        );
        assert_eq!(s.bytes_transferred, shipped(false));
        // The overwrite still waits for the read.
        let span = |t: TaskId| tl.tasks.iter().find(|x| x.task == t).unwrap();
        for t in 0..g.len() {
            for &w in g.succs(t).iter().filter(|&&w| war(t, w)) {
                assert!(span(w).start_us >= span(t).end_us, "{t} -> {w}");
            }
        }
    }

    #[test]
    fn bus_time_is_one_setup_per_batch_plus_wire_time() {
        let p = profiles::paper_testbed(16);
        let link = p.link();
        for (nt, ndev) in [(4, 2), (6, 3), (8, 4)] {
            let g = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
            let s = simulate(&g, &p, &column_cyclic(&g, ndev));
            let want = s.transfer_count as f64 * link.batch_latency_us
                + s.bytes_transferred as f64 / link.bandwidth_bytes_per_us;
            assert!(s.transfer_count > 0);
            assert!(
                (s.bus_busy_us - want).abs() <= 1e-9 * want,
                "nt={nt}: bus {} vs {want}",
                s.bus_busy_us
            );
            // At most one batch per (source, destination, panel).
            assert!(s.transfer_count as usize <= ndev * (ndev - 1) * nt);
        }
    }

    #[test]
    fn comm_fraction_bounded_and_positive() {
        // The comm share is a modest, well-bounded fraction; the strong
        // small-vs-large decrease of Fig. 5 is asserted against the fast
        // simulator in the sched crate.
        let p = profiles::paper_testbed(16);
        let g = TaskGraph::build_tree(12, 12, EliminationTree::Flat);
        let f = simulate(&g, &p, &column_cyclic(&g, 4)).comm_fraction();
        assert!(f > 0.0 && f < 0.5, "comm fraction {f}");
    }

    #[test]
    fn class_counts_preserved() {
        let g = TaskGraph::build_tree(5, 4, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 4);
        let s = simulate(&g, &p, &a);
        let total: u64 = s.tasks_per_device.iter().sum();
        assert_eq!(total as usize, g.len());
        // Main-device work stayed on device 0.
        let te = g
            .tasks()
            .iter()
            .filter(|t| matches!(t.class(), StepClass::Triangulation | StepClass::Elimination))
            .count();
        assert!(s.tasks_per_device[0] as usize >= te);
    }

    #[test]
    fn traced_run_matches_untraced_and_respects_slots() {
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 4);
        let plain = simulate(&g, &p, &a);
        let (stats, tl) = simulate_traced(&g, &p, &a);
        assert_eq!(plain, stats);
        assert_eq!(tl.tasks.len(), g.len());
        // One span per message; a batch holds one or more messages.
        assert!(tl.transfers.len() as u64 >= stats.transfer_count);
        let span_bytes: u64 = tl.transfers.iter().map(|x| x.bytes).sum();
        assert_eq!(span_bytes, stats.bytes_transferred);
        for d in 0..p.num_devices() {
            let peak = tl.peak_concurrency(d);
            assert!(
                peak <= p.device(d).slots(16),
                "device {d}: peak {peak} exceeds slots"
            );
        }
        // Every span respects its task's duration.
        for s in &tl.tasks {
            let dur = p.task_time_us(s.device, s.kind);
            assert!((s.end_us - s.start_us - dur).abs() < 1e-9);
        }
        // Bus transfers never overlap (single serialized bus).
        for w in tl.transfers.windows(2) {
            assert!(w[1].start_us >= w[0].end_us - 1e-9);
        }
    }

    #[test]
    fn empty_fault_plan_is_transparent() {
        let g = TaskGraph::build_tree(5, 5, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 3);
        let plain = simulate(&g, &p, &a);
        let faulted = simulate_with_faults(&g, &p, &a, &crate::FaultPlan::none());
        assert_eq!(plain, faulted);
        assert_eq!(faulted.retry_count, 0);
    }

    #[test]
    fn device_slowdown_stretches_makespan_monotonically() {
        let g = TaskGraph::build_tree(5, 5, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = all_on(&g, 0);
        let base = simulate(&g, &p, &a).makespan_us;
        let mut prev = base;
        for slow in [1.5, 3.0, 10.0] {
            let plan = crate::FaultPlan::none().with_device_slowdown(0, 0.0, f64::MAX, slow);
            let s = simulate_with_faults(&g, &p, &a, &plan);
            assert!(s.makespan_us > prev, "slowdown {slow} did not degrade");
            // A whole-run slowdown of the only busy device scales the
            // makespan by at most the slowdown factor.
            assert!(s.makespan_us <= base * slow + 1e-6);
            prev = s.makespan_us;
        }
    }

    #[test]
    fn link_stall_delays_only_communicating_runs() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let stall = crate::FaultPlan::none().with_link_stall(0.0, 50_000.0);
        // Single-device run never touches the bus: stall is invisible.
        let solo = simulate_with_faults(&g, &p, &all_on(&g, 0), &stall);
        assert_eq!(solo, simulate(&g, &p, &all_on(&g, 0)));
        // Cross-device run must wait out the stall.
        let a = column_cyclic(&g, 3);
        let faulted = simulate_with_faults(&g, &p, &a, &stall);
        let clean = simulate(&g, &p, &a);
        assert!(faulted.makespan_us > clean.makespan_us);
        assert!(faulted.makespan_us >= 50_000.0);
        assert_eq!(faulted.bytes_transferred, clean.bytes_transferred);
    }

    #[test]
    fn link_storm_inflates_bus_time() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 3);
        let clean = simulate(&g, &p, &a);
        let storm = crate::FaultPlan::none().with_link_storm(0.0, f64::MAX, 40.0);
        let s = simulate_with_faults(&g, &p, &a, &storm);
        let expect = clean.bus_busy_us + 40.0 * clean.transfer_count as f64;
        assert!((s.bus_busy_us - expect).abs() < 1e-6);
        assert!(s.makespan_us >= clean.makespan_us);
    }

    #[test]
    fn transient_kernel_failures_retry_and_complete() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 2);
        let clean = simulate(&g, &p, &a);
        // Fail the first task (a GEQRT on the critical path) twice and a
        // mid-graph task once.
        let plan = crate::FaultPlan::none()
            .with_kernel_failures(0, 2)
            .with_kernel_failures(g.len() / 2, 1);
        let s = simulate_with_faults(&g, &p, &a, &plan);
        assert_eq!(s.retry_count, 3);
        // Work conservation: every task still completes exactly once.
        let total: u64 = s.tasks_per_device.iter().sum();
        assert_eq!(total as usize, g.len());
        assert!(s.makespan_us > clean.makespan_us);
        // Burned attempts show up as extra busy time.
        assert!(s.total_compute_us() > clean.total_compute_us());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let a = column_cyclic(&g, 4);
        let plan = crate::FaultPlan::none()
            .with_device_slowdown(1, 1000.0, 5000.0, 4.0)
            .with_link_stall(2000.0, 3000.0)
            .with_kernel_failures(7, 1);
        let s1 = simulate_with_faults(&g, &p, &a, &plan);
        let s2 = simulate_with_faults(&g, &p, &a, &plan);
        assert_eq!(s1, s2);
    }

    #[test]
    #[should_panic]
    fn wrong_assignment_length_panics() {
        let g = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        let p = profiles::paper_testbed(16);
        let _ = simulate(&g, &p, &[0]);
    }
}
