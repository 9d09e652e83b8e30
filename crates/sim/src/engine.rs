//! Task-level discrete-event simulation engine.
//!
//! Executes a [`TaskGraph`] on a [`Platform`] under a fixed task → device
//! assignment:
//!
//! * each device runs up to [`DeviceProfile::slots`] concurrent tile
//!   kernels; excess ready work queues FIFO (lowest task id first, so runs
//!   are bit-for-bit deterministic),
//! * when a task's output is consumed on another device, its bytes cross
//!   the shared PCIe bus; transfers are pushed as soon as the producer
//!   finishes, deduplicated per `(producer, destination device)` exactly
//!   like the paper's post-T/E broadcasts (§IV-D), and serialized FIFO on
//!   the bus,
//! * a task starts only when all predecessors have finished *and* every
//!   cross-device input has arrived.
//!
//! [`DeviceProfile::slots`]: crate::DeviceProfile::slots

use crate::device::DeviceId;
use crate::fault::FaultPlan;
use crate::platform::Platform;
use crate::stats::SimStats;
use crate::trace::{TaskSpan, Timeline, TransferSpan};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tileqr_dag::{TaskGraph, TaskId};

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

#[derive(Debug)]
enum TransferState {
    InFlight { waiters: Vec<TaskId> },
    Done,
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
    // Cross-device inputs still in flight, per task.
    let mut missing_inputs = vec![0usize; g.len()];
    let mut deps_done = vec![false; g.len()];
    let mut transfers: HashMap<(TaskId, DeviceId), TransferState> = HashMap::new();

    let mut ready: Vec<BinaryHeap<Reverse<TaskId>>> =
        (0..ndev).map(|_| BinaryHeap::new()).collect();
    let mut busy = vec![0usize; ndev];
    let mut bus_free = 0.0f64;

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

    // A task whose dependencies are satisfied: figure out which of its
    // cross-device inputs are still missing; enqueue when none are.
    macro_rules! on_deps_done {
        ($t:expr, $now:expr) => {{
            let t = $t;
            deps_done[t] = true;
            let dest = assignment[t];
            let mut missing = 0usize;
            for &p in g.preds(t) {
                if assignment[p] != dest {
                    match transfers.get_mut(&(p, dest)) {
                        Some(TransferState::Done) => {}
                        Some(TransferState::InFlight { waiters }) => {
                            waiters.push(t);
                            missing += 1;
                        }
                        None => unreachable!("transfer pushed at producer finish"),
                    }
                }
            }
            if missing == 0 {
                ready[dest].push(Reverse(t));
                dispatch!(dest, $now);
            } else {
                missing_inputs[t] = missing;
            }
        }};
    }

    // Seed: sources have no preds, hence no transfers.
    for t in g.sources() {
        deps_done[t] = true;
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
                // will consume it (deduplicated), as the paper does after
                // each T and E step.
                let bytes = platform.output_bytes(g.task(t));
                let mut dests: Vec<DeviceId> = g
                    .succs(t)
                    .iter()
                    .map(|&s| assignment[s])
                    .filter(|&dd| dd != d)
                    .collect();
                dests.sort_unstable();
                dests.dedup();
                for dest in dests {
                    let start = faults.bus_available_at(bus_free.max(now));
                    let dur = platform.transfer_time_us(bytes) + faults.transfer_overhead_at(start);
                    bus_free = start + dur;
                    stats.bus_busy_us += dur;
                    stats.bytes_transferred += bytes;
                    stats.transfer_count += 1;
                    if let Some(tl) = trace.as_deref_mut() {
                        tl.transfers.push(TransferSpan {
                            producer: t,
                            dest,
                            bytes,
                            start_us: start,
                            end_us: bus_free,
                        });
                    }
                    transfers.insert((t, dest), TransferState::InFlight { waiters: vec![] });
                    push_event!(bus_free, EventKind::TransferDone(t, dest));
                }

                for &s in g.succs(t) {
                    remaining_preds[s] -= 1;
                    if remaining_preds[s] == 0 {
                        on_deps_done!(s, now);
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
                let state = transfers
                    .insert((p, dest), TransferState::Done)
                    .expect("transfer must be in flight");
                if let TransferState::InFlight { waiters } = state {
                    for t in waiters {
                        missing_inputs[t] -= 1;
                        if missing_inputs[t] == 0 && deps_done[t] {
                            ready[dest].push(Reverse(t));
                        }
                    }
                    dispatch!(dest, now);
                }
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
    fn comm_fraction_bounded_and_positive() {
        // At task granularity (streamed messages) the comm share is a
        // modest, well-bounded fraction; the strong small-vs-large decrease
        // of Fig. 5 comes from the batched per-panel transfers and is
        // asserted against the fast simulator in the sched crate.
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
        assert_eq!(tl.transfers.len() as u64, stats.transfer_count);
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
