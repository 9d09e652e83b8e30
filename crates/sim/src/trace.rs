//! Execution timeline recording.
//!
//! [`engine::simulate_traced`] returns, alongside the usual stats, the
//! `(start, end, device, task)` interval of every kernel and every bus
//! transfer — the raw material for utilization analysis and, lifted into
//! an `obs::Trace`, for eyeballing schedules as a text Gantt chart the way
//! the paper's authors would have profiled theirs.
//!
//! [`engine::simulate_traced`]: crate::engine::simulate_traced

use crate::device::DeviceId;
use tileqr_dag::{TaskId, TaskKind};

/// One executed kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpan {
    /// Task id within the graph.
    pub task: TaskId,
    /// Task kind.
    pub kind: TaskKind,
    /// Executing device.
    pub device: DeviceId,
    /// Start time, µs.
    pub start_us: f64,
    /// End time, µs.
    pub end_us: f64,
}

/// One bus message: a producer's output to one device (a batch is the
/// messages of one source, destination and panel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSpan {
    /// Producing task.
    pub producer: TaskId,
    /// Destination device.
    pub dest: DeviceId,
    /// Bytes moved.
    pub bytes: u64,
    /// Start time on the bus, µs.
    pub start_us: f64,
    /// End time, µs.
    pub end_us: f64,
}

/// Full execution timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Every kernel execution, in completion order.
    pub tasks: Vec<TaskSpan>,
    /// Every bus message, in issue order.
    pub transfers: Vec<TransferSpan>,
}

impl Timeline {
    /// Peak number of concurrently running kernels on a device (must never
    /// exceed its slot count — asserted by tests).
    pub fn peak_concurrency(&self, dev: DeviceId) -> usize {
        let mut events: Vec<(f64, i64)> = Vec::new();
        for s in self.tasks.iter().filter(|s| s.device == dev) {
            events.push((s.start_us, 1));
            events.push((s.end_us, -1));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(task: TaskId, device: DeviceId, start: f64, end: f64) -> TaskSpan {
        TaskSpan {
            task,
            kind: TaskKind::Geqrt { i: 0, k: 0 },
            device,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn peak_concurrency_counts_overlaps() {
        let tl = Timeline {
            tasks: vec![
                span(0, 0, 0.0, 10.0),
                span(1, 0, 5.0, 15.0),
                span(2, 0, 6.0, 8.0),
                span(3, 1, 0.0, 100.0),
            ],
            transfers: vec![],
        };
        assert_eq!(tl.peak_concurrency(0), 3);
        assert_eq!(tl.peak_concurrency(1), 1);
        assert_eq!(tl.peak_concurrency(2), 0);
    }
}
