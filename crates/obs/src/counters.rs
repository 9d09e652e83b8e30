//! Memory-discipline counters for the zero-allocation hot path.
//!
//! The kernel executor promises two things in steady state: written tiles
//! move (never copy) through the stage/compute/commit cycle, and kernel
//! scratch comes from a pre-sized per-worker [`Workspace`] arena that
//! never grows. [`HotPathCounters`] is the observable form of that
//! promise — the runtime fills one in per run and the tests
//! assert the zero columns stay zero.
//!
//! [`Workspace`]: https://docs.rs/tileqr-kernels

/// Counters surfaced by a factorization run that certify (or refute) the
/// zero-allocation discipline of the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotPathCounters {
    /// Copy-on-write fallback clones: full `O(b²)` tile copies taken
    /// because an `Arc` that should have been uniquely owned was still
    /// shared when a writer staged it. 0 for single-owner execution.
    pub cow_clones: u64,
    /// Total bytes held by all workspace arenas at the end of the run
    /// (capacity, not momentary use).
    pub workspace_bytes: usize,
    /// Number of times any workspace arena had to grow after its initial
    /// sizing. 0 in steady state; every growth is a heap allocation that
    /// happened inside a kernel.
    pub workspace_resizes: u64,
}

impl HotPathCounters {
    /// Fold another set of counters (e.g. from another worker) into this
    /// one. Counts add; byte totals add (each worker owns its arena).
    pub fn merge(&mut self, other: &HotPathCounters) {
        self.cow_clones += other.cow_clones;
        self.workspace_bytes += other.workspace_bytes;
        self.workspace_resizes += other.workspace_resizes;
    }

    /// True when the run stayed on the zero-allocation fast path: no COW
    /// clones and no arena growth.
    pub fn is_clean(&self) -> bool {
        self.cow_clones == 0 && self.workspace_resizes == 0
    }
}

/// Job-lifecycle counters of a resident service: how many jobs left the
/// normal `queued → dispatched → done` path, and why. Each field maps to
/// one structured failure mode a `QrService` can assign a job
/// (`DeadlineExceeded`, `Cancelled`, `NumericalBreakdown`) plus the
/// watchdog's worker retirements — together they make the containment
/// story observable: a chaos storm can assert *exactly* how many jobs
/// were shed, cancelled, or poisoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleCounters {
    /// Jobs shed before consuming worker time because their deadline had
    /// already expired (at admission or while queued).
    pub jobs_shed: u64,
    /// Jobs that resolved as cancelled (cooperative drain completed
    /// before the DAG did).
    pub jobs_cancelled: u64,
    /// Non-finite panel factors caught at the commit fence; each one
    /// failed exactly its victim job instead of propagating NaN.
    pub poison_detected: u64,
    /// Workers retired by the stall watchdog (their in-flight task was
    /// requeued exactly-once through the retry path).
    pub watchdog_retirements: u64,
}

impl LifecycleCounters {
    /// Fold another set of lifecycle counters into this one.
    pub fn merge(&mut self, other: &LifecycleCounters) {
        self.jobs_shed += other.jobs_shed;
        self.jobs_cancelled += other.jobs_cancelled;
        self.poison_detected += other.poison_detected;
        self.watchdog_retirements += other.watchdog_retirements;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        assert!(HotPathCounters::default().is_clean());
    }

    #[test]
    fn lifecycle_merge_adds_and_quiet_detects() {
        let mut a = LifecycleCounters {
            jobs_shed: 1,
            ..Default::default()
        };
        let b = LifecycleCounters {
            jobs_cancelled: 2,
            poison_detected: 3,
            watchdog_retirements: 4,
            ..Default::default()
        };
        assert_ne!(a, LifecycleCounters::default());
        a.merge(&b);
        assert_eq!(
            a,
            LifecycleCounters {
                jobs_shed: 1,
                jobs_cancelled: 2,
                poison_detected: 3,
                watchdog_retirements: 4,
            }
        );
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = HotPathCounters {
            cow_clones: 1,
            workspace_bytes: 100,
            workspace_resizes: 0,
        };
        let b = HotPathCounters {
            cow_clones: 2,
            workspace_bytes: 50,
            workspace_resizes: 3,
        };
        a.merge(&b);
        assert_eq!(a.cow_clones, 3);
        assert_eq!(a.workspace_bytes, 150);
        assert_eq!(a.workspace_resizes, 3);
        assert!(!a.is_clean());
    }

    #[test]
    fn clean_requires_both_zero_counts() {
        let cow = HotPathCounters {
            cow_clones: 1,
            ..Default::default()
        };
        let grow = HotPathCounters {
            workspace_resizes: 1,
            ..Default::default()
        };
        assert!(!cow.is_clean());
        assert!(!grow.is_clean());
        // Bytes alone don't dirty a run: a sized arena is the point.
        let sized = HotPathCounters {
            workspace_bytes: 4096,
            ..Default::default()
        };
        assert!(sized.is_clean());
    }
}
