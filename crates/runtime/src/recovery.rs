//! Fault-tolerance policy and deterministic fault injection for the pool.
//!
//! [`FaultTolerance`] bounds how hard a driver fights to finish a run:
//! at most `max_attempts` executions per task, separated by deterministic
//! exponential backoff, with an optional stall watchdog that retires a
//! worker whose in-flight task exceeds `stall_timeout`. Recovery is only
//! *safe* because the fault-tolerant pool stages non-destructively and
//! commits exactly once behind the engine's fence (see `DESIGN.md` §11) — a
//! requeued task always re-reads clean inputs and a late duplicate result
//! is dropped at the commit fence.
//!
//! [`FaultInjector`] is the test seam: the pool consults it before every
//! attempt, so suites can script panics, transient kernel failures, and
//! stalls at exact (task, attempt) coordinates and replay them
//! deterministically — and, through [`pick`](FaultInjector::pick), at
//! every dispatch, so a schedule adversary can choose which ready task
//! goes next in place of the driver's FIFO order.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use tileqr_dag::TaskId;

/// Bounds on the pool's recovery behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTolerance {
    /// Maximum executions per task (first try included). Must be ≥ 1; the
    /// run fails with `RetriesExhausted` when a task burns them all.
    pub max_attempts: u32,
    /// Backoff before retry `n` (1-based) is `backoff_base · 2^(n-1)`,
    /// capped at [`backoff_cap`](Self::backoff_cap). Deterministic — no
    /// jitter — so failure schedules replay exactly.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Watchdog: a worker whose in-flight task exceeds this age is
    /// retired and the task requeued. `None` disables the watchdog
    /// (panics and kernel errors are still recovered).
    pub stall_timeout: Option<Duration>,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(64),
            stall_timeout: None,
        }
    }
}

impl FaultTolerance {
    /// Delay before scheduling retry number `retry` (1-based: the first
    /// retry is `backoff(1)` after the first failure).
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        self.backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap)
    }
}

/// What an injector asks an attempt to do instead of (or before) running
/// the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Run normally.
    None,
    /// Panic inside the worker (exercises `catch_unwind` + retirement).
    Panic,
    /// Return a transient kernel error without touching shared state.
    TransientError,
    /// Sleep this long before running normally (exercises the watchdog).
    Stall(Duration),
    /// Run the kernel normally, then overwrite part of its output with
    /// NaN before it is reported (exercises commit-fence poison
    /// detection — the corruption must fail only the victim job).
    PoisonNan,
}

/// Test seam consulted by the pool before every task attempt and at
/// every dispatch.
///
/// Implementations must be deterministic functions of `(task, attempt)`
/// for runs to replay; the built-in [`ScriptedFaults`] is.
pub trait FaultInjector: Sync {
    /// Fault to apply to attempt `attempt` (0-based) of `task`.
    fn before_attempt(&self, task: TaskId, attempt: u32) -> InjectedFault;

    /// Index into `ready` — the non-empty ready set, oldest first — of the
    /// task to dispatch next. The default, `0`, is the driver's own FIFO
    /// order. Called under the driver's lock.
    fn pick(&self, _ready: &[TaskId]) -> usize {
        0
    }
}

/// Deterministic scripted injector: each task maps to a number of leading
/// attempts that panic, fail transiently, or stall. Attempt indices past
/// the scripted count run clean, so a bounded-retry pool always converges
/// when the script injects fewer faults than `max_attempts`.
#[derive(Debug, Default)]
pub struct ScriptedFaults {
    panics: HashMap<TaskId, u32>,
    transients: HashMap<TaskId, u32>,
    stalls: HashMap<TaskId, (u32, Duration)>,
    poisons: HashMap<TaskId, u32>,
    /// Observed (task, attempt) pairs, for asserting injection coverage.
    seen: Mutex<Vec<(TaskId, u32)>>,
}

impl ScriptedFaults {
    /// Empty script: every attempt runs clean.
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic on the first `count` attempts of `task`.
    pub fn panic_on(mut self, task: TaskId, count: u32) -> Self {
        self.panics.insert(task, count);
        self
    }

    /// Return a transient kernel error on the first `count` attempts of
    /// `task`.
    pub fn fail_on(mut self, task: TaskId, count: u32) -> Self {
        self.transients.insert(task, count);
        self
    }

    /// Stall for `delay` on the first `count` attempts of `task`.
    pub fn stall_on(mut self, task: TaskId, count: u32, delay: Duration) -> Self {
        self.stalls.insert(task, (count, delay));
        self
    }

    /// Poison (NaN-corrupt) the output of the first `count` attempts of
    /// `task` after the kernel runs.
    pub fn poison_on(mut self, task: TaskId, count: u32) -> Self {
        self.poisons.insert(task, count);
        self
    }

    /// Every (task, attempt) pair the pool asked about, in the order the
    /// workers reached them.
    pub fn attempts_seen(&self) -> Vec<(TaskId, u32)> {
        self.seen.lock().expect("injector log").clone()
    }
}

impl FaultInjector for ScriptedFaults {
    fn before_attempt(&self, task: TaskId, attempt: u32) -> InjectedFault {
        self.seen
            .lock()
            .expect("injector log")
            .push((task, attempt));
        if let Some(&n) = self.panics.get(&task) {
            if attempt < n {
                return InjectedFault::Panic;
            }
        }
        if let Some(&n) = self.transients.get(&task) {
            if attempt < n {
                return InjectedFault::TransientError;
            }
        }
        if let Some(&(n, d)) = self.stalls.get(&task) {
            if attempt < n {
                return InjectedFault::Stall(d);
            }
        }
        if let Some(&n) = self.poisons.get(&task) {
            if attempt < n {
                return InjectedFault::PoisonNan;
            }
        }
        InjectedFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let ft = FaultTolerance {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
            ..FaultTolerance::default()
        };
        assert_eq!(ft.backoff(1), Duration::from_millis(2));
        assert_eq!(ft.backoff(2), Duration::from_millis(4));
        assert_eq!(ft.backoff(3), Duration::from_millis(8));
        assert_eq!(ft.backoff(4), Duration::from_millis(10)); // capped
        assert_eq!(ft.backoff(60), Duration::from_millis(10)); // no overflow
    }

    #[test]
    fn scripted_faults_clear_after_count() {
        let s = ScriptedFaults::new().panic_on(3, 2).fail_on(5, 1).stall_on(
            7,
            1,
            Duration::from_millis(1),
        );
        assert_eq!(s.before_attempt(3, 0), InjectedFault::Panic);
        assert_eq!(s.before_attempt(3, 1), InjectedFault::Panic);
        assert_eq!(s.before_attempt(3, 2), InjectedFault::None);
        assert_eq!(s.before_attempt(5, 0), InjectedFault::TransientError);
        assert_eq!(s.before_attempt(5, 1), InjectedFault::None);
        assert_eq!(
            s.before_attempt(7, 0),
            InjectedFault::Stall(Duration::from_millis(1))
        );
        assert_eq!(s.before_attempt(9, 0), InjectedFault::None);
        assert_eq!(s.attempts_seen().len(), 7);
    }

    #[test]
    fn poison_clears_after_count() {
        let s = ScriptedFaults::new().poison_on(4, 2);
        assert_eq!(s.before_attempt(4, 0), InjectedFault::PoisonNan);
        assert_eq!(s.before_attempt(4, 1), InjectedFault::PoisonNan);
        assert_eq!(s.before_attempt(4, 2), InjectedFault::None);
    }
}
