//! Structured errors for the parallel runtime.
//!
//! Nothing unusual that happens during a run (a worker panic, a stall, a
//! thread dying mid-bookkeeping) is an `unwrap`/`expect`: every one of
//! those conditions is a [`RuntimeError`] variant, so callers can
//! distinguish "a kernel reported a numerical problem" from "a worker
//! thread died" from "the retry budget ran out" — and the legacy
//! [`tileqr_matrix::Result`]-returning entry points keep working through
//! the `From<RuntimeError> for MatrixError` impl.

use std::fmt;
use tileqr_dag::TaskId;
use tileqr_matrix::MatrixError;

/// Why a parallel factorization run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A kernel returned a numerical error (fast path: fatal immediately;
    /// fault-tolerant path: fatal once retries are exhausted).
    Kernel {
        /// Task whose kernel failed.
        task: TaskId,
        /// The underlying kernel error.
        source: MatrixError,
    },
    /// A worker thread panicked while executing a task. In the fast path
    /// this aborts the run (staging is destructive, so the task's inputs
    /// are gone); the fault-tolerant path retires the worker and retries
    /// the task instead, surfacing this only through `RunReport`.
    TaskPanicked {
        /// Task being executed when the panic fired.
        task: TaskId,
        /// Worker that panicked.
        worker: usize,
        /// Panic payload rendered to text (when downcastable).
        message: String,
    },
    /// A task failed on every allowed attempt.
    RetriesExhausted {
        /// The task that kept failing.
        task: TaskId,
        /// Attempts consumed (equals the configured `max_attempts`).
        attempts: u32,
        /// Diagnostic from the final failed attempt.
        last: String,
    },
    /// The pool's bookkeeping broke down — a worker thread died outside a
    /// task attempt, or tasks were left that nothing could make ready.
    Disconnected {
        /// Tasks that were dispatched but never reported back.
        in_flight: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Kernel { task, source } => {
                write!(f, "kernel error on task {task}: {source}")
            }
            RuntimeError::TaskPanicked {
                task,
                worker,
                message,
            } => write!(f, "worker {worker} panicked on task {task}: {message}"),
            RuntimeError::RetriesExhausted {
                task,
                attempts,
                last,
            } => write!(
                f,
                "task {task} failed on all {attempts} attempts; last error: {last}"
            ),
            RuntimeError::Disconnected { in_flight } => write!(
                f,
                "pool bookkeeping broke down with {in_flight} tasks in flight"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    /// Kernel failures chain to the underlying [`MatrixError`] so
    /// `anyhow`-style walkers (`Error::source`) can reach the numerical
    /// root cause.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Kernel { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<RuntimeError> for MatrixError {
    fn from(e: RuntimeError) -> Self {
        match e {
            // Preserve the numerical error for callers matching on it.
            RuntimeError::Kernel { source, .. } => source,
            other => MatrixError::Runtime {
                reason: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_task() {
        let e = RuntimeError::TaskPanicked {
            task: 7,
            worker: 2,
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("task 7") && s.contains("worker 2") && s.contains("boom"));
    }

    #[test]
    fn error_trait_composes_with_question_mark() {
        // `RuntimeError` must flow through `?` into a boxed error and
        // expose its numerical root cause via the `source()` chain.
        fn failing() -> Result<(), Box<dyn std::error::Error>> {
            Err(RuntimeError::Kernel {
                task: 4,
                source: MatrixError::Singular { index: 2 },
            })?;
            Ok(())
        }
        let boxed = failing().unwrap_err();
        let runtime = boxed.downcast_ref::<RuntimeError>().expect("runtime error");
        let root = std::error::Error::source(runtime).expect("kernel errors chain");
        assert!(root.to_string().contains("singular"));
        // Non-kernel variants terminate the chain.
        let lost = RuntimeError::Disconnected { in_flight: 1 };
        assert!(std::error::Error::source(&lost).is_none());
    }

    #[test]
    fn kernel_errors_round_trip_to_matrix_error() {
        let src = MatrixError::Singular { index: 3 };
        let e = RuntimeError::Kernel {
            task: 1,
            source: src.clone(),
        };
        assert_eq!(MatrixError::from(e), src);
        let lost = RuntimeError::Disconnected { in_flight: 4 };
        match MatrixError::from(lost) {
            MatrixError::Runtime { reason } => assert!(reason.contains("4 tasks in flight")),
            other => panic!("expected Runtime variant, got {other:?}"),
        }
    }
}
