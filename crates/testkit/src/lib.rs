//! Deterministic testkit for the tiled-QR stack.
//!
//! The runtime, simulator and schedulers are all *deterministic given
//! their inputs* — but the space of inputs a production run can see
//! (thread interleavings, device misbehavior, pathological matrices) is
//! far larger than what unit tests naturally cover. This crate closes
//! the gap with five instruments:
//!
//! * [`adversary`] — the dispatch rules (critical path, LIFO, seeded, …)
//!   written once, as pick hooks for the real driver and the explorer.
//! * [`explorer`] — the one virtual `k`-worker driver, which steps the
//!   runtime's own `DagRun` through seeded and adversarial interleavings
//!   (and, in a storm, faults) and hands back the final state for
//!   bit-identity comparison against the sequential factorization.
//!   Hundreds of distinct legal schedules per test, each fully
//!   reproducible from a seed.
//! * fault injection — [`tileqr_sim::FaultPlan`] scenarios (device
//!   slowdown spikes, bus stalls and storms, transient kernel failures)
//!   replayed through the discrete-event engine, with the paper's
//!   Alg. 2/3 selections re-evaluated on degraded device profiles.
//! * [`oracle`] — condition-scaled residual / orthogonality bounds and a
//!   differential `R`-factor check against the reference Householder
//!   path, for an adversarial matrix family (graded, near-rank-deficient,
//!   Hilbert-like, huge/tiny scale).
//! * [`chaos`] — seeded disturbance storms (panics, stalls, cancels,
//!   deadline sheds, NaN injections, saturation) against a live
//!   [`tileqr_runtime::QrService`], asserting the end-to-end lifecycle
//!   invariants: no job lost or hung, unaffected jobs bit-identical,
//!   lifecycle counters consistent with observed outcomes.
//!
//! The integration suites live under `tests/` and read one environment
//! variable so CI can sweep configurations without recompiling:
//! `TILEQR_TESTKIT_WORKERS` (comma-separated worker counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod chaos;
pub mod explorer;
pub mod oracle;

use std::sync::mpsc;
use std::time::Duration;

/// Run `body` on its own thread and fail — instead of hanging — if it
/// has not returned within `limit`: the guard every lost-wake-up test of
/// the self-scheduling drivers runs under.
pub fn within<R: Send + 'static>(
    limit: Duration,
    what: &str,
    body: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(r) => r,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: still running after {limit:?} — lost wake-up or missed termination")
        }
        // The body panicked (a failed assertion): re-raise it.
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("sender dropped without sending or panicking"),
        },
    }
}

/// Worker counts the integration suites should sweep. Reads
/// `TILEQR_TESTKIT_WORKERS` (e.g. `"1,2,4"`); defaults to `[1, 2, 4]`.
pub fn workers_under_test() -> Vec<usize> {
    match std::env::var("TILEQR_TESTKIT_WORKERS") {
        Ok(s) => s
            .split(',')
            .map(|w| {
                w.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad TILEQR_TESTKIT_WORKERS entry {w:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_ci_matrix() {
        // CI sets the env var per job; the in-process default is the
        // full matrix (serial tests must not mutate the environment).
        if std::env::var("TILEQR_TESTKIT_WORKERS").is_err() {
            assert_eq!(workers_under_test(), vec![1, 2, 4]);
        }
    }
}
