//! Shared-memory parallel tiled-QR runtime.
//!
//! The paper's execution structure (Fig. 7) is a **manager thread** that
//! tracks DAG readiness and hands tasks to **computing threads** driving
//! GPUs. Here they drive host cores, where a task at the paper's b = 16
//! is a few microseconds and cannot afford a dispatcher in the loop: the
//! workers of the pool and of the multi-job service schedule themselves,
//! each taking the best ready task off the shared DAG state under one
//! lock. The manager survives where it feeds *devices* (the simulator
//! crates).
//!
//! Concurrency design: a job's tiles and T factors live in plain slots of
//! its one [`FactorState`](tileqr_kernels::exec::FactorState), guarded by
//! the driver's lock alone: *staging* a task under it clones `Arc` handles
//! for its read inputs and swaps its written tiles out, the `O(b³)` kernel
//! runs lock-free on what the worker carries, and *commit*, under the lock
//! again, swaps results back in. The *result* (not the
//! schedule) is deterministic because every task writes a disjoint tile set.
//!
//! One engine, one driver: everything a scheduler does *per DAG* —
//! readiness, FIFO dispatch (schedule adversaries are test pick hooks,
//! [`FaultInjector::pick`]), the commit fence, the retry budget, the
//! stall watchdog's bookkeeping — and the worker-side body of one task
//! attempt live once, thread-free, in [`engine`]; the threads around it —
//! self-scheduling workers over a table of engine runs behind one lock,
//! one thread keeping the clock, every lost worker respawned — live once
//! in [`service`]. [`QrService`] keeps one instance of that driver
//! resident, one engine run per job. A one-shot run has one way in,
//! [`parallel_factor_traced`] over a [`PoolConfig`]: inline at one
//! effective worker, otherwise a one-job instance of the driver scoped to
//! the call, with the calling thread as its clock.
//!
//! Fault tolerance: attempts run under `catch_unwind`, so a panic never
//! hangs or aborts the process. A [`PoolConfig::fault_tolerance`] budget
//! goes further — non-destructive staging plus the engine's
//! first-commit-wins fence make task re-execution idempotent, so panicked
//! or stalled workers are retired and replaced and their tasks retried
//! (bounded attempts, deterministic backoff). Failures surface as
//! structured [`RuntimeError`]s and recovery activity is reported in
//! [`RunReport`]'s `retries` / `requeues` / `worker_deaths` fields. The
//! deterministic [`FaultInjector`] seam, and with it any schedule
//! adversary's pick, reaches a one-shot run only through the doc-hidden
//! `run_pool`.
//!
//! Observability: enabling [`TraceConfig`] in the [`PoolConfig`] makes
//! the run record every task's lifecycle (stage/compute/commit spans on
//! the workers' lanes, plus the scheduler's ready/dispatch/recovery
//! instants on a `manager` lane) straight into the unified
//! [`Trace`](tileqr_obs::Trace) it carries in [`RunReport::trace`], sized
//! from its graph — see
//! the `tileqr-obs` crate for Chrome-trace export, latency histograms,
//! and sim-vs-real calibration built on top.
//!
//! Service mode: [`QrService`] keeps the workers *resident* and serves a
//! stream of factor / solve / apply jobs, interleaving many job DAGs
//! with weighted fair-share scheduling, priority classes, and admission
//! control — see the [`service`] module docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod error;
mod pool;
pub mod recovery;
pub mod service;

pub use error::RuntimeError;
pub use pool::{parallel_factor_traced, PoolConfig, RunReport};
pub use recovery::{FaultInjector, FaultTolerance, InjectedFault, ScriptedFaults};
#[doc(hidden)]
pub use service::run_pool;
pub use service::{
    FactoredJob, JobHandle, JobId, JobOutput, JobResult, JobSpec, PriorityClass, QrService,
    ServiceConfig, ServiceError, ServiceStats, WaitTimeout,
};
pub use tileqr_obs::TraceConfig;
