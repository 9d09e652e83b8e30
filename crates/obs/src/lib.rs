//! Unified observability for the tiled-QR system.
//!
//! One span model ([`Span`]/[`Trace`]) covers both execution engines: the
//! real thread pool records every task lifecycle event of a run straight
//! into one [`Trace`] sized from its graph (its [`Span`]s and
//! [`TraceEvent`]s, in record order, handed over as recorded when the run
//! retires), and the simulator's [`tileqr_sim::Timeline`] converts
//! losslessly via [`Trace::from_timeline`]. On top of the shared model sit
//! three consumers:
//!
//! * [`chrome`] — Chrome `trace_event` JSON export (one lane per
//!   worker/device, loadable in Perfetto / `chrome://tracing`),
//! * [`hist`] — log-bucketed per-kernel latency histograms
//!   (p50/p95/p99 per [`tileqr_dag::TaskKind`]),
//! * [`calibrate`] — least-squares fits of the paper's
//!   `t(b) = c0 + c1·b² + c2·b³` kernel curves from measured spans, and
//!   sim-vs-real makespan error reports.
//!
//! Recording allocates nothing on a clean run (its trace is sized up
//! front) and is entirely inert when [`TraceConfig::enabled`] is false.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod chrome;
pub mod counters;
pub mod hist;
mod json;
pub mod profile_json;
pub mod recorder;
pub mod span;

pub use calibrate::{
    fit_step_times, fitted_profile, profile_error, samples_from_trace, sim_vs_real, KernelSample,
    SimVsReal,
};
pub use counters::{HotPathCounters, LifecycleCounters};
pub use hist::{bucket_bounds, bucket_of, KernelHistograms, LatencyHistogram, NUM_BUCKETS};
pub use profile_json::{
    default_profile_path, profile_from_json, profile_to_json, ProfileStore, PROFILE_ENV,
};
pub use recorder::TraceConfig;
pub use span::{kind_index, EventKind, Phase, Span, Trace, TraceEvent, KIND_NAMES, NUM_KINDS};
