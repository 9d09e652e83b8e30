//! Whether a run records its trace.
//!
//! A traced run records straight into the [`Trace`](crate::Trace) its
//! consumers read: its `DagRun` sizes one from its graph to what a clean
//! run records (three spans and two instants per task) and pushes each
//! [`Span`](crate::Span) and [`TraceEvent`](crate::TraceEvent) as it
//! happens — no lock of its own, no allocation, no formatting, and no
//! conversion when the run retires. Only a run that records more than its
//! clean size (a retried attempt) grows it;
//! [`Trace::hot_path_reallocations`](crate::Trace::hot_path_reallocations)
//! counts that, and the overhead suites assert it is 0 on clean runs. An
//! untraced run builds no trace and reads no extra clock.

/// Tracing configuration carried by the pool config.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record the run. Off by default: a disabled config makes the pool
    /// allocate nothing and read no extra clocks. An enabled run records
    /// every event into one trace sized from its graph.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing on.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_disabled() {
        assert!(!TraceConfig::default().enabled);
        assert!(TraceConfig::enabled().enabled);
    }
}
