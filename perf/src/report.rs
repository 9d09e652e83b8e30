//! The metric tables and the run's output.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names
//! and units; `BENCHMARK.json` at the repo root repeats them (a test
//! holds the two together). A run prints one `workload metric value unit
//! n=<samples>` line per metric and then, as its last line, the JSON
//! object the driver reads.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off. The bounds
/// are three times the widest spread (quartile distance over median of
/// ten runs) seen on any workload when the benchmark was defined, capped
/// at the driver's limit of a quarter: this host allows no tighter ones.
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_ms", "ms", Better::Lower, 0.25),
    e2e("op_tail_ms", "ms", Better::Lower, 0.25),
    e2e("aux_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single layers, measured from outside in the traced pass. A layer a
/// workload never enters reads 0 there: that is the "no change"
/// prediction made visible.
pub const PER_LAYER: &[MetricDef] = &[
    lo("matrix.tile_s", "s"),
    lo("matrix.untile_s", "s"),
    lo("matrix.tile_bytes", "bytes"),
    lo("dag.build_s", "s"),
    lo("dag.priorities_s", "s"),
    lo("dag.tasks", "count"),
    lo("dag.edges", "count"),
    lo("dag.critical_path_tasks", "count"),
    lo("kernels.geqrt_ns", "ns"),
    lo("kernels.unmqr_ns", "ns"),
    lo("kernels.tsqrt_ns", "ns"),
    lo("kernels.tsmqr_ns", "ns"),
    lo("kernels.ttqrt_ns", "ns"),
    lo("kernels.ttmqr_ns", "ns"),
    hi("kernels.geqrt_gflops", "GFLOP/s"),
    hi("kernels.unmqr_gflops", "GFLOP/s"),
    hi("kernels.tsqrt_gflops", "GFLOP/s"),
    hi("kernels.tsmqr_gflops", "GFLOP/s"),
    hi("kernels.ttqrt_gflops", "GFLOP/s"),
    hi("kernels.ttmqr_gflops", "GFLOP/s"),
    hi("kernels.geqrt_flops_per_byte", "flop/byte"),
    hi("kernels.unmqr_flops_per_byte", "flop/byte"),
    hi("kernels.tsqrt_flops_per_byte", "flop/byte"),
    hi("kernels.tsmqr_flops_per_byte", "flop/byte"),
    hi("kernels.ttqrt_flops_per_byte", "flop/byte"),
    hi("kernels.ttmqr_flops_per_byte", "flop/byte"),
    hi("kernels.geqrt_pct_fma_peak", "%"),
    hi("kernels.unmqr_pct_fma_peak", "%"),
    hi("kernels.tsqrt_pct_fma_peak", "%"),
    hi("kernels.tsmqr_pct_fma_peak", "%"),
    hi("kernels.ttqrt_pct_fma_peak", "%"),
    hi("kernels.ttmqr_pct_fma_peak", "%"),
    lo("kernels.seq_s", "s"),
    lo("kernels.model_s", "s"),
    lo("kernels.flops", "count"),
    lo("runtime.pool_s", "s"),
    lo("runtime.stage_wait_s", "s"),
    lo("runtime.commit_wait_s", "s"),
    hi("runtime.max_ready_depth", "count"),
    lo("runtime.imbalance", "ratio"),
    lo("runtime.cow_clones", "count"),
    lo("runtime.stage_busy_s", "s"),
    lo("runtime.compute_busy_s", "s"),
    lo("runtime.commit_busy_s", "s"),
    lo("runtime.overhead_us_per_task", "us"),
    lo("runtime.pool_vs_inline", "ratio"),
    hi("runtime.kernel_share", "ratio"),
    hi("core.reconcile_ratio", "ratio"),
    lo("service.start_s", "s"),
    lo("service.shutdown_s", "s"),
    lo("service.submit_us", "us"),
    lo("service.queue_wait_us", "us"),
    lo("service.internal_latency_us", "us"),
    lo("service.wake_us", "us"),
    lo("service.tasks_dispatched", "1/job"),
    hi("service.batches", "1/job"),
    hi("service.jobs_batched", "1/job"),
    hi("service.max_ready_depth", "count"),
    hi("service.max_jobs_in_flight", "count"),
    lo("service.class_p50_us.interactive", "us"),
    lo("service.class_p50_us.standard", "us"),
    lo("service.class_p50_us.bulk", "us"),
    hi("service.direct_jobs_per_s", "1/s"),
    hi("service.vs_direct_ratio", "ratio"),
    lo("service.overhead_us_per_job", "us"),
    lo("sched.plan_us", "us"),
    lo("sched.select_us", "us"),
    lo("sched.replan_us", "us"),
    lo("sim.fast_us", "us"),
    hi("sim.engine_tasks_per_s", "1/s"),
    lo("sched.makespan_us.n640", "us"),
    lo("sched.makespan_us.n1440", "us"),
    lo("sched.makespan_us.n2720", "us"),
    lo("sched.makespan_us.n3200", "us"),
    lo("sched.makespan_us.n16000", "us"),
    lo("sched.devices_used.n640", "count"),
    lo("sched.devices_used.n2720", "count"),
    lo("obs.trace_overhead_frac", "ratio"),
    lo("obs.spans", "count"),
    lo("obs.export_s", "s"),
    lo("host.clock_ns_per_step", "ns"),
    hi("host.fma_peak_gflops", "GFLOP/s"),
    hi("host.cores", "count"),
    hi("host.simd", "count"),
];

#[cfg(test)]
/// `true` when `s` fits the driver's grammar for a metric or workload
/// name: starts with a letter or digit, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// `true` when `s` fits the driver's grammar for a unit.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metrics one run measured, against one of the two tables.
pub struct Report {
    workload: &'static str,
    table: &'static [MetricDef],
    values: Vec<Option<(f64, usize)>>,
}

impl Report {
    pub fn new(workload: &'static str, table: &'static [MetricDef]) -> Self {
        Report {
            workload,
            table,
            values: vec![None; table.len()],
        }
    }

    /// Record `value`, taken from `n` samples. Panics on a name the
    /// table does not hold: that is a typo in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let i = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = Some((value, n));
    }

    /// A value recorded earlier in this run.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.table.iter().position(|m| m.name == name)?;
        self.values[i].map(|(v, _)| v)
    }

    /// Give every metric the workload did not touch the value 0.
    pub fn zero_untouched(&mut self) {
        for v in &mut self.values {
            v.get_or_insert((0.0, 0));
        }
    }

    /// Names of table metrics that are missing or not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(|(x, _)| x.is_finite()))
            .map(|(m, _)| m.name)
            .collect()
    }

    /// One `workload metric value unit n=<samples>` line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (m, v) in self.table.iter().zip(&self.values) {
            if let Some((value, n)) = v {
                let _ = write!(
                    out,
                    "{} {} {} {} n={}",
                    self.workload, m.name, value, m.unit, n
                );
                let _ = write!(out, " better={}", m.better.as_str());
                if let Some(bound) = m.bound {
                    let _ = write!(out, " bound={bound}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// The driver's result object, on one line.
    pub fn json(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        let mut first = true;
        for (m, v) in self.table.iter().zip(&self.values) {
            if let Some((value, _)) = v {
                if !std::mem::take(&mut first) {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                );
            }
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in [
            "op_ms",
            "kernels.geqrt_ns",
            "service.class_p50_us.bulk",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/y",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn every_table_entry_fits_the_grammar_and_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        tileqr::obs::chrome::validate(&json).expect("BENCHMARK.json parses");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
        }
    }

    #[test]
    fn missing_and_non_finite_metrics_are_named() {
        let mut r = Report::new("w", END_TO_END);
        r.set("op_ms", 1.5, 50);
        r.set("aux_ms", f64::NAN, 50);
        let missing = r.missing();
        assert!(!missing.contains(&"op_ms"));
        assert!(missing.contains(&"aux_ms") && missing.contains(&"setup_s"));
        assert!(r
            .lines()
            .starts_with("w op_ms 1.5 ms n=50 better=lower bound=0.25\n"));
        r.zero_untouched();
        assert_eq!(r.missing(), vec!["aux_ms"]);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::new("w", END_TO_END);
        r.set("op_ms", 1.25, 50);
        let line = r.json(7, 0);
        tileqr::obs::chrome::validate(&line).expect("result line parses");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"op_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(r.json(7, 1).starts_with("{\"correct\": false"));
    }
}
