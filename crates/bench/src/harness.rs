//! Minimal timing harness for the one `cargo bench` target left,
//! `tree_geometry` (speed claims live in `perf/`, not here).
//!
//! The container has no external benchmarking framework, so the target is
//! a plain `fn main()` that calls [`bench`] and prints one formatted row per
//! case: median / min over a fixed number of timed runs after a warmup.

use std::time::Instant;

/// Timing summary of one benchmark case, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest run.
    pub min: f64,
    /// Median run (the headline number).
    pub median: f64,
    /// Mean over all timed runs.
    pub mean: f64,
    /// Number of timed runs.
    pub samples: usize,
}

/// Time `f` for `samples` runs (after one untimed warmup) and return the
/// summary.
pub fn measure<F: FnMut()>(samples: usize, mut f: F) -> Stats {
    let samples = samples.max(1);
    f(); // warmup
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    Stats {
        min: times[0],
        median: times[times.len() / 2],
        mean: times.iter().sum::<f64>() / times.len() as f64,
        samples,
    }
}

/// Run and print one benchmark case: `group/case  median  min`.
pub fn bench<F: FnMut()>(group: &str, case: &str, samples: usize, f: F) -> Stats {
    let stats = measure(samples, f);
    println!(
        "{:<40} {:>12} {:>12}",
        format!("{group}/{case}"),
        format_secs(stats.median),
        format_secs(stats.min),
    );
    stats
}

/// Print the column header matching [`bench`]'s rows.
pub fn header(title: &str) {
    println!("\n== {title} ==");
    println!("{:<40} {:>12} {:>12}", "case", "median", "min");
}

/// Host-parallelism guard of the bench artifact writer: the
/// detected core count plus, on single-core hosts, the standard warning
/// that parallelism-sensitive numbers are not meaningful there.
#[derive(Debug, Clone)]
pub struct CoresGuard {
    /// Detected hardware parallelism (1 when detection fails).
    pub cores: usize,
    /// The single-core warning, `None` on multi-core hosts.
    pub warning: Option<String>,
}

/// Detect host parallelism and build the single-core guard for the
/// given subject (e.g. `"worker-scaling and speedup-vs-baseline
/// numbers"`). When it applies, the warning is printed to stdout so it
/// shows in bench logs as well as in the JSON artifact.
pub fn cores_guard(subject: &str) -> CoresGuard {
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    let warning = (cores == 1)
        .then(|| format!("host has a single core: {subject} are not meaningful at cores == 1"));
    if let Some(w) = &warning {
        println!("WARNING: {w}");
    }
    CoresGuard { cores, warning }
}

impl CoresGuard {
    /// The shared `"cores"` and (single-core only) `"warning"` JSON
    /// keys, each line trailing-comma'd and prefixed with `indent` —
    /// callers splice this ahead of their remaining keys.
    pub fn json_fields(&self, indent: &str) -> String {
        let mut s = format!("{indent}\"cores\": {},\n", self.cores);
        if let Some(w) = &self.warning {
            s.push_str(&format!("{indent}\"warning\": \"{w}\",\n"));
        }
        s
    }

    /// Render a parallelism-sensitive headline value for JSON: the
    /// number (4 decimal places) on multi-core hosts, the literal
    /// `null` on single-core hosts where the measurement is
    /// meaningless — so artifact consumers never mistake a degenerate
    /// 1-core "speedup" for a real one.
    pub fn gate_f64(&self, v: f64) -> String {
        if self.cores == 1 || !v.is_finite() {
            "null".to_string()
        } else {
            format!("{v:.4}")
        }
    }
}

/// Human-readable seconds with an adaptive unit.
pub fn format_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ordered_stats() {
        let mut x = 0u64;
        let s = measure(5, || {
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
        });
        assert_eq!(s.samples, 5);
        assert!(s.min <= s.median);
        assert!(s.min > 0.0);
    }

    #[test]
    fn cores_guard_warns_only_on_single_core() {
        let g = CoresGuard {
            cores: 1,
            warning: Some("host has a single core: X are not meaningful at cores == 1".into()),
        };
        let fields = g.json_fields("  ");
        assert!(fields.contains("\"cores\": 1,"));
        assert!(fields.contains("\"warning\": \"host has a single core"));
        let multi = cores_guard("X");
        assert_eq!(multi.warning.is_some(), multi.cores == 1);
        assert!(multi.json_fields("").starts_with("\"cores\": "));
    }

    #[test]
    fn gate_nulls_headline_on_single_core() {
        let single = CoresGuard {
            cores: 1,
            warning: Some("w".into()),
        };
        assert_eq!(single.gate_f64(3.5), "null");
        let multi = CoresGuard {
            cores: 8,
            warning: None,
        };
        assert_eq!(multi.gate_f64(3.5), "3.5000");
        assert_eq!(multi.gate_f64(f64::NAN), "null");
    }

    #[test]
    fn formats_adapt_units() {
        assert!(format_secs(2.5).ends_with(" s"));
        assert!(format_secs(2.5e-3).ends_with(" ms"));
        assert!(format_secs(2.5e-6).ends_with(" µs"));
    }
}
