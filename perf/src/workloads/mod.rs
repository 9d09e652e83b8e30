//! The five workloads and what they share.

pub mod hetero;
pub mod oneshot;
pub mod service;

use crate::clock::Clock;
use crate::report::Report;
use crate::spans::Spans;

/// What the driver passes to every run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Cores the process could use before it pinned itself to one.
    pub cores: usize,
}

/// Operations a run attempted and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

/// Times a run sets up; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Run `setup` [`SETUP_REPS`] times; return the last result and the
/// median seconds one set-up took, at the reference speed. Earlier results
/// are dropped before the next begins, so peak memory is that of one
/// set-up.
pub fn median_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut clock = Clock::start();
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (result, s) = clock.time(&mut setup);
        last = Some(result?);
        secs.push(s);
    }
    Ok((
        last.expect("SETUP_REPS > 0"),
        crate::stats::median(&mut secs),
    ))
}

/// The end-to-end metrics of one untraced run, from its samples in
/// seconds at the reference speed. `op_s` and `aux_s` are sorted in place.
pub struct EndToEnd<'a> {
    pub op_s: &'a mut [f64],
    /// Percentile of `op_s` reported as the tail.
    pub tail: f64,
    pub aux_s: &'a mut [f64],
    pub ops_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd<'_> {
    pub fn report(self, out: &mut Report) {
        let n = self.op_s.len();
        out.set("op_ms", crate::stats::median(self.op_s) * 1e3, n);
        out.set(
            "op_tail_ms",
            crate::stats::quantile(self.op_s, self.tail) * 1e3,
            n,
        );
        out.set(
            "aux_ms",
            crate::stats::median(self.aux_s) * 1e3,
            self.aux_s.len(),
        );
        out.set("ops_per_s", self.ops_per_s, n);
        out.set("peak_rss_mb", self.peak_rss_mb, 1);
        out.set("setup_s", self.setup_s, SETUP_REPS);
    }
}

/// Median seconds of `reps` calls of `f`, at the reference speed.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut clock = Clock::start();
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        secs.push(clock.time(&mut f).1);
    }
    crate::stats::median(&mut secs)
}

/// Where traced runs leave their files: `perf/target/trace/`.
pub fn trace_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/trace")
}

/// Write the run's spans as `<workload>.trace.json` (Chrome
/// `trace_event` form, checked with `obs::chrome::validate` first), and
/// print total and self time per span name to stderr.
pub fn write_trace(workload: &str, spans: &Spans) -> Result<(), String> {
    eprintln!("# {workload}: span, count, total ms, self ms");
    for (name, t) in spans.totals() {
        let ms = |ns: u64| ns as f64 * 1e-6;
        eprintln!(
            "# {name} {} {:.3} {:.3}",
            t.count,
            ms(t.total_ns),
            ms(t.self_ns)
        );
    }
    let json = spans.chrome_json();
    tileqr::obs::chrome::validate(&json).map_err(|e| format!("trace export is not JSON: {e}"))?;
    write_file(&format!("{workload}.trace.json"), &json)
}

/// Write one file under [`trace_dir`].
pub fn write_file(name: &str, contents: &str) -> Result<(), String> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
}
