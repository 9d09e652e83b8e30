//! `square_coarse`, `square_fine`, `tall_skinny`: one `TiledQr::factor`
//! call after another on one fixed shape, each followed by a `solve`.

use super::{median_secs, median_setup, write_trace, EndToEnd, Outcome, RunArgs};
use crate::check::{apply_qt_padded, check_factor, check_solve, reference_r};
use crate::clock::Clock;
use crate::host::WORKERS;
use crate::layers::{
    flop_weight, graph_stats, kernel_flops, kind_counts, report_host, report_kernels, time_kernels,
};
use crate::report::Report;
use crate::spans::{SpanId, Spans};
use crate::stats::{median, min_samples_for_tail};
use std::time::Instant;
use tileqr::dag::{bottom_levels, TaskGraph};
use tileqr::gen::{random_matrix, random_vector};
use tileqr::kernels::FactorState;
use tileqr::obs::{Phase, TraceConfig};
use tileqr::ops::solve_upper_triangular;
use tileqr::runtime::{parallel_factor_traced, PoolConfig, RunReport};
use tileqr::{Matrix, QrOptions, TiledMatrix, TiledQr, TreePolicy};

/// One fixed-shape factor-then-solve workload.
pub struct OneShot {
    pub name: &'static str,
    rows: usize,
    cols: usize,
    tile: usize,
    tree: TreePolicy,
}

/// 16×16 grid of 64×64 tiles, 1 496 tasks of about 100 µs: kernel time
/// dominates.
pub const SQUARE_COARSE: OneShot = OneShot {
    name: "square_coarse",
    rows: 1024,
    cols: 1024,
    tile: 64,
    tree: TreePolicy::Fixed(tileqr::EliminationTree::Flat),
};

/// 32×32 grid at the paper's b = 16, 11 440 tasks of a few µs: per-task
/// runtime overhead dominates.
pub const SQUARE_FINE: OneShot = OneShot {
    name: "square_fine",
    rows: 512,
    cols: 512,
    tile: 16,
    tree: TreePolicy::Fixed(tileqr::EliminationTree::Flat),
};

/// 256×2 grid: `TreePolicy::Auto` takes the TSQR fast path (TT kernels).
pub const TALL_SKINNY: OneShot = OneShot {
    name: "tall_skinny",
    rows: 16384,
    cols: 128,
    tile: 64,
    tree: TreePolicy::Auto,
};

/// Tail percentile of the factor time; the timed loop runs until ten
/// samples lie beyond it.
const TAIL: f64 = 0.8;

/// Fewest rounds of the traced pass.
const MIN_ROUNDS: usize = 10;

struct Inputs {
    a: Matrix<f64>,
    rhs: Vec<f64>,
}

fn e(err: tileqr::MatrixError) -> String {
    err.to_string()
}

impl OneShot {
    fn options(&self) -> QrOptions {
        QrOptions::new()
            .tile_size(self.tile)
            .workers(WORKERS)
            .tree(self.tree)
    }

    /// Generate the inputs from `seed` and run the call once, so that the
    /// allocator and the page cache are warm before timing starts.
    fn setup(&self, seed: u64) -> Result<Inputs, String> {
        let a = random_matrix::<f64>(self.rows, self.cols, seed);
        let rhs = random_vector::<f64>(self.rows, seed ^ 0x5eed);
        let f = TiledQr::factor(&a, &self.options()).map_err(e)?;
        f.solve(&rhs).map_err(e)?;
        Ok(Inputs { a, rhs })
    }

    /// Check the factorization `f` of `a` and its solution `x`.
    fn check(&self, inp: &Inputs, f: &TiledQr<f64>, x: &[f64]) -> Result<(), String> {
        let reference = reference_r(&inp.a, self.tile, self.tree)?;
        let qta = apply_qt_padded(f.state(), f.graph(), &inp.a)?;
        check_factor(&inp.a, &f.r(), &reference, &qta)?;
        check_solve(&inp.a, x, &inp.rhs)
    }

    /// The untraced pass: end-to-end metrics.
    pub fn run(&self, args: RunArgs, out: &mut Report) -> Result<Outcome, String> {
        let (inp, setup_s) = median_setup(|| self.setup(args.seed))?;
        let opts = self.options();
        let min_samples = min_samples_for_tail(TAIL);
        let (mut factor_s, mut solve_s) = (Vec::new(), Vec::new());
        let mut wall = 0.0;
        let mut outcome = Outcome::default();
        let mut last = None;
        let mut clock = Clock::start();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < args.seconds || factor_s.len() < min_samples {
            outcome.attempted += 1;
            let t0 = Instant::now();
            let sample = (|| {
                let f = TiledQr::factor(&inp.a, &opts)?;
                let factor = t0.elapsed();
                let x = f.solve(&inp.rhs)?;
                Ok::<_, tileqr::MatrixError>((f, x, factor, t0.elapsed() - factor))
            })();
            match sample {
                Ok((f, x, factor, solve)) => {
                    // Dropping the previous factorization is part of the
                    // loop a user would write, so it counts for throughput.
                    last = Some((f, x));
                    let whole = t0.elapsed().as_secs_f64();
                    let scale = clock.lap().scale();
                    factor_s.push(factor.as_secs_f64() * scale);
                    solve_s.push(solve.as_secs_f64() * scale);
                    wall += whole * scale;
                }
                Err(err) => {
                    eprintln!("{}: sample {} failed: {err}", self.name, outcome.attempted);
                    outcome.failed += 1;
                    if outcome.failed > 10 {
                        return Err(format!("giving up after {} failed calls", outcome.failed));
                    }
                }
            }
        }
        // Read before the checks below allocate their own copies.
        let peak_rss_mb = crate::host::peak_rss_mb()?;

        // Timing has stopped: check the last sample's outputs.
        let (f, x) = last.ok_or("no sample succeeded")?;
        if let Err(why) = self.check(&inp, &f, &x) {
            eprintln!("{}: output check failed: {why}", self.name);
            outcome.failed += 1;
        }

        EndToEnd {
            ops_per_s: factor_s.len() as f64 / wall,
            op_s: &mut factor_s,
            tail: TAIL,
            aux_s: &mut solve_s,
            setup_s,
            peak_rss_mb,
        }
        .report(out);
        Ok(outcome)
    }

    /// Host, kernels in isolation, exact graph counts and priorities.
    /// Returns the tiles and graph every sample builds.
    fn measure_below_the_pool(
        &self,
        inp: &Inputs,
        args: RunArgs,
        out: &mut Report,
    ) -> Result<(TiledMatrix<f64>, TaskGraph), String> {
        let b = self.tile;
        let peak = report_host(out, args.cores);
        let kernel_s = time_kernels(b, args.seed, 0.6)?;
        report_kernels(out, b, &kernel_s, peak);

        // The graph every sample builds: exact counts, and the priorities
        // a critical-path dispatch would compute over it.
        let tiled = TiledMatrix::from_matrix(&inp.a, b).map_err(e)?;
        let (mt, nt) = (tiled.tile_rows(), tiled.tile_cols());
        let (pm, pn) = tiled.padded_dims();
        let graph = TaskGraph::build_tree(mt, nt, self.tree.resolve(mt, nt));
        let gs = graph_stats(&graph);
        let counts = kind_counts(&graph);
        let tile_bytes = pm * pn * std::mem::size_of::<f64>();
        out.set("matrix.tile_bytes", tile_bytes as f64, 1);
        out.set("dag.tasks", gs.tasks as f64, 1);
        out.set("dag.edges", gs.edges as f64, 1);
        out.set("dag.critical_path_tasks", gs.critical_path_tasks as f64, 1);
        let flops: u64 = counts.iter().zip(kernel_flops(b)).map(|(c, f)| c * f).sum();
        let model_s: f64 = counts
            .iter()
            .zip(kernel_s)
            .map(|(&c, s)| c as f64 * s)
            .sum();
        out.set("kernels.flops", flops as f64, 1);
        out.set("kernels.model_s", model_s, 1);
        let priorities_s = median_secs(5, || {
            std::hint::black_box(bottom_levels(&graph, flop_weight(b)));
        });
        out.set("dag.priorities_s", priorities_s, 5);

        Ok((tiled, graph))
    }

    /// What `TiledQr::factor_traced` does, by hand, with one span round
    /// each call into a layer.
    fn replay_factor(
        &self,
        inp: &Inputs,
        spans: &mut Spans,
        op: u64,
        pool_tracing: bool,
    ) -> Result<Replay, String> {
        let factor_span = spans.open("core.factor", op);
        let id = spans.open("matrix.tile", op);
        let tiled = TiledMatrix::from_matrix(&inp.a, self.tile).map_err(e)?;
        let tile_s = spans.close(id);
        let id = spans.open("dag.build", op);
        let (mt, nt) = (tiled.tile_rows(), tiled.tile_cols());
        let graph = TaskGraph::build_tree(mt, nt, self.tree.resolve(mt, nt));
        let build_s = spans.close(id);
        let id = spans.open("kernels.state_new", op);
        let state = FactorState::new(tiled);
        spans.close(id);
        let pool_span = spans.open("runtime.pool", op);
        let (state, report) =
            parallel_factor_traced(state, &graph, pool_config(WORKERS, pool_tracing)).map_err(e)?;
        let pool_s = spans.close(pool_span);
        spans.close(factor_span);
        Ok(Replay {
            tile_s,
            build_s,
            pool_s,
            pool_span,
            state,
            graph,
            report,
        })
    }

    /// What `TiledQr::solve` does, by hand; returns the solution, `R` and
    /// the seconds `FactorState::r_matrix` took.
    fn replay_solve(
        &self,
        inp: &Inputs,
        spans: &mut Spans,
        op: u64,
        done: &Replay,
    ) -> Result<(Vec<f64>, Matrix<f64>, f64), String> {
        let solve_span = spans.open("core.solve", op);
        let id = spans.open("kernels.apply_qt", op);
        let rhs = Matrix::from_col_major(self.rows, 1, inp.rhs.clone()).map_err(e)?;
        let qtb = apply_qt_padded(&done.state, &done.graph, &rhs)?;
        spans.close(id);
        let id = spans.open("matrix.untile", op);
        let r = done.state.r_matrix();
        let untile_s = spans.close(id);
        let id = spans.open("matrix.trsv", op);
        let r_sq = r.submatrix(0, 0, self.cols, self.cols).map_err(e)?;
        let x = solve_upper_triangular(&r_sq, &qtb.as_slice()[..self.cols]).map_err(e)?;
        spans.close(id);
        spans.close(solve_span);
        Ok((x, r, untile_s))
    }

    /// The traced pass: per-layer metrics, and the Chrome trace of the
    /// last replayed sample.
    ///
    /// Each round times the public call untraced, then replays it by hand
    /// twice: once with only the benchmark's spans (the layer split that
    /// must add up to the public call), once with the pool's own
    /// `TraceConfig` on as well (the pool's stage/compute/commit spans,
    /// and what recording them costs); then the plain single-threaded
    /// `run_all` and the pool's inline one-worker path on the same tiles
    /// and graph. The five sit next to each other so that their medians
    /// saw the same machine.
    pub fn run_traced(&self, args: RunArgs, out: &mut Report) -> Result<Outcome, String> {
        let started = Instant::now();
        let inp = self.setup(args.seed)?;
        let (tiled, graph) = self.measure_below_the_pool(&inp, args, out)?;

        let opts = self.options();
        let mut outcome = Outcome::default();
        let mut clock = Clock::start();
        let mut spans = Spans::new();
        let mut s = Samples::default();
        let mut last = None;
        while started.elapsed().as_secs_f64() < args.seconds || s.untraced.len() < MIN_ROUNDS {
            outcome.attempted += 1;
            let op = 2 * s.untraced.len() as u64;
            let (f, untraced_s) = clock.time(|| TiledQr::factor(&inp.a, &opts));
            s.untraced.push(untraced_s);
            drop(f.map_err(e)?);

            let plain = self.replay_factor(&inp, &mut spans, op, false)?;
            let scale = clock.lap().scale();
            s.tile.push(plain.tile_s * scale);
            s.build.push(plain.build_s * scale);
            s.pool.push(plain.pool_s * scale);
            s.stage_wait
                .push(plain.report.stage_wait.as_secs_f64() * scale);
            s.commit_wait
                .push(plain.report.commit_wait.as_secs_f64() * scale);
            s.imbalance.push(plain.report.imbalance());
            s.max_ready_depth = s.max_ready_depth.max(plain.report.max_ready_depth);
            s.cow_clones += plain.report.cow_clones();
            drop(plain);

            let traced = self.replay_factor(&inp, &mut spans, op + 1, true)?;
            let scale = clock.lap().scale();
            s.traced_pool.push(traced.pool_s * scale);
            let trace = traced
                .report
                .trace
                .as_ref()
                .ok_or("the pool returned no trace")?;
            let busy = |phase| -> f64 {
                trace
                    .phase_spans(phase)
                    .map(|sp| sp.duration_us())
                    .sum::<f64>()
                    * 1e-6
                    * scale
            };
            s.stage_busy.push(busy(Phase::Stage));
            s.compute_busy.push(busy(Phase::Compute));
            s.commit_busy.push(busy(Phase::Commit));
            let (x, r, untile_s) = self.replay_solve(&inp, &mut spans, op + 1, &traced)?;
            s.untile.push(untile_s * clock.lap().scale());
            last = Some((traced, x, r));

            let mut state = FactorState::new(tiled.clone());
            let (ran, seq_s) = clock.time(|| state.run_all(&graph));
            ran.map_err(e)?;
            s.seq.push(seq_s);
            let state = FactorState::new(tiled.clone());
            let inline = || parallel_factor_traced(state, &graph, pool_config(1, false));
            let (ran, inline_s) = clock.time(inline);
            ran.map_err(e)?;
            s.inline.push(inline_s);
        }
        let n = s.untraced.len();
        let (traced, x, r) = last.expect("MIN_ROUNDS > 0");

        // The replay must produce what the public call produces.
        let reference = reference_r(&inp.a, self.tile, self.tree)?;
        if !crate::check::bit_identical(&r, &reference) {
            eprintln!(
                "{}: replayed R differs from FactorState::run_all",
                self.name
            );
            outcome.failed += 1;
        }
        if let Err(why) = check_solve(&inp.a, &x, &inp.rhs) {
            eprintln!("{}: replayed solve: {why}", self.name);
            outcome.failed += 1;
        }

        // The last round's pool trace goes under its `runtime.pool` span,
        // one lane per worker, so both land in one file.
        let trace = traced.report.trace.expect("checked in the loop");
        let (_, export_s) = clock.time(|| tileqr::obs::chrome::export(&trace));
        out.set("obs.export_s", export_s, 1);
        let pool_span = traced.pool_span;
        let (base_ns, op) = (spans.get(pool_span).start_ns, spans.get(pool_span).op_id);
        for (lane, name) in trace.lanes.iter().enumerate() {
            spans.name_lane(lane as u32 + 1, name);
        }
        for sp in &trace.spans {
            let name = match sp.phase {
                Phase::Stage => "runtime.stage",
                Phase::Compute => "runtime.compute",
                Phase::Commit => "runtime.commit",
            };
            let at = |us: f64| base_ns + (us * 1e3) as u64;
            let lane = sp.lane as u32 + 1;
            spans.record(
                name,
                at(sp.start_us),
                at(sp.end_us),
                Some(pool_span),
                op,
                lane,
            );
        }
        write_trace(self.name, &spans)?;

        // Ratios are taken round by round, between neighbours in time, and
        // then their median: the host's speed drifts more between rounds
        // than within one.
        let per_round = |f: &dyn Fn(usize) -> f64| median(&mut (0..n).map(f).collect::<Vec<_>>());
        let reconcile = per_round(&|i| (s.tile[i] + s.build[i] + s.pool[i]) / s.untraced[i]);
        let overhead_s = per_round(&|i| s.pool[i] - s.seq[i]);
        let pool_vs_inline = per_round(&|i| s.pool[i] / s.inline[i]);
        let kernel_share = per_round(&|i| s.seq[i] / s.untraced[i]);
        let trace_overhead = per_round(&|i| s.traced_pool[i] / s.pool[i] - 1.0);
        out.set("kernels.seq_s", median(&mut s.seq), n);
        out.set("matrix.tile_s", median(&mut s.tile), n);
        out.set("matrix.untile_s", median(&mut s.untile), n);
        out.set("dag.build_s", median(&mut s.build), n);
        out.set("runtime.pool_s", median(&mut s.pool), n);
        out.set("runtime.stage_wait_s", median(&mut s.stage_wait), n);
        out.set("runtime.commit_wait_s", median(&mut s.commit_wait), n);
        out.set("runtime.max_ready_depth", s.max_ready_depth as f64, n);
        out.set("runtime.imbalance", median(&mut s.imbalance), n);
        out.set("runtime.cow_clones", s.cow_clones as f64, n);
        out.set("runtime.stage_busy_s", median(&mut s.stage_busy), n);
        out.set("runtime.compute_busy_s", median(&mut s.compute_busy), n);
        out.set("runtime.commit_busy_s", median(&mut s.commit_busy), n);
        // One CPU runs everything, so whatever the pool takes beyond the
        // sequential executor is overhead.
        let per_task_us = overhead_s / graph.len() as f64 * 1e6;
        out.set("runtime.overhead_us_per_task", per_task_us, n);
        out.set("runtime.pool_vs_inline", pool_vs_inline, n);
        out.set("runtime.kernel_share", kernel_share, n);
        if !(0.95..=1.05).contains(&reconcile) {
            eprintln!(
                "{}: warning: core.reconcile_ratio {reconcile:.3} is outside 0.95-1.05; \
                 the layer split does not add up to the public call",
                self.name
            );
        }
        out.set("core.reconcile_ratio", reconcile, n);
        out.set("obs.trace_overhead_frac", trace_overhead, n);
        out.set("obs.spans", spans.len() as f64, 1);
        out.set("host.clock_ns_per_step", clock.median_ns_per_step(), n);
        Ok(outcome)
    }
}

fn pool_config(workers: usize, tracing: bool) -> PoolConfig {
    PoolConfig {
        workers,
        trace: if tracing {
            TraceConfig::enabled()
        } else {
            TraceConfig::default()
        },
        ..PoolConfig::default()
    }
}

/// One hand replay of the factor call; seconds are raw wall time.
struct Replay {
    tile_s: f64,
    build_s: f64,
    pool_s: f64,
    pool_span: SpanId,
    state: FactorState<f64>,
    graph: TaskGraph,
    report: RunReport,
}

/// Per-round measurements of the traced pass, at the reference speed.
#[derive(Default)]
struct Samples {
    untraced: Vec<f64>,
    seq: Vec<f64>,
    inline: Vec<f64>,
    tile: Vec<f64>,
    build: Vec<f64>,
    pool: Vec<f64>,
    traced_pool: Vec<f64>,
    untile: Vec<f64>,
    stage_wait: Vec<f64>,
    commit_wait: Vec<f64>,
    stage_busy: Vec<f64>,
    compute_busy: Vec<f64>,
    commit_busy: Vec<f64>,
    imbalance: Vec<f64>,
    max_ready_depth: usize,
    cow_clones: u64,
}
