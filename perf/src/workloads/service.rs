//! `service_small`: a stream of small jobs through one resident
//! `QrService`, the path real traffic takes.
//!
//! Closed loop: one client thread keeps [`OUTSTANDING`] jobs in flight
//! (`submit` → `JobHandle::wait`, oldest first), because callers block on
//! their reply. The stream is made of blocks of [`BLOCK`] jobs. Every
//! block holds each of the ten shapes in the same mix of kinds (7 factor,
//! 2 solve, 1 `apply_qt`) and the same 20/60/20 mix of priority classes;
//! the seed draws the matrices and shuffles order and classes inside a
//! block. The work per block is therefore the same for every seed, so
//! throughput can be compared across seeds.

use super::{median_setup, write_trace, EndToEnd, Outcome, RunArgs};
use crate::check::{
    apply_qt_padded, check_factor, check_solve, exceeds, reference_r, relative_difference,
    tolerance,
};
use crate::clock::{Clock, Lap};
use crate::host::WORKERS;
use crate::layers::{
    flop_weight, graph_stats, kernel_flops, kind_counts, report_host, report_kernels, time_kernels,
};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, min_samples_for_tail};
use std::collections::VecDeque;
use std::time::Instant;
use tileqr::dag::{bottom_levels, TaskGraph};
use tileqr::gen::{random_matrix, random_vector};
use tileqr::kernels::FactorState;
use tileqr::runtime::{JobHandle, JobOutput, JobSpec, PriorityClass, QrService, ServiceConfig};
use tileqr::{Matrix, QrOptions, Rng64, TiledMatrix, TiledQr, TreePolicy};

pub const NAME: &str = "service_small";

const SHAPES: [(usize, usize); 10] = [
    (16, 16),
    (32, 16),
    (32, 32),
    (48, 48),
    (64, 64),
    (96, 64),
    (128, 128),
    (192, 64),
    (160, 160),
    (256, 128),
];
/// Kinds per shape in one block: 7 factor, 2 solve, 1 `apply_qt`.
const KINDS_PER_SHAPE: usize = 10;
const BLOCK: usize = SHAPES.len() * KINDS_PER_SHAPE;
const TILE: usize = 16;
const APPLY_COLS: usize = 4;
const OUTSTANDING: usize = 4;
const WARMUP_BLOCKS: usize = 2;
/// Every n-th job's output is kept and checked after timing, up to
/// [`MAX_KEPT`] of them, so that memory does not grow with the run.
const CHECK_EVERY: usize = 50;
const MAX_KEPT: usize = 40;
/// Tail percentile of the job latency.
const TAIL: f64 = 0.99;

enum Payload {
    Factor,
    Solve(Vec<f64>),
    ApplyQt(Matrix<f64>),
}

struct JobInput {
    a: Matrix<f64>,
    payload: Payload,
}

impl JobInput {
    fn spec(&self, class: PriorityClass) -> JobSpec<f64> {
        let a = self.a.clone();
        let spec = match &self.payload {
            Payload::Factor => JobSpec::factor(a),
            Payload::Solve(rhs) => JobSpec::solve(a, rhs.clone()),
            Payload::ApplyQt(c) => JobSpec::apply_qt(a, c.clone()),
        };
        spec.tile_size(TILE).priority(class)
    }

    fn has_epilogue(&self) -> bool {
        !matches!(self.payload, Payload::Factor)
    }
}

/// The block's [`BLOCK`] inputs, generated from `seed`.
fn generate(seed: u64) -> Vec<JobInput> {
    let mut jobs = Vec::with_capacity(BLOCK);
    for (s, &(rows, cols)) in SHAPES.iter().enumerate() {
        for k in 0..KINDS_PER_SHAPE {
            let job_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((s * KINDS_PER_SHAPE + k) as u64);
            let payload = match k {
                0..=6 => Payload::Factor,
                7..=8 => Payload::Solve(random_vector::<f64>(rows, job_seed ^ 1)),
                _ => Payload::ApplyQt(random_matrix::<f64>(rows, APPLY_COLS, job_seed ^ 2)),
            };
            jobs.push(JobInput {
                a: random_matrix::<f64>(rows, cols, job_seed),
                payload,
            });
        }
    }
    jobs
}

fn shuffle<T>(rng: &mut Rng64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_i64(0, i as i64) as usize);
    }
}

/// One block's submission order and class per job: 20 % interactive,
/// 60 % standard, 20 % bulk.
fn block_plan(rng: &mut Rng64) -> Vec<(usize, PriorityClass)> {
    let mut order: Vec<usize> = (0..BLOCK).collect();
    let mut classes: Vec<PriorityClass> = (0..BLOCK)
        .map(|i| match i * 5 / BLOCK {
            0 => PriorityClass::Interactive,
            1..=3 => PriorityClass::Standard,
            _ => PriorityClass::Bulk,
        })
        .collect();
    shuffle(rng, &mut order);
    shuffle(rng, &mut classes);
    order.into_iter().zip(classes).collect()
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

/// One completed job as the client saw it.
struct JobRecord {
    input: usize,
    class: PriorityClass,
    /// Whether the client recorded spans for this job.
    traced: bool,
    /// The lap of the drive's clock in which the job completed.
    lap: usize,
    /// Just before `submit` to `wait` returning, on the client's clock.
    client_s: f64,
    submit_s: f64,
    /// `JobResult::queue_wait` and `JobResult::latency`.
    queue_wait_s: f64,
    internal_s: f64,
}

struct Pending {
    seq: usize,
    input: usize,
    class: PriorityClass,
    traced: bool,
    submit_start: Instant,
    submit_end: Instant,
    handle: JobHandle<f64>,
}

/// What one drive of the closed loop produced. Stored times are raw; the
/// host's speed is probed after every block, and the accessors scale each
/// job by the lap it completed in.
#[derive(Default)]
struct Driven {
    records: Vec<JobRecord>,
    kept: Vec<(usize, JobOutput<f64>)>,
    failed: u64,
    laps: Vec<Lap>,
    /// Raw wall seconds of each lap.
    lap_wall_s: Vec<f64>,
}

impl Driven {
    fn attempted(&self) -> u64 {
        self.records.len() as u64 + self.failed
    }

    /// `field` of the jobs `keep` selects, at the reference speed.
    fn at_reference(
        &self,
        keep: impl Fn(&JobRecord) -> bool,
        field: impl Fn(&JobRecord) -> f64,
    ) -> Vec<f64> {
        let kept = self.records.iter().filter(|r| keep(r));
        kept.map(|r| field(r) * self.laps[r.lap].scale()).collect()
    }

    fn latencies_s(&self, keep: impl Fn(&JobRecord) -> bool) -> Vec<f64> {
        self.at_reference(keep, |r| r.client_s)
    }

    /// Jobs per second at the reference speed, first submit to last wait.
    fn jobs_per_s(&self) -> f64 {
        let walls = self.lap_wall_s.iter().zip(&self.laps);
        self.records.len() as f64 / walls.map(|(s, lap)| s * lap.scale()).sum::<f64>()
    }

    /// End the current lap, which began at `lap_start`.
    fn close_lap(&mut self, clock: &mut Clock, lap_start: &mut Instant) {
        self.lap_wall_s.push(lap_start.elapsed().as_secs_f64());
        self.laps.push(clock.lap());
        *lap_start = Instant::now();
    }

    fn finish(&mut self, p: Pending, spans: &mut Option<&mut Spans>) {
        let wait_start = Instant::now();
        let result = p.handle.wait();
        let end = Instant::now();
        if let Some(spans) = spans.as_mut().filter(|_| p.traced) {
            let lane = (p.seq % OUTSTANDING) as u32 + 1;
            let op = p.seq as u64;
            let (t0, t1) = (spans.at(p.submit_start), spans.at(p.submit_end));
            let (t2, t3) = (spans.at(wait_start), spans.at(end));
            let job = spans.record("service.job", t0, t3, None, op, lane);
            spans.record("service.submit", t0, t1, Some(job), op, lane);
            spans.record("service.wait", t2, t3, Some(job), op, lane);
        }
        match result {
            Ok(result) => {
                self.records.push(JobRecord {
                    input: p.input,
                    class: p.class,
                    traced: p.traced,
                    lap: self.laps.len(),
                    client_s: (end - p.submit_start).as_secs_f64(),
                    submit_s: (p.submit_end - p.submit_start).as_secs_f64(),
                    queue_wait_s: result.queue_wait.as_secs_f64(),
                    internal_s: result.latency.as_secs_f64(),
                });
                if p.seq.is_multiple_of(CHECK_EVERY) && self.kept.len() < MAX_KEPT {
                    self.kept.push((p.input, result.output));
                }
            }
            Err(err) => {
                eprintln!("{NAME}: job {} failed: {err}", p.seq);
                self.failed += 1;
            }
        }
    }
}

/// Drive whole blocks through `service` while `more(blocks so far, seconds
/// so far)` holds, then drain the window. With `spans`, the
/// client records them for every other block, so that traced and
/// untraced jobs of one drive can be compared.
fn drive(
    service: &QrService<f64>,
    inputs: &[JobInput],
    rng: &mut Rng64,
    mut more: impl FnMut(usize, f64) -> bool,
    mut spans: Option<&mut Spans>,
) -> Driven {
    let mut d = Driven::default();
    let mut window: VecDeque<Pending> = VecDeque::with_capacity(OUTSTANDING);
    let mut seq = 0;
    let mut clock = Clock::start();
    let started = Instant::now();
    let mut lap_start = started;
    while more(d.laps.len(), started.elapsed().as_secs_f64()) {
        let traced = spans.is_some() && (seq / BLOCK).is_multiple_of(2);
        for (input, class) in block_plan(rng) {
            if window.len() == OUTSTANDING {
                let oldest = window.pop_front().expect("window is full");
                d.finish(oldest, &mut spans);
            }
            let spec = inputs[input].spec(class);
            let submit_start = Instant::now();
            match service.submit(spec) {
                Ok(handle) => window.push_back(Pending {
                    seq,
                    input,
                    class,
                    traced,
                    submit_start,
                    submit_end: Instant::now(),
                    handle,
                }),
                Err(err) => {
                    eprintln!("{NAME}: submit {seq} failed: {err}");
                    d.failed += 1;
                }
            }
            seq += 1;
        }
        d.close_lap(&mut clock, &mut lap_start);
    }
    while let Some(p) = window.pop_front() {
        d.finish(p, &mut spans);
    }
    d.close_lap(&mut clock, &mut lap_start);
    d
}

struct Inputs {
    jobs: Vec<JobInput>,
    rng: Rng64,
    service: QrService<f64>,
}

/// Generate the inputs, start the service and push the warm-up blocks
/// through it.
fn setup(seed: u64) -> Result<Inputs, String> {
    let jobs = generate(seed);
    let mut rng = Rng64::seed_from_u64(seed);
    let service = QrService::start(service_config());
    let warm = drive(
        &service,
        &jobs,
        &mut rng,
        |blocks, _| blocks < WARMUP_BLOCKS,
        None,
    );
    if warm.failed > 0 {
        return Err(format!("{} warm-up jobs failed", warm.failed));
    }
    Ok(Inputs { jobs, rng, service })
}

/// Check one kept job output against its input.
fn check_job(input: &JobInput, output: &JobOutput<f64>) -> Result<(), String> {
    let f = output.factor();
    let reference = reference_r(&input.a, TILE, TreePolicy::default())?;
    let qta = apply_qt_padded(&f.state, &f.graph, &input.a)?;
    check_factor(&input.a, &f.r_matrix(), &reference, &qta)?;
    match (&input.payload, output) {
        (Payload::Factor, JobOutput::Factored(_)) => Ok(()),
        (Payload::Solve(rhs), JobOutput::Solved { x, .. }) => check_solve(&input.a, x, rhs),
        (Payload::ApplyQt(c), JobOutput::Applied { c: got, .. }) => {
            let want = apply_qt_padded(&f.state, &f.graph, c)?;
            let err = relative_difference(got, &want, c)?;
            if exceeds(err, tolerance(c.rows())) {
                return Err(format!(
                    "apply_qt differs from the factor's own Qᵀ by {err:e}"
                ));
            }
            Ok(())
        }
        _ => Err("the job returned another kind of output than it was asked for".to_string()),
    }
}

/// Check every kept output of `driven`; returns how many failed.
fn check_kept(inputs: &[JobInput], driven: &Driven) -> u64 {
    let mut failed = 0;
    for (input, output) in &driven.kept {
        if let Err(why) = check_job(&inputs[*input], output) {
            eprintln!("{NAME}: output check of input {input} failed: {why}");
            failed += 1;
        }
    }
    failed
}

/// The untraced pass: end-to-end metrics.
pub fn run(args: RunArgs, out: &mut Report) -> Result<Outcome, String> {
    let (mut inp, setup_s) = median_setup(|| setup(args.seed))?;
    let min_blocks = min_samples_for_tail(TAIL).div_ceil(BLOCK);
    let driven = drive(
        &inp.service,
        &inp.jobs,
        &mut inp.rng,
        |blocks, elapsed| elapsed < args.seconds || blocks < min_blocks,
        None,
    );
    inp.service.shutdown();
    if driven.records.is_empty() {
        return Err("no job completed".to_string());
    }
    // Read before the checks below allocate their own copies.
    let peak_rss_mb = crate::host::peak_rss_mb()?;
    let failed = driven.failed + check_kept(&inp.jobs, &driven);

    EndToEnd {
        op_s: &mut driven.latencies_s(|_| true),
        tail: TAIL,
        aux_s: &mut driven.latencies_s(|r| inp.jobs[r.input].has_epilogue()),
        ops_per_s: driven.jobs_per_s(),
        setup_s,
        peak_rss_mb,
    }
    .report(out);
    Ok(Outcome {
        attempted: driven.attempted(),
        failed,
    })
}

/// What one job costs in each layer below the service, as means over one
/// block run on the calling thread.
fn report_layers_per_job(
    inputs: &[JobInput],
    kernel_s: &[f64; 6],
    out: &mut Report,
) -> Result<(), String> {
    let e = |e: tileqr::MatrixError| e.to_string();
    let flops = kernel_flops(TILE);
    let (mut tile, mut build, mut prio, mut seq, mut untile) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut bytes, mut tasks, mut edges, mut path, mut total_flops, mut model) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0.0);
    let secs = |t0: Instant| t0.elapsed().as_secs_f64();
    let mut clock = Clock::start();
    for job in inputs {
        let t0 = Instant::now();
        let tiled = TiledMatrix::from_matrix(&job.a, TILE).map_err(e)?;
        tile += secs(t0);
        let (mt, nt) = (tiled.tile_rows(), tiled.tile_cols());
        let (pm, pn) = tiled.padded_dims();
        bytes += (pm * pn * std::mem::size_of::<f64>()) as u64;
        let t0 = Instant::now();
        let graph = TaskGraph::build_tree(mt, nt, TreePolicy::default().resolve(mt, nt));
        build += secs(t0);
        let t0 = Instant::now();
        std::hint::black_box(bottom_levels(&graph, flop_weight(TILE)));
        prio += secs(t0);
        let mut state = FactorState::new(tiled);
        let t0 = Instant::now();
        state.run_all(&graph).map_err(e)?;
        seq += secs(t0);
        let t0 = Instant::now();
        std::hint::black_box(state.r_matrix());
        untile += secs(t0);
        let gs = graph_stats(&graph);
        tasks += gs.tasks;
        edges += gs.edges;
        path += gs.critical_path_tasks;
        for (k, &c) in kind_counts(&graph).iter().enumerate() {
            total_flops += c * flops[k];
            model += c as f64 * kernel_s[k];
        }
    }
    let n = inputs.len();
    // One block takes a few tens of milliseconds: one clock lap covers it.
    let scale = clock.lap().scale();
    let per_job = n as f64;
    let time = |total: f64| total * scale / per_job;
    out.set("matrix.tile_s", time(tile), n);
    out.set("matrix.untile_s", time(untile), n);
    out.set("matrix.tile_bytes", bytes as f64 / per_job, n);
    out.set("dag.build_s", time(build), n);
    out.set("dag.priorities_s", time(prio), n);
    out.set("dag.tasks", tasks as f64 / per_job, n);
    out.set("dag.edges", edges as f64 / per_job, n);
    out.set("dag.critical_path_tasks", path as f64 / per_job, n);
    out.set("kernels.seq_s", time(seq), n);
    out.set("kernels.model_s", model / per_job, n);
    out.set("kernels.flops", total_flops as f64 / per_job, n);
    Ok(())
}

/// The same job sequence through plain sequential `TiledQr` calls on the
/// calling thread; returns jobs per second.
fn direct_jobs_per_s(inputs: &[JobInput], seed: u64, jobs: usize) -> Result<f64, String> {
    let e = |e: tileqr::MatrixError| e.to_string();
    let opts = QrOptions::new().tile_size(TILE).workers(1);
    let mut rng = Rng64::seed_from_u64(seed);
    let mut clock = Clock::start();
    let (mut done, mut wall) = (0, 0.0);
    while done < jobs {
        let t0 = Instant::now();
        for (input, _) in block_plan(&mut rng) {
            let job = &inputs[input];
            let f = TiledQr::factor(&job.a, &opts).map_err(e)?;
            match &job.payload {
                Payload::Factor => {}
                Payload::Solve(rhs) => drop(std::hint::black_box(f.solve(rhs).map_err(e)?)),
                Payload::ApplyQt(c) => drop(std::hint::black_box(f.apply_qt(c).map_err(e)?)),
            }
            std::hint::black_box(&f);
            done += 1;
        }
        let raw = t0.elapsed().as_secs_f64();
        wall += raw * clock.lap().scale();
    }
    Ok(done as f64 / wall)
}

/// The traced pass: per-layer metrics and the Chrome trace of the client.
pub fn run_traced(args: RunArgs, out: &mut Report) -> Result<Outcome, String> {
    let peak = report_host(out, args.cores);
    let kernel_s = time_kernels(TILE, args.seed, 0.6)?;
    report_kernels(out, TILE, &kernel_s, peak);

    let jobs = generate(args.seed);
    report_layers_per_job(&jobs, &kernel_s, out)?;

    let mut spans = Spans::new();
    let mut clock = Clock::start();
    let id = spans.open("service.start", 0);
    let service = QrService::start(service_config());
    let raw = spans.close(id);
    out.set("service.start_s", raw * clock.lap().scale(), 1);
    let mut rng = Rng64::seed_from_u64(args.seed);
    drive(
        &service,
        &jobs,
        &mut rng,
        |blocks, _| blocks < WARMUP_BLOCKS,
        None,
    );

    // Three fifths of the time through the service; the direct baseline
    // takes the rest.
    let before = service.stats();
    let traced = drive(
        &service,
        &jobs,
        &mut rng,
        |blocks, elapsed| {
            elapsed < 0.6 * args.seconds || blocks < min_samples_for_tail(TAIL).div_ceil(BLOCK)
        },
        Some(&mut spans),
    );
    clock.lap();
    let id = spans.open("service.shutdown", 0);
    let stats = service.shutdown();
    let raw = spans.close(id);
    out.set("service.shutdown_s", raw * clock.lap().scale(), 1);
    for slot in 0..OUTSTANDING {
        spans.name_lane(slot as u32 + 1, &format!("client slot {slot}"));
    }
    write_trace(NAME, &spans)?;
    if traced.records.is_empty() {
        return Err("no job completed".to_string());
    }
    let failed = traced.failed + check_kept(&jobs, &traced);

    let n = traced.records.len();
    let p50_us = |f: fn(&JobRecord) -> f64| median(&mut traced.at_reference(|_| true, f)) * 1e6;
    out.set("service.submit_us", p50_us(|r| r.submit_s), n);
    out.set("service.queue_wait_us", p50_us(|r| r.queue_wait_s), n);
    out.set("service.internal_latency_us", p50_us(|r| r.internal_s), n);
    out.set("service.wake_us", p50_us(|r| r.client_s - r.internal_s), n);
    for class in [
        PriorityClass::Interactive,
        PriorityClass::Standard,
        PriorityClass::Bulk,
    ] {
        let mut v = traced.latencies_s(|r| r.class == class);
        let name = format!("service.class_p50_us.{}", class.name());
        out.set(&name, median(&mut v) * 1e6, v.len());
    }
    // Counters of the drive alone (the warm-up came before), per job.
    let per_job = |after: u64, before: u64| (after - before) as f64 / n as f64;
    out.set(
        "service.tasks_dispatched",
        per_job(stats.tasks_dispatched, before.tasks_dispatched),
        n,
    );
    out.set("service.batches", per_job(stats.batches, before.batches), n);
    out.set(
        "service.jobs_batched",
        per_job(stats.jobs_batched, before.jobs_batched),
        n,
    );
    out.set("service.max_ready_depth", stats.max_ready_depth as f64, 1);
    out.set(
        "service.max_jobs_in_flight",
        stats.max_jobs_in_flight as f64,
        1,
    );

    let direct = direct_jobs_per_s(&jobs, args.seed, n)?;
    out.set("service.direct_jobs_per_s", direct, n);
    out.set("service.vs_direct_ratio", traced.jobs_per_s() / direct, n);
    out.set(
        "service.overhead_us_per_job",
        (1.0 / traced.jobs_per_s() - 1.0 / direct) * 1e6,
        n,
    );

    // Little's law on raw times: Σ latency = wall × jobs in flight. Below
    // 1 the client did not keep its window full.
    let in_flight: f64 = traced.records.iter().map(|r| r.client_s).sum();
    let wall: f64 = traced.lap_wall_s.iter().sum();
    out.set(
        "core.reconcile_ratio",
        in_flight / (wall * OUTSTANDING as f64),
        n,
    );
    let (mut with, mut without) = (
        traced.latencies_s(|r| r.traced),
        traced.latencies_s(|r| !r.traced),
    );
    out.set(
        "obs.trace_overhead_frac",
        median(&mut with) / median(&mut without) - 1.0,
        with.len(),
    );
    out.set("obs.spans", spans.len() as f64, 1);
    out.set("host.clock_ns_per_step", clock.median_ns_per_step(), 1);
    Ok(Outcome {
        attempted: traced.attempted(),
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_holds_the_same_mix_whatever_the_seed() {
        for seed in [1, 2] {
            let jobs = generate(seed);
            assert_eq!(jobs.len(), BLOCK);
            let epilogues = jobs.iter().filter(|j| j.has_epilogue()).count();
            assert_eq!(epilogues, SHAPES.len() * 3);
            let mut rng = Rng64::seed_from_u64(seed);
            let plan = block_plan(&mut rng);
            let mut order: Vec<usize> = plan.iter().map(|p| p.0).collect();
            order.sort_unstable();
            assert_eq!(order, (0..BLOCK).collect::<Vec<_>>());
            let count = |c| plan.iter().filter(|p| p.1 == c).count();
            assert_eq!(count(PriorityClass::Interactive), 20);
            assert_eq!(count(PriorityClass::Standard), 60);
            assert_eq!(count(PriorityClass::Bulk), 20);
        }
        let (a, b) = (generate(1), generate(2));
        assert_ne!(a[0].a, b[0].a, "the seed draws the matrices");
        assert_eq!(
            a[5].a,
            generate(1)[5].a,
            "and the same seed draws the same ones"
        );
    }

    #[test]
    fn a_short_drive_completes_and_checks_every_kept_job() {
        let mut inp = setup(3).unwrap();
        let driven = drive(
            &inp.service,
            &inp.jobs,
            &mut inp.rng,
            |blocks, _| blocks == 0,
            None,
        );
        assert_eq!((driven.records.len(), driven.failed), (BLOCK, 0));
        assert_eq!(driven.kept.len(), BLOCK / CHECK_EVERY);
        assert_eq!(check_kept(&inp.jobs, &driven), 0);
        // An output of the wrong kind, or for another input, is a failure.
        let (input, output) = &driven.kept[0];
        let other = (input + KINDS_PER_SHAPE) % BLOCK;
        assert!(check_job(&inp.jobs[other], output).is_err());
    }
}
