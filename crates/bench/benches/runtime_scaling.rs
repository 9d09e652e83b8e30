//! Real-thread scalability of the self-scheduling pool (the host-side
//! analogue of the paper's Fig. 8), A/B'd against the seed's global-lock
//! FIFO runtime ([`tileqr_bench::baseline`]).
//!
//! Sweeps worker counts over three executors — baseline (global lock,
//! deep-copy staging, FIFO), the per-tile runtime under FIFO, and the
//! per-tile runtime under critical-path priorities — and records every
//! row in `BENCH_runtime.json` (written to the current directory) so the
//! speedup claim is reproducible from a committed artifact.
//!
//! Each row also records the memory discipline of the executor: heap
//! allocations per task (counted by a [`CountingAlloc`] global allocator
//! over one untimed run with a uniquely-owned input) and, for the
//! per-tile runtime, the hot-path counters from the run report
//! (`cow_clones`, `workspace_resizes` — both 0 when the arena plumbing is
//! healthy).
//!
//! Usage: `cargo bench --bench runtime_scaling [-- n b]` (default 1024 32).

use std::fmt::Write as _;
use tileqr::dag::{EliminationOrder, TaskGraph};
use tileqr::gen::random_matrix;
use tileqr::kernels::{flops, FactorState};
use tileqr::runtime::{parallel_factor_traced, PoolConfig, SchedulePolicy};
use tileqr::TiledMatrix;
use tileqr_bench::alloc_counter::{self, CountingAlloc};
use tileqr_bench::{baseline, harness};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Row {
    executor: &'static str,
    policy: &'static str,
    workers: usize,
    seconds: f64,
    gflops: f64,
    imbalance: f64,
    stage_wait_s: f64,
    commit_wait_s: f64,
    max_ready_depth: usize,
    allocs_per_task: f64,
    cow_clones: Option<u64>,
    workspace_resizes: Option<u64>,
}

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| a != "--bench");
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
    let b: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    let samples = 3;

    let a = random_matrix::<f64>(n, n, 7);
    let tiled = TiledMatrix::from_matrix(&a, b).expect("tiling");
    let graph = TaskGraph::build(
        tiled.tile_rows(),
        tiled.tile_cols(),
        EliminationOrder::FlatTs,
    );
    let gflop = flops::qr_flops(n, n) as f64 / 1e9;
    let max = std::thread::available_parallelism().map_or(4, |v| v.get());
    let mut counts = vec![1usize, 2, 4, 8];
    if max > 8 {
        counts.push(max);
    }
    counts.retain(|&w| w <= max.max(8)); // keep 8 even on smaller hosts: oversubscription is part of the A/B

    println!(
        "runtime scaling A/B: {n}x{n}, tile {b} ({} tasks, {gflop:.2} GFLOP), host has {max} core(s)",
        graph.len()
    );
    harness::header("runtime/workers");
    let mut rows: Vec<Row> = Vec::new();

    for &w in &counts {
        let stats = harness::measure(samples, || {
            baseline::global_lock_factor(tiled.clone(), &graph, w).expect("baseline");
        });
        // Allocation discipline is measured on a separate untimed run with
        // a uniquely-owned input, so the number reflects the executor, not
        // the bench's reuse of `tiled` across samples.
        let fresh = TiledMatrix::from_matrix(&a, b).expect("tiling");
        let allocs = alloc_counter::count(|| {
            baseline::global_lock_factor(fresh, &graph, w).expect("baseline");
        });
        let allocs_per_task = allocs as f64 / graph.len() as f64;
        println!(
            "{:<40} {:>12} {:>12} {:>10.2} GFLOP/s  ({allocs_per_task:.1} allocs/task)",
            format!("global_lock_fifo/{w}"),
            harness::format_secs(stats.median),
            harness::format_secs(stats.min),
            gflop / stats.median
        );
        rows.push(Row {
            executor: "global_lock",
            policy: "fifo",
            workers: w,
            seconds: stats.median,
            gflops: gflop / stats.median,
            imbalance: f64::NAN,
            stage_wait_s: f64::NAN,
            commit_wait_s: f64::NAN,
            max_ready_depth: 0,
            allocs_per_task,
            cow_clones: None,
            workspace_resizes: None,
        });
    }

    for policy in [SchedulePolicy::Fifo, SchedulePolicy::CriticalPath] {
        for &w in &counts {
            let mut last_report = None;
            let stats = harness::measure(samples, || {
                let (_, report) = parallel_factor_traced(
                    FactorState::new(tiled.clone()),
                    &graph,
                    PoolConfig {
                        workers: w,
                        policy,
                        ..PoolConfig::default()
                    },
                )
                .expect("factorization");
                last_report = Some(report);
            });
            let report = last_report.expect("at least one run");
            // Memory discipline on a uniquely-owned input: cow_clones must
            // be 0 here (nobody else holds tile handles), and the
            // pre-sized per-worker arenas must never regrow.
            let fresh = TiledMatrix::from_matrix(&a, b).expect("tiling");
            let mut counted_report = None;
            let allocs = alloc_counter::count(|| {
                let (_, rep) = parallel_factor_traced(
                    FactorState::new(fresh),
                    &graph,
                    PoolConfig {
                        workers: w,
                        policy,
                        ..PoolConfig::default()
                    },
                )
                .expect("factorization");
                counted_report = Some(rep);
            });
            let counted = counted_report.expect("counted run");
            let allocs_per_task = allocs as f64 / graph.len() as f64;
            println!(
                "{:<40} {:>12} {:>12} {:>10.2} GFLOP/s  (imb {:.2}, {allocs_per_task:.1} allocs/task, cow {})",
                format!("per_tile_{}/{w}", policy.name()),
                harness::format_secs(stats.median),
                harness::format_secs(stats.min),
                gflop / stats.median,
                report.imbalance(),
                counted.cow_clones()
            );
            rows.push(Row {
                executor: "per_tile",
                policy: policy.name(),
                workers: w,
                seconds: stats.median,
                gflops: gflop / stats.median,
                imbalance: report.imbalance(),
                stage_wait_s: report.stage_wait.as_secs_f64(),
                commit_wait_s: report.commit_wait.as_secs_f64(),
                max_ready_depth: report.max_ready_depth,
                allocs_per_task,
                cow_clones: Some(counted.cow_clones()),
                workspace_resizes: Some(counted.counters.workspace_resizes),
            });
        }
    }

    // Headline: new runtime (best policy) vs the seed baseline at the
    // highest common worker count.
    let w_head = *counts
        .iter()
        .rev()
        .find(|&&w| w >= 8)
        .unwrap_or(counts.last().unwrap());
    let base = rows
        .iter()
        .find(|r| r.executor == "global_lock" && r.workers == w_head)
        .expect("baseline row");
    let best = rows
        .iter()
        .filter(|r| r.executor == "per_tile" && r.workers == w_head)
        .min_by(|x, y| x.seconds.total_cmp(&y.seconds))
        .expect("per-tile row");
    println!(
        "\nheadline @ {w_head} workers: per_tile_{} {} vs global_lock {} -> {:.2}x",
        best.policy,
        harness::format_secs(best.seconds),
        harness::format_secs(base.seconds),
        base.seconds / best.seconds
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"tile_size\": {b},");
    let _ = writeln!(json, "  \"tasks\": {},", graph.len());
    let _ = writeln!(json, "  \"gflop\": {gflop:.4},");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"host_cores\": {max},");
    let guard = harness::cores_guard("worker-scaling and speedup-vs-baseline numbers");
    json.push_str(&guard.json_fields("  "));
    // Single-core hosts have no meaningful speedup headline: report null
    // (the guard's warning key explains why) instead of a degenerate 1x.
    let _ = writeln!(
        json,
        "  \"headline_speedup_vs_global_lock\": {},",
        guard.gate_f64(base.seconds / best.seconds)
    );
    let _ = writeln!(json, "  \"rows\": [");
    for (idx, r) in rows.iter().enumerate() {
        let sep = if idx + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"executor\": \"{}\", \"policy\": \"{}\", \"workers\": {}, \"seconds\": {:.6}, \"gflops\": {:.3}, \"imbalance\": {}, \"stage_wait_s\": {}, \"commit_wait_s\": {}, \"max_ready_depth\": {}, \"allocs_per_task\": {:.2}, \"cow_clones\": {}, \"workspace_resizes\": {}}}{sep}",
            r.executor,
            r.policy,
            r.workers,
            r.seconds,
            r.gflops,
            json_f64(r.imbalance),
            json_f64(r.stage_wait_s),
            json_f64(r.commit_wait_s),
            r.max_ready_depth,
            r.allocs_per_task,
            json_u64(r.cow_clones),
            json_u64(r.workspace_resizes),
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    // cargo runs benches with cwd = the package dir; anchor the artifact at
    // the workspace root regardless.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    std::fs::write(out, &json).expect("write BENCH_runtime.json");
    println!("wrote {out}");
}

/// JSON has no NaN; emit `null` for rows where a field does not apply.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// `null` for executors that do not expose a given counter.
fn json_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}
