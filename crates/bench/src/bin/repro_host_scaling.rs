//! Real-thread analogue of the paper's Fig. 8 on the machine we actually
//! have: tiled QR wall time versus computing-thread count, with per-worker
//! load balance (FIFO dispatch) and `lock_wait_s`: time workers blocked
//! on the driver's lock, staging plus committing — 0 when none did.
//!
//! Usage: `repro_host_scaling [n] [b] [--json out.json]`

use std::fmt::Write as _;
use tileqr::dag::{EliminationTree, TaskGraph};
use tileqr::gen::random_matrix;
use tileqr::kernels::{flops, FactorState};
use tileqr::runtime::{parallel_factor_traced, PoolConfig};
use tileqr::TiledMatrix;

fn main() {
    let mut n: usize = 768;
    let mut b: usize = 64;
    let mut json_path: Option<String> = None;
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = Some(args.next().unwrap_or_else(|| "host_scaling.json".into()));
        } else if let Ok(v) = arg.parse() {
            match positional {
                0 => n = v,
                _ => b = v,
            }
            positional += 1;
        }
    }

    let a = random_matrix::<f64>(n, n, 11);
    let tiled = TiledMatrix::from_matrix(&a, b).expect("tiling");
    let graph = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
    let gflop = flops::qr_flops(n, n) as f64 / 1e9;
    let max = std::thread::available_parallelism().map_or(1, |v| v.get());

    println!(
        "host scaling: {n}x{n}, tile {b} ({} tasks, {:.2} GFLOP), up to {max} worker(s)\n",
        graph.len(),
        gflop
    );
    println!(
        "{:>8}  {:>10}  {:>8}  {:>10}  {:>10}  {:>10}",
        "workers", "seconds", "speedup", "GFLOP/s", "imbalance", "lock-wait"
    );

    let mut json_rows = String::new();
    let mut baseline = 0.0f64;
    let mut w = 1usize;
    while w <= max {
        let (_, report) = parallel_factor_traced(
            FactorState::new(tiled.clone()),
            &graph,
            PoolConfig {
                workers: w,
                ..PoolConfig::default()
            },
        )
        .expect("factorization");
        let secs = report.elapsed.as_secs_f64();
        if w == 1 {
            baseline = secs;
        }
        let lock_wait = report.stage_wait.as_secs_f64() + report.commit_wait.as_secs_f64();
        println!(
            "{:>8}  {:>10.4}  {:>7.2}x  {:>10.2}  {:>10.2}  {:>9.2}ms",
            w,
            secs,
            baseline / secs,
            gflop / secs,
            report.imbalance(),
            lock_wait * 1e3
        );
        if !json_rows.is_empty() {
            json_rows.push_str(",\n");
        }
        let _ = write!(
            json_rows,
            "    {{\"workers\": {w}, \"seconds\": {secs:.6}, \"gflops\": {:.3}, \"imbalance\": {:.4}, \"lock_wait_s\": {lock_wait:.6}, \"max_ready_depth\": {}}}",
            gflop / secs,
            report.imbalance(),
            report.max_ready_depth
        );
        w *= 2;
    }

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"n\": {n},\n  \"tile_size\": {b},\n  \"tasks\": {},\n  \"gflop\": {gflop:.4},\n  \"rows\": [\n{json_rows}\n  ]\n}}\n",
            graph.len()
        );
        match std::fs::write(&path, json) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => {
                eprintln!("\nerror: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("\n(compare: the simulated heterogeneous scaling is repro_fig8)");
}
