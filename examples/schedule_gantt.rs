//! Visualize a heterogeneous tiled-QR schedule: run the exact task-level
//! simulator with tracing, convert the timeline into the unified
//! observability [`Span`](tileqr::obs::Span) model, and print a text
//! Gantt chart per device (T = triangulation, E = elimination,
//! u/U = updates, . = idle).
//!
//! ```text
//! cargo run --release --example schedule_gantt [tile_grid] [width]
//! ```

use tileqr::dag::{EliminationTree, TaskGraph};
use tileqr::hetero::{assign, engine, plan, profiles, DistributionStrategy, MainDevicePolicy};
use tileqr::obs::Trace;

fn main() {
    let mut args = std::env::args().skip(1);
    let nt: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let width: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(100);

    let platform = profiles::paper_testbed(16);
    let hp = plan::plan_with(
        &platform,
        nt,
        nt,
        MainDevicePolicy::Auto,
        DistributionStrategy::GuideArray,
        Some(platform.num_devices()),
        &[],
    );
    let graph = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
    let assignment = assign::assign_tasks(&graph, &hp.distribution, hp.policy);

    let (stats, timeline) = engine::simulate_traced(&graph, &platform, &assignment);

    // The same unified model the real pool records into — one Compute
    // span per kernel, one lane per device.
    let lane_names: Vec<String> = (0..platform.num_devices())
        .map(|d| platform.device(d).name.clone())
        .collect();
    let trace = Trace::from_timeline(&timeline, &lane_names);
    // Multi-slot devices legitimately overlap spans within a lane.
    trace
        .validate(false)
        .expect("simulator trace is well-formed");
    assert_eq!(trace.compute_span_count(), graph.len());

    println!(
        "tiled QR of a {0}x{0} tile grid ({1} tasks) on the paper's testbed",
        nt,
        graph.len()
    );
    println!(
        "main device: {} | makespan {:.2} ms | comm share {:.1}%\n",
        platform.device(hp.main).name,
        stats.makespan_us / 1e3,
        100.0 * stats.comm_fraction()
    );

    print!("{}", trace.gantt(width));
    println!("\nlegend: T triangulation, E elimination, u/U updates, . idle");
    for d in 0..platform.num_devices() {
        println!(
            "dev{d} = {:<12} {:>5} kernels, peak concurrency {:>4} (of {} slots)",
            platform.device(d).name,
            stats.tasks_per_device[d],
            timeline.peak_concurrency(d),
            platform.device(d).slots(16)
        );
    }
    println!("OK");
}
