//! Tile-size auto-tuning: `select::select_plan` probes a small matrix at
//! several tile sizes through the calibrated plan selector, choosing the
//! elimination tree jointly with the tile size over one device's measured
//! curves (the Song et al. ICS'12 probe idea, on the repo's one selector).
//!
//! ```text
//! cargo run --release --example tile_size_autotune [probe_size]
//! ```

use tileqr::hetero::{profiles, select};

fn main() {
    let probe: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1280);

    let candidates = [4usize, 8, 12, 16, 20, 24, 28, 32, 48, 64];
    println!("probing a {probe}x{probe} matrix at tile sizes {candidates:?} ...");

    // The sweep runs through the plan selector over one calibrated
    // device profile and tunes the elimination tree jointly with the tile
    // size. The service-level online tuner (tileqr::TunedQrService) feeds
    // *measured* profiles into this same selector.
    let device = profiles::paper_testbed(16).device(0).clone();
    let selection = select::select_plan(&device, probe, probe, &candidates);
    let best_tile = selection.best.tile_size;
    println!("\nselector sweep on {} alone:", device.name);
    println!(" tile |  predicted time (best tree)");
    for b in candidates {
        // The ranking is best first: a tile's first row is its best tree.
        let best = selection.ranked.iter().find(|s| s.tile_size == b);
        let secs = best.expect("every tile size is scored").makespan_us / 1e6;
        let marker = if b == best_tile { "  <- best" } else { "" };
        println!("{b:>5} |  {secs:>10.5} s{marker}");
    }
    println!("auto-tuned tile size: {best_tile}");
    println!("OK");
}
