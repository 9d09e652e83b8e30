//! Tile-size auto-tuning: `autotune::tune_plan` probes a small matrix at
//! several tile sizes through the calibrated plan selector, choosing the
//! elimination tree jointly with the tile size over one device's measured
//! curves (the Song et al. ICS'12 probe idea, on the repo's one selector).
//!
//! ```text
//! cargo run --release --example tile_size_autotune [probe_size]
//! ```

use tileqr::hetero::{autotune, profiles};

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
    let result = autotune::tune_plan(&device, probe, &candidates);
    println!("\nselector sweep on {} alone:", device.name);
    println!(" tile |  predicted time (best tree)");
    for (b, secs) in &result.probes {
        let marker = if *b == result.best_tile {
            "  <- best"
        } else {
            ""
        };
        println!("{b:>5} |  {secs:>10.5} s{marker}");
    }
    println!("auto-tuned tile size: {}", result.best_tile);
    println!("OK");
}
