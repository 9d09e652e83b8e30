//! One module per reproduced table/figure.

pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod tab1;
pub mod tab3;

use tileqr::hetero::{fastsim, plan, DistributionStrategy, MainDevicePolicy, Platform, SimStats};

/// The paper's tile size.
pub const TILE: usize = 16;

/// Simulate one square tiled QR of matrix size `n` on `platform` with the
/// given knobs — the shared entry point of the figure experiments.
pub fn simulate(
    platform: &Platform,
    n: usize,
    policy: MainDevicePolicy,
    strategy: DistributionStrategy,
    force_p: Option<usize>,
) -> SimStats {
    let nt = n.div_ceil(TILE).max(1);
    let hp = plan::plan_with(platform, nt, nt, policy, strategy, force_p, &[]);
    fastsim::simulate_fast(platform, &hp, nt, nt)
}

/// Render a header + rows as an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, w) in widths.iter().enumerate().take(ncols) {
            s.push_str(&format!(
                "{:>w$}  ",
                cells.get(i).map_or("", |c| c.as_str()),
                w = w
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}
