//! Fig. 4: per-kernel time (T, E, UT/UE) per device versus tile size.
//!
//! The paper measures single-tile kernel latency on each device for tile
//! sizes 4–28; our device profiles are *calibrated to those curves*, so
//! this experiment prints the model and doubles as the calibration audit.
//! (Real measured host-kernel latencies — the same experiment run on the
//! hardware we actually have — are `perf --trace 1`'s `kernels.*_ns` rows.)

use crate::experiments::print_table;
use tileqr::hetero::{profiles, DeviceProfile, KernelClass};

/// One row: device, kernel class, per-tile-size latencies.
#[derive(Debug, Clone)]
pub struct Row {
    /// Device name.
    pub device: String,
    /// Kernel class label ("T", "E" or "UT/UE").
    pub class: &'static str,
    /// Latency in µs per tile size in [`TILE_SIZES`].
    pub times_us: Vec<f64>,
}

/// The tile sizes on the paper's x-axis.
pub const TILE_SIZES: [usize; 7] = [4, 8, 12, 16, 20, 24, 28];

/// Compute all rows.
pub fn run() -> Vec<Row> {
    let devices: Vec<DeviceProfile> = vec![
        profiles::gtx580(),
        profiles::gtx680(),
        profiles::cpu_i7_3820(),
    ];
    let classes = [
        (KernelClass::Triangulation, "T"),
        (KernelClass::Elimination, "E"),
        (KernelClass::Update, "UT/UE"),
    ];
    let mut rows = Vec::new();
    for dev in &devices {
        for (class, label) in classes {
            rows.push(Row {
                device: dev.name.clone(),
                class: label,
                times_us: TILE_SIZES
                    .iter()
                    .map(|&b| dev.kernel_time_us(class, b))
                    .collect(),
            });
        }
    }
    rows
}

/// Print the figure as a table.
pub fn print() {
    let rows = run();
    let mut header = vec!["device", "step"];
    let size_labels: Vec<String> = TILE_SIZES.iter().map(|b| format!("b={b}")).collect();
    header.extend(size_labels.iter().map(|s| s.as_str()));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.device.clone(), r.class.to_string()];
            row.extend(r.times_us.iter().map(|t| format!("{t:.1}us")));
            row
        })
        .collect();
    print_table(
        "Fig. 4 — QR time for each step on each device (calibrated model)",
        &header,
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_rows_three_devices() {
        let rows = run();
        assert_eq!(rows.len(), 9);
    }

    #[test]
    fn curves_increase_with_tile_size() {
        for r in run() {
            for w in r.times_us.windows(2) {
                assert!(w[1] > w[0], "{} {} not increasing", r.device, r.class);
            }
        }
    }

    #[test]
    fn update_curve_is_lowest_per_device() {
        let rows = run();
        for chunk in rows.chunks(3) {
            let (t, e, u) = (&chunk[0], &chunk[1], &chunk[2]);
            for i in 0..TILE_SIZES.len() {
                assert!(t.times_us[i] > e.times_us[i]);
                assert!(e.times_us[i] > u.times_us[i]);
            }
        }
    }
}
