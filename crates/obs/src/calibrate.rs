//! Fit simulator timing constants from measured spans and score the
//! simulator against reality.
//!
//! The paper's Algorithms 2–4 are driven entirely by the per-kernel
//! timing curves of its Fig. 4 (`t(b) = c0 + c1·b² + c2·b³`). The
//! simulator and the schedulers carry those curves as one [`ClassCosts`]
//! table; this module closes the loop in the other direction: given
//! compute spans recorded from *any* source — the real thread pool or
//! the simulator itself — it least-squares-fits the three coefficients
//! per kernel class and reports how far the fitted model's predictions
//! sit from a reference profile ([`profile_error`]) or from a recorded
//! run's makespan ([`sim_vs_real`]). Feeding the fitted [`DeviceProfile`]
//! back into the Alg. 2/3 planners turns them from
//! paper-constant-driven into measurement-driven.

use crate::span::{Phase, Trace};
use tileqr_dag::{list_makespan, ClassCosts, CostCurve, KernelClass, TaskGraph};
use tileqr_sim::{DeviceKind, DeviceProfile};

/// One measured kernel execution: class, tile size it ran at, duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSample {
    /// Timing curve the kernel belongs to.
    pub class: KernelClass,
    /// Tile size `b` of the run that produced the sample.
    pub tile_size: usize,
    /// Measured duration, µs.
    pub duration_us: f64,
}

/// Extract one [`KernelSample`] per compute span of `trace`, all at the
/// run's tile size.
pub fn samples_from_trace(trace: &Trace, tile_size: usize) -> Vec<KernelSample> {
    trace
        .phase_spans(Phase::Compute)
        .map(|s| KernelSample {
            class: KernelClass::of(s.kind),
            tile_size,
            duration_us: s.duration_us(),
        })
        .collect()
}

/// Solve the 3×3 system `m x = y` by Gaussian elimination with partial
/// pivoting. `None` when singular (fewer than 3 distinct tile sizes).
fn solve3(mut m: [[f64; 3]; 3], mut y: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        y.swap(col, pivot);
        let pivot_row = m[col];
        for row in col + 1..3 {
            let f = m[row][col] / pivot_row[col];
            for (v, p) in m[row].iter_mut().zip(pivot_row.iter()).skip(col) {
                *v -= f * p;
            }
            y[row] -= f * y[col];
        }
    }
    let mut x = [0.0; 3];
    for col in (0..3).rev() {
        let mut v = y[col];
        for k in col + 1..3 {
            v -= m[col][k] * x[k];
        }
        x[col] = v / m[col][col];
    }
    Some(x)
}

/// Least-squares fit of one timing curve `t(b) = c0 + c1·b² + c2·b³`
/// over `(b, duration)` points. Needs ≥ 3 distinct tile sizes; negative
/// coefficients (possible under measurement noise) clamp to 0.
fn fit_curve(points: &[(usize, f64)]) -> Option<CostCurve> {
    let mut distinct: Vec<usize> = points.iter().map(|p| p.0).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() < 3 {
        return None;
    }
    // Normal equations over the basis [1, b², b³].
    let mut m = [[0.0f64; 3]; 3];
    let mut y = [0.0f64; 3];
    for &(b, t) in points {
        let b = b as f64;
        let phi = [1.0, b * b, b * b * b];
        for i in 0..3 {
            for j in 0..3 {
                m[i][j] += phi[i] * phi[j];
            }
            y[i] += phi[i] * t;
        }
    }
    let c = solve3(m, y)?;
    Some(CostCurve {
        c0: c[0].max(0.0),
        c1: c[1].max(0.0),
        c2: c[2].max(0.0),
    })
}

/// Fit a full [`ClassCosts`] table from samples spanning ≥ 3 tile sizes
/// per class. `None` if any class lacks the data.
pub fn fit_step_times(samples: &[KernelSample]) -> Option<ClassCosts> {
    let of = |class: KernelClass| {
        let pts: Vec<(usize, f64)> = samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| (s.tile_size, s.duration_us))
            .collect();
        fit_curve(&pts)
    };
    Some(ClassCosts {
        triangulation: of(KernelClass::Triangulation)?,
        elimination: of(KernelClass::Elimination)?,
        update: of(KernelClass::Update)?,
    })
}

/// Wrap fitted curves in a [`DeviceProfile`] usable by the Alg. 2/3/4
/// planners and the simulator (`cores` = the worker count or device
/// parallelism the samples came from).
pub fn fitted_profile(
    name: &str,
    kind: DeviceKind,
    cores: usize,
    times: ClassCosts,
) -> DeviceProfile {
    DeviceProfile {
        name: name.to_string(),
        kind,
        cores: cores.max(1),
        times,
    }
}

/// Maximum relative error of `fitted` vs `truth`, per kernel class, over
/// the tile sizes in `bs`: `[triangulation, elimination, update]`.
pub fn profile_error(fitted: &ClassCosts, truth: &ClassCosts, bs: &[usize]) -> [f64; 3] {
    KernelClass::ALL.map(|class| {
        let (truth, fitted) = (truth.curve(class), fitted.curve(class));
        let mut worst = 0.0f64;
        for &b in bs {
            let (t, f) = (truth.eval_us(b), fitted.eval_us(b));
            if t > 0.0 {
                worst = worst.max((f - t).abs() / t);
            }
        }
        worst
    })
}

/// Sim-vs-real comparison of one recorded run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimVsReal {
    /// Makespan of the recorded (real) run, µs.
    pub real_makespan_us: f64,
    /// Makespan the calibrated cost model predicts for the same graph on
    /// the same worker count, µs.
    pub sim_makespan_us: f64,
    /// Sum of real compute-span durations, µs (the serial work volume).
    pub real_compute_us: f64,
}

impl SimVsReal {
    /// Signed relative makespan error of the simulator: positive means
    /// the simulator over-predicts.
    pub fn makespan_rel_error(&self) -> f64 {
        if self.real_makespan_us <= 0.0 {
            return 0.0;
        }
        (self.sim_makespan_us - self.real_makespan_us) / self.real_makespan_us
    }
}

/// List-schedule `graph` on `workers` identical cores, in the drivers'
/// default FIFO order, with every kernel taking its `fitted` cost at
/// `tile_size`, and compare against the recorded run.
///
/// This is the calibration loop's verdict: fit [`ClassCosts`] from the
/// trace ([`fit_step_times`]), hand them here, and the report says how
/// closely the cost model the tree selector plans with would have
/// predicted the real pool.
pub fn sim_vs_real(
    trace: &Trace,
    graph: &TaskGraph,
    workers: usize,
    tile_size: usize,
    fitted: ClassCosts,
) -> SimVsReal {
    let cost = |kind| fitted.cost_us(kind, tile_size);
    SimVsReal {
        real_makespan_us: trace.makespan_us(),
        sim_makespan_us: list_makespan(graph, workers.max(1), None, cost),
        real_compute_us: trace
            .phase_spans(Phase::Compute)
            .map(|s| s.duration_us())
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::profiles;

    #[test]
    fn fit_recovers_exact_curve_from_clean_points() {
        let truth = CostCurve {
            c0: 20.0,
            c1: 0.02,
            c2: 0.019,
        };
        let pts: Vec<(usize, f64)> = [4usize, 8, 16, 24, 32]
            .iter()
            .map(|&b| (b, truth.eval_us(b)))
            .collect();
        let fit = fit_curve(&pts).unwrap();
        for b in [4usize, 12, 28, 40] {
            let (t, f) = (truth.eval_us(b), fit.eval_us(b));
            assert!((t - f).abs() / t < 1e-9, "b={b}: {t} vs {f}");
        }
    }

    #[test]
    fn fit_needs_three_distinct_tile_sizes() {
        assert!(fit_curve(&[(8, 1.0), (8, 1.1), (16, 2.0)]).is_none());
        assert!(fit_curve(&[]).is_none());
    }

    #[test]
    fn fit_step_times_recovers_profile() {
        let truth = profiles::gtx580().times;
        let mut samples = Vec::new();
        for b in [4usize, 8, 16, 24, 32] {
            for class in KernelClass::ALL {
                samples.push(KernelSample {
                    class,
                    tile_size: b,
                    duration_us: truth.curve(class).eval_us(b),
                });
            }
        }
        let fitted = fit_step_times(&samples).unwrap();
        let err = profile_error(&fitted, &truth, &[4, 8, 16, 24, 32, 48]);
        assert!(err.iter().all(|&e| e < 1e-6), "{err:?}");
    }

    #[test]
    fn solve3_rejects_singular() {
        let m = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]];
        assert!(solve3(m, [1.0, 2.0, 3.0]).is_none());
    }
}
