//! The cost vocabulary: what a tile kernel costs, written down once.
//!
//! Everything the paper optimises (Alg. 2–4, Eqs. 10–11) is driven by one
//! datum — the Fig. 4 per-step timing curve `t(b) = c0 + c1·b² + c2·b³`
//! microseconds for triangulation, elimination and the updates. This
//! module owns that datum for every layer: the curve ([`CostCurve`]), the
//! three classes and the one `TaskKind → class` mapping ([`KernelClass`]),
//! the per-device table ([`ClassCosts`] — a simulated `DeviceProfile`
//! carries one, `obs::calibrate` fits one, the profile JSON stores one)
//! and the price a service job's WFQ charge is counted in ([`CostModel`]).
//!
//! The types here are pure `Copy` data, so every layer — a service job
//! (`JobSpec::cost_model`, set by the online tuner), the profile JSON,
//! the simulator — can carry them without growing its dependency graph.
//! The per-task accessors are `#[inline]`: the simulators in other crates
//! call them once per simulated task (without it `sim::engine` measured
//! ~8 % fewer tasks per second).

use crate::task::{StepClass, TaskKind};

/// The three timing curves of the paper's Fig. 4: triangulation (T),
/// elimination (E), and the updates (UT and UE, which the paper plots as a
/// single curve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// `GEQRT`.
    Triangulation,
    /// `TSQRT` / `TTQRT`.
    Elimination,
    /// `UNMQR` / `TSMQR` / `TTMQR` (one shared curve, as in Fig. 4).
    Update,
}

impl KernelClass {
    /// Every class, in [`slot`](KernelClass::slot) order.
    pub const ALL: [KernelClass; 3] = [
        KernelClass::Triangulation,
        KernelClass::Elimination,
        KernelClass::Update,
    ];

    /// The curve a DAG task bills to.
    #[inline]
    pub fn of(task: TaskKind) -> KernelClass {
        match task.class() {
            StepClass::Triangulation => KernelClass::Triangulation,
            StepClass::Elimination => KernelClass::Elimination,
            StepClass::UpdateTriangulation | StepClass::UpdateElimination => KernelClass::Update,
        }
    }

    /// Index into per-class `[_; 3]` tables: 0 triangulation,
    /// 1 elimination, 2 update.
    pub fn slot(self) -> usize {
        self as usize
    }
}

/// Kernel latency model `t(b) = c0 + c1·b² + c2·b³` microseconds for one
/// tile kernel at tile size `b`.
///
/// The cubic term tracks the `O(b³)` kernel flops, the quadratic term the
/// `O(b²)` memory traffic, and the constant the launch overhead (dominant
/// on GPUs at small tiles — visible as the flat left end of every Fig. 4
/// curve).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostCurve {
    /// Launch/setup overhead, microseconds.
    pub c0: f64,
    /// Memory-traffic coefficient, microseconds per `b²`.
    pub c1: f64,
    /// Arithmetic coefficient, microseconds per `b³`.
    pub c2: f64,
}

impl CostCurve {
    /// Predicted latency at tile size `b`, microseconds.
    #[inline]
    pub fn eval_us(&self, b: usize) -> f64 {
        let b = b as f64;
        self.c0 + self.c1 * b * b + self.c2 * b * b * b
    }

    /// The curve scaled by a uniform factor (an observed or injected
    /// slowdown multiplies the whole curve).
    pub fn scaled(&self, factor: f64) -> CostCurve {
        CostCurve {
            c0: self.c0 * factor,
            c1: self.c1 * factor,
            c2: self.c2 * factor,
        }
    }
}

/// The full per-device cost table: one curve per [`KernelClass`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassCosts {
    /// `GEQRT` curve.
    pub triangulation: CostCurve,
    /// `TSQRT` / `TTQRT` curve.
    pub elimination: CostCurve,
    /// `UNMQR` / `TSMQR` / `TTMQR` curve (shared).
    pub update: CostCurve,
}

impl ClassCosts {
    /// The curve of one class.
    #[inline]
    pub fn curve(&self, class: KernelClass) -> CostCurve {
        match class {
            KernelClass::Triangulation => self.triangulation,
            KernelClass::Elimination => self.elimination,
            KernelClass::Update => self.update,
        }
    }

    /// Predicted cost of one task at tile size `b`, microseconds.
    #[inline]
    pub fn cost_us(&self, kind: TaskKind, b: usize) -> f64 {
        self.curve(KernelClass::of(kind)).eval_us(b)
    }

    /// Costs with every class curve scaled by `factor` (a degraded
    /// simulated device).
    pub fn scaled(&self, factor: f64) -> ClassCosts {
        ClassCosts {
            triangulation: self.triangulation.scaled(factor),
            elimination: self.elimination.scaled(factor),
            update: self.update.scaled(factor),
        }
    }
}

/// What a service job's WFQ (weighted fair queuing) charge per task is
/// priced in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CostModel {
    /// Kernel flop counts: cheap, portable, blind to launch overhead and
    /// memory traffic.
    #[default]
    Flops,
    /// Measured microseconds from calibrated per-class curves: the WFQ
    /// charge of a tuned job is its predicted wall time.
    Calibrated(ClassCosts),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> ClassCosts {
        ClassCosts {
            triangulation: CostCurve {
                c0: 2.0,
                c1: 0.0,
                c2: 0.004,
            },
            elimination: CostCurve {
                c0: 2.0,
                c1: 0.0,
                c2: 0.004,
            },
            update: CostCurve {
                c0: 2.0,
                c1: 0.0,
                c2: 0.006,
            },
        }
    }

    #[test]
    fn curve_matches_fig4_form() {
        let c = CostCurve {
            c0: 20.0,
            c1: 0.02,
            c2: 0.019,
        };
        let b = 16.0;
        assert!((c.eval_us(16) - (20.0 + 0.02 * b * b + 0.019 * b * b * b)).abs() < 1e-12);
        let s = c.scaled(3.0);
        assert!((s.eval_us(16) - 3.0 * c.eval_us(16)).abs() < 1e-9);
    }

    #[test]
    fn update_classes_share_one_curve() {
        let c = costs();
        let ut = TaskKind::Unmqr { i: 0, j: 1, k: 0 };
        let ue = TaskKind::Tsmqr {
            p: 0,
            i: 1,
            j: 1,
            k: 0,
        };
        assert_eq!(c.cost_us(ut, 16), c.cost_us(ue, 16));
        assert_eq!(c.curve(KernelClass::Update).eval_us(16), c.cost_us(ut, 16));
    }

    #[test]
    fn class_mapping() {
        use KernelClass::*;
        let (p, i, j, k) = (0, 1, 1, 0);
        let table = [
            (TaskKind::Geqrt { i: 0, k }, Triangulation),
            (TaskKind::Unmqr { i: 0, j, k }, Update),
            (TaskKind::Tsqrt { p, i, k }, Elimination),
            (TaskKind::Tsmqr { p, i, j, k }, Update),
            (TaskKind::Ttqrt { p, i, k }, Elimination),
            (TaskKind::Ttmqr { p, i, j, k }, Update),
        ];
        for (task, class) in table {
            assert_eq!(KernelClass::of(task), class, "{task:?}");
        }
        for (slot, class) in KernelClass::ALL.into_iter().enumerate() {
            assert_eq!(class.slot(), slot);
        }
    }

    #[test]
    fn cubic_dominates_at_large_tiles() {
        let t = CostCurve {
            c0: 20.0,
            c1: 0.02,
            c2: 0.019,
        };
        let r = t.eval_us(56) / t.eval_us(28);
        assert!(r > 6.0 && r < 8.5, "expected near-cubic growth, got {r}");
    }

    #[test]
    fn overhead_dominates_at_small_tiles() {
        let t = CostCurve {
            c0: 20.0,
            c1: 0.02,
            c2: 0.019,
        };
        assert!(t.eval_us(4) < 1.2 * t.c0);
    }

    #[test]
    fn scaled_applies_per_slot() {
        let c = costs().scaled(3.0);
        for class in KernelClass::ALL {
            let (got, base) = (c.curve(class).eval_us(8), costs().curve(class).eval_us(8));
            assert!((got - 3.0 * base).abs() < 1e-9, "{class:?}");
        }
    }

    #[test]
    fn model_names_and_extraction() {
        // The default stays inert: a job that names no model is weighed
        // by flops, exactly as a one-shot run.
        assert_eq!(CostModel::default(), CostModel::Flops);
        let m = CostModel::Calibrated(costs());
        assert!(matches!(m, CostModel::Calibrated(c) if c == costs()));
    }
}
