//! Service-level online autotuning.
//!
//! [`TunedQrService`] wraps a resident [`QrService`] with a per-shape
//! profile cache that closes the calibration loop end to end:
//!
//! 1. The **first jobs** of each `(rows, cols)` shape class run as
//!    *calibration probes* — one per candidate tile size, tagged
//!    [`JobTuning::Probe`] — and their per-class kernel timings
//!    ([`tileqr_runtime::JobResult::class_compute_us`]) are folded into a
//!    sample set.
//! 2. Once three distinct tile sizes have produced samples for every
//!    kernel class, the curves are fit
//!    ([`tileqr_obs::fit_step_times`]) into a calibrated
//!    [`DeviceProfile`] and the shape flips to *tuned*.
//! 3. **Every later job** of that shape runs the plan the measured
//!    profile selects: at the flip, `tileqr_sched::select::select_plan`
//!    list-schedules `(tile size, elimination tree)` candidates over the
//!    fitted curves (`tileqr_dag::list_makespan`) — once per fitted
//!    profile, not per job — and the winner runs tagged
//!    [`JobTuning::Tuned`] with its [`JobSpec::cost_model`] set to
//!    [`tileqr_runtime::CostModel::Calibrated`]: the measured curves
//!    price its WFQ charge. This is the one road by which measured costs
//!    reach a run.
//! 4. Fitted profiles **persist** as JSON
//!    ([`tileqr_obs::ProfileStore`]): point `TILEQR_PROFILE` (or
//!    [`TunerConfig::profile_path`]) at a store file and later services
//!    warm-start tuned — zero probe jobs for known shapes.
//!
//! The Song-style probe tuner and the geometry-aware tree selector are
//! one tuning path over real measurements — [`TunedQrService`] in front
//! of `tileqr_sched::select::select_plan`: the probe *is* the
//! calibration run, and the sweep is a schedule over fitted curves
//! instead of repeated real runs.
//!
//! Probing is a scheduling concern only — probe jobs produce exactly the
//! same bit-exact factors as tuned or standard jobs.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::factor::TiledQr;
use tileqr_dag::{EliminationTree, KernelClass, TreePolicy};
use tileqr_matrix::{Matrix, MatrixError, Result, Scalar};
use tileqr_obs::{
    cost_model, default_profile_path, fit_step_times, fitted_profile, KernelSample, ProfileStore,
};
use tileqr_runtime::service::{
    JobOutput, JobResult, JobSpec, JobTuning, QrService, ServiceConfig, ServiceStats,
};
use tileqr_runtime::RunReport;
use tileqr_sched::select::{select_plan, Selection};
use tileqr_sim::{DeviceKind, DeviceProfile};

/// Knobs for the online tuner.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Tile sizes probed per shape class *and* swept by the plan
    /// selector once calibrated. At least three distinct sizes are
    /// needed before the per-class cubic curves can be fit.
    pub probe_tiles: Vec<usize>,
    /// Explicit profile-store path. `None` falls back to the
    /// `TILEQR_PROFILE` environment variable
    /// ([`tileqr_obs::default_profile_path`]); if neither is set,
    /// profiles live only in memory.
    pub profile_path: Option<PathBuf>,
}

impl Default for TunerConfig {
    /// Probe tiles `[8, 16, 32]` (the paper's tile size bracketed one
    /// octave each way), persistence from the environment.
    fn default() -> Self {
        TunerConfig {
            probe_tiles: vec![8, 16, 32],
            profile_path: None,
        }
    }
}

/// What the tuner knows about one `(rows, cols)` shape class.
enum ShapeEntry {
    /// Still collecting probe samples.
    Probing {
        samples: Vec<KernelSample>,
        probed: Vec<usize>,
    },
    /// Calibrated: plans resolve from this fitted profile. The selector's
    /// inputs change only when the profile is refitted, so its ranking is
    /// computed once, here, not per job.
    Ready {
        profile: DeviceProfile,
        selection: Selection,
    },
}

impl ShapeEntry {
    fn ready(profile: DeviceProfile, rows: usize, cols: usize, probe_tiles: &[usize]) -> Self {
        let selection = select_plan(&profile, rows, cols, probe_tiles);
        ShapeEntry::Ready { profile, selection }
    }
}

/// The plan one job runs under (resolved at submit time).
#[derive(Debug, Clone, PartialEq)]
pub enum JobPlan {
    /// Calibration probe at a fixed tile size (flat tree, flop costs).
    Probe {
        /// Tile size being probed.
        tile_size: usize,
    },
    /// Measured plan: selector-chosen tile size and tree, calibrated
    /// priorities.
    Tuned {
        /// Selector-chosen tile size.
        tile_size: usize,
        /// Selector-chosen elimination tree.
        tree: EliminationTree,
    },
    /// Probes exhausted without a fittable profile (degenerate shapes
    /// that never exercise all kernel classes); runs with defaults.
    Standard,
}

impl JobPlan {
    /// The measured plan a calibrated shape's ranking stands for.
    fn tuned(selection: &Selection) -> Self {
        JobPlan::Tuned {
            tile_size: selection.best.tile_size,
            tree: selection.best.tree,
        }
    }
}

/// A resident [`QrService`] with an online per-shape autotuner in front
/// of it — see the [module docs](self) for the calibration loop.
pub struct TunedQrService<T: Scalar> {
    service: QrService<T>,
    shapes: Mutex<HashMap<(usize, usize), ShapeEntry>>,
    probe_tiles: Vec<usize>,
    path: Option<PathBuf>,
    cores: usize,
}

impl<T: Scalar> TunedQrService<T> {
    /// Start the service with default tuner knobs (probe tiles
    /// `[8, 16, 32]`, persistence from `TILEQR_PROFILE`).
    pub fn start(config: ServiceConfig) -> Self {
        Self::start_with(config, TunerConfig::default())
    }

    /// Start the service with explicit tuner knobs. Loads the profile
    /// store (if a path resolves and the file parses) so shapes
    /// calibrated by earlier runs warm-start tuned.
    pub fn start_with(config: ServiceConfig, tuner: TunerConfig) -> Self {
        assert!(
            !tuner.probe_tiles.is_empty(),
            "need at least one probe tile"
        );
        let cores = config.effective_workers().max(1);
        let path = tuner.profile_path.or_else(default_profile_path);
        let mut shapes = HashMap::new();
        if let Some(p) = &path {
            if let Ok(store) = ProfileStore::load(p) {
                for (key, profile) in store.entries {
                    if let Some((rows, cols)) = parse_shape_key(&key) {
                        let entry = ShapeEntry::ready(profile, rows, cols, &tuner.probe_tiles);
                        shapes.insert((rows, cols), entry);
                    }
                }
            }
        }
        TunedQrService {
            service: QrService::start(config),
            shapes: Mutex::new(shapes),
            probe_tiles: tuner.probe_tiles,
            path,
            cores,
        }
    }

    /// The shape table. A panic under its lock — a fit or a selection on
    /// hostile samples — leaves it structurally valid (the shape is still
    /// `Probing`, with the samples it had), so a poisoned lock is taken
    /// anyway: later submissions degrade to probing instead of panicking.
    fn shapes(&self) -> MutexGuard<'_, HashMap<(usize, usize), ShapeEntry>> {
        self.shapes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The wrapped service, for submitting untuned jobs alongside.
    pub fn service(&self) -> &QrService<T> {
        &self.service
    }

    /// Fitted profile for a shape class, once calibrated.
    pub fn profile_for(&self, rows: usize, cols: usize) -> Option<DeviceProfile> {
        match self.shapes().get(&(rows, cols)) {
            Some(ShapeEntry::Ready { profile, .. }) => Some(profile.clone()),
            _ => None,
        }
    }

    /// The full selector ranking a tuned shape's next job would plan
    /// from (`None` while the shape is still probing).
    pub fn selection_for(&self, rows: usize, cols: usize) -> Option<Selection> {
        match self.shapes().get(&(rows, cols)) {
            Some(ShapeEntry::Ready { selection, .. }) => Some(selection.clone()),
            _ => None,
        }
    }

    /// The plan the *next* `factor` call of this shape would run under
    /// (does not consume a probe slot).
    pub fn plan_for(&self, rows: usize, cols: usize) -> JobPlan {
        match self.shapes().get(&(rows, cols)) {
            Some(ShapeEntry::Ready { selection, .. }) => JobPlan::tuned(selection),
            Some(ShapeEntry::Probing { probed, .. }) => {
                match self.probe_tiles.iter().find(|b| !probed.contains(b)) {
                    Some(&b) => JobPlan::Probe { tile_size: b },
                    None => JobPlan::Standard,
                }
            }
            None => JobPlan::Probe {
                tile_size: self.probe_tiles[0],
            },
        }
    }

    /// Factor `a` through the tuned service (blocking). Returns the
    /// factorization, the job's [`RunReport`], and the plan it ran
    /// under.
    pub fn factor(&self, a: &Matrix<T>) -> Result<(TiledQr<T>, RunReport, JobPlan)> {
        let (rows, cols) = a.dims();
        let plan = self.claim_plan(rows, cols);
        let spec = match &plan {
            JobPlan::Probe { tile_size } => JobSpec::factor(a.clone())
                .tile_size(*tile_size)
                .tuning(JobTuning::Probe),
            JobPlan::Tuned { tile_size, tree } => {
                let profile = self
                    .profile_for(rows, cols)
                    .expect("tuned plan implies a fitted profile");
                JobSpec::factor(a.clone())
                    .tile_size(*tile_size)
                    .tree(TreePolicy::Fixed(*tree))
                    .cost_model(cost_model(&profile))
                    .tuning(JobTuning::Tuned)
            }
            JobPlan::Standard => JobSpec::factor(a.clone()),
        };
        let handle = self.service.submit(spec).map_err(MatrixError::from)?;
        let result = handle.wait().map_err(MatrixError::from)?;
        if let JobPlan::Probe { tile_size } = plan {
            self.absorb_probe(rows, cols, tile_size, &result);
        }
        let report = result.report;
        let JobOutput::Factored(f) = result.output else {
            return Err(MatrixError::Runtime {
                reason: "service returned a non-factor output for a factor job".to_string(),
            });
        };
        Ok((TiledQr::from_job(f), report, plan))
    }

    /// Snapshot of the wrapped service's counters (probe vs tuned job
    /// counts live in [`ServiceStats::probe_jobs`] /
    /// [`ServiceStats::tuned_jobs`]).
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Drain and stop the wrapped service.
    pub fn shutdown(self) -> ServiceStats {
        self.service.shutdown()
    }

    /// Resolve (and claim, for probes) the plan for one submission.
    fn claim_plan(&self, rows: usize, cols: usize) -> JobPlan {
        let mut shapes = self.shapes();
        let entry = shapes
            .entry((rows, cols))
            .or_insert_with(|| ShapeEntry::Probing {
                samples: Vec::new(),
                probed: Vec::new(),
            });
        match entry {
            ShapeEntry::Ready { selection, .. } => JobPlan::tuned(selection),
            ShapeEntry::Probing { probed, .. } => {
                match self.probe_tiles.iter().find(|b| !probed.contains(b)) {
                    Some(&b) => {
                        probed.push(b);
                        JobPlan::Probe { tile_size: b }
                    }
                    None => JobPlan::Standard,
                }
            }
        }
    }

    /// Fold one probe job's per-class means into the shape's sample set
    /// and fit a profile once enough distinct tile sizes reported.
    fn absorb_probe(&self, rows: usize, cols: usize, b: usize, result: &JobResult<T>) {
        let mut shapes = self.shapes();
        let Some(ShapeEntry::Probing { samples, .. }) = shapes.get_mut(&(rows, cols)) else {
            return;
        };
        for class in KernelClass::ALL {
            let slot = class.slot();
            let n = result.class_tasks[slot];
            if n > 0 {
                samples.push(KernelSample {
                    class,
                    tile_size: b,
                    duration_us: result.class_compute_us[slot] / n as f64,
                });
            }
        }
        if let Some(times) = fit_step_times(samples) {
            let profile = fitted_profile(
                &format!("tuned-{rows}x{cols}"),
                DeviceKind::Cpu,
                self.cores,
                times,
            );
            self.persist(rows, cols, &profile);
            let entry = ShapeEntry::ready(profile, rows, cols, &self.probe_tiles);
            shapes.insert((rows, cols), entry);
        }
    }

    /// Best-effort write-through of a freshly fitted profile.
    fn persist(&self, rows: usize, cols: usize, profile: &DeviceProfile) {
        let Some(path) = &self.path else { return };
        let mut store = ProfileStore::load(path).unwrap_or_default();
        store.insert(&format!("{rows}x{cols}"), profile.clone());
        let _ = store.save(path);
    }
}

/// Parse a `"RxC"` store key back into a shape class. The store is a
/// file from outside: an empty shape is no shape (the selector, run on
/// every loaded entry, rejects it).
fn parse_shape_key(key: &str) -> Option<(usize, usize)> {
    let (r, c) = key.split_once('x')?;
    let shape: (usize, usize) = (r.parse().ok()?, c.parse().ok()?);
    (shape.0 > 0 && shape.1 > 0).then_some(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::gen::random_matrix;

    fn service() -> TunedQrService<f64> {
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        TunedQrService::start_with(
            config,
            TunerConfig {
                probe_tiles: vec![4, 8, 16],
                profile_path: None,
            },
        )
    }

    #[test]
    fn a_panic_under_the_shape_lock_degrades_to_probing() {
        let svc = service();
        let a = random_matrix::<f64>(32, 32, 9);
        assert!(matches!(svc.factor(&a).unwrap().2, JobPlan::Probe { .. }));
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _shapes = svc.shapes.lock().unwrap();
                panic!("mid-fit");
            })
            .join()
        });
        assert!(died.is_err() && svc.shapes.is_poisoned());
        // The shape keeps probing where it was; nothing panics again.
        assert_eq!(svc.plan_for(32, 32), JobPlan::Probe { tile_size: 8 });
        assert!(svc.profile_for(32, 32).is_none());
        let (f, _, plan) = svc.factor(&a).unwrap();
        assert_eq!(plan, JobPlan::Probe { tile_size: 8 });
        let seq = TiledQr::factor(&a, &crate::QrOptions::new().tile_size(8)).unwrap();
        assert_eq!(f.r(), seq.r());
        assert_eq!(svc.shutdown().probe_jobs, 2);
    }

    #[test]
    fn probes_then_tunes_one_shape_class() {
        let svc = service();
        let a = random_matrix::<f64>(48, 48, 7);
        // Three probes (one per candidate tile), each bit-exact against
        // a sequential run of the same plan.
        for round in 0..3 {
            let (f, _, plan) = svc.factor(&a).unwrap();
            let JobPlan::Probe { tile_size } = plan else {
                panic!("round {round} should probe, got {plan:?}");
            };
            let seq = TiledQr::factor(&a, &crate::QrOptions::new().tile_size(tile_size)).unwrap();
            assert_eq!(f.r(), seq.r(), "probe jobs stay bit-exact");
        }
        // Fourth job runs tuned off the fitted profile.
        let profile = svc.profile_for(48, 48).expect("profile fitted");
        assert!(profile.cores >= 1);
        assert_eq!(
            svc.selection_for(48, 48),
            Some(select_plan(&profile, 48, 48, &[4, 8, 16])),
            "the kept ranking is the selector's on the fitted profile"
        );
        let (f, _, plan) = svc.factor(&a).unwrap();
        let JobPlan::Tuned { tile_size, tree } = plan else {
            panic!("expected a tuned plan, got {plan:?}");
        };
        let seq = TiledQr::factor(
            &a,
            &crate::QrOptions::new()
                .tile_size(tile_size)
                .tree(TreePolicy::Fixed(tree)),
        )
        .unwrap();
        assert_eq!(f.r(), seq.r(), "tuned jobs stay bit-exact");
        let stats = svc.shutdown();
        assert_eq!(stats.probe_jobs, 3);
        assert_eq!(stats.tuned_jobs, 1);
    }

    #[test]
    fn plan_preview_does_not_consume_probe_slots() {
        let svc = service();
        assert_eq!(svc.plan_for(48, 48), JobPlan::Probe { tile_size: 4 });
        assert_eq!(
            svc.plan_for(48, 48),
            JobPlan::Probe { tile_size: 4 },
            "preview must not claim the slot"
        );
        svc.shutdown();
    }

    #[test]
    fn store_key_parses_shapes() {
        assert_eq!(parse_shape_key("256x128"), Some((256, 128)));
        assert_eq!(parse_shape_key("junk"), None);
        assert_eq!(parse_shape_key("12x"), None);
        assert_eq!(parse_shape_key("0x8"), None);
    }
}
