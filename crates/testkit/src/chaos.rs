//! Seeded chaos storms against a live [`QrService`].
//!
//! A *storm* is a reproducible burst of concurrent jobs where each job
//! draws one disturbance from a seeded stream — worker panic, transient
//! kernel failure, scripted stall (with the watchdog armed), NaN at
//! submission, NaN injected mid-run, cooperative cancel, an already
//! expired deadline, or nothing at all — plus a saturation probe against
//! a bounded admission gate. [`run_storm`] drives the storm end to end
//! and asserts the service's global lifecycle invariants:
//!
//! * **No job is lost or hung**: every submitted handle resolves within
//!   a generous bound, and `jobs_completed + jobs_failed` accounts for
//!   every admitted job after a clean drain.
//! * **Unaffected jobs are unaffected**: every successful output is
//!   bit-identical to the sequential factorization of the same matrix,
//!   no matter what happened to its neighbours.
//! * **Counters tell the truth**: observed `Cancelled` /
//!   `DeadlineExceeded` / mid-run `NumericalBreakdown` errors equal the
//!   service's `jobs_cancelled` / `jobs_shed` / `poison_detected`
//!   lifecycle counters, and injected stalls force at least one
//!   watchdog retirement.
//!
//! Storms are pure functions of [`ChaosConfig::seed`]: a CI failure
//! reproduces locally from the seed printed in the event log.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::rng::Rng64;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::service::WaitTimeout;
use tileqr_runtime::{
    FaultTolerance, JobHandle, JobSpec, QrService, ScriptedFaults, ServiceConfig, ServiceError,
    ServiceStats,
};

/// How long a storm waits for any single handle before declaring the
/// job hung. Generous: storms use tiny matrices, so even heavily
/// disturbed jobs resolve in milliseconds.
const RESOLVE_BOUND: Duration = Duration::from_secs(30);

/// Configuration of one chaos storm.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed of the disturbance stream; equal seeds replay exactly.
    pub seed: u64,
    /// Worker threads of the service under storm.
    pub workers: usize,
    /// Jobs submitted by the storm.
    pub jobs: usize,
    /// Tile size of every job.
    pub tile: usize,
    /// Admission bound (`0` = unbounded). Bounded storms exercise
    /// blocking backpressure plus a `try_submit` saturation probe.
    pub max_in_flight: usize,
    /// Watchdog bound. Storms that draw stalls need this armed; the
    /// injected stall sleeps several multiples of it.
    pub stall_timeout: Option<Duration>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            workers: 2,
            jobs: 6,
            tile: 8,
            max_in_flight: 0,
            stall_timeout: Some(Duration::from_millis(25)),
        }
    }
}

/// The disturbance one storm job draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disturbance {
    /// No injection: the job must succeed bit-identically.
    Clean,
    /// Worker panic on the first attempt of a random task.
    Panic,
    /// Transient kernel error on the first attempt of a random task.
    Transient,
    /// Scripted stall long enough to trip the watchdog.
    Stall,
    /// NaN planted in the input matrix (rejected at submission).
    PoisonSubmit,
    /// NaN injected into a panel-factor output mid-run (caught at the
    /// commit fence).
    PoisonMidRun,
    /// Cooperative cancel racing completion.
    Cancel,
    /// Deadline already expired at submission (deterministic shed).
    Deadline,
}

impl Disturbance {
    /// Stable lowercase name for event logs.
    pub fn name(self) -> &'static str {
        match self {
            Disturbance::Clean => "clean",
            Disturbance::Panic => "panic",
            Disturbance::Transient => "transient",
            Disturbance::Stall => "stall",
            Disturbance::PoisonSubmit => "poison_submit",
            Disturbance::PoisonMidRun => "poison_midrun",
            Disturbance::Cancel => "cancel",
            Disturbance::Deadline => "deadline",
        }
    }
}

/// How one storm job resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Successful result, verified bit-identical to the sequential run.
    Identical,
    /// `ServiceError::Cancelled`.
    Cancelled,
    /// `ServiceError::DeadlineExceeded`.
    Shed,
    /// `ServiceError::NumericalBreakdown` (submission or mid-run).
    Poisoned,
}

impl Outcome {
    /// Stable lowercase name for event logs.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Identical => "identical",
            Outcome::Cancelled => "cancelled",
            Outcome::Shed => "shed",
            Outcome::Poisoned => "poisoned",
        }
    }
}

/// One storm job's ledger entry.
#[derive(Debug, Clone)]
pub struct StormEvent {
    /// Storm seed (repeated per event so a log line is self-contained).
    pub seed: u64,
    /// Job index within the storm.
    pub job: usize,
    /// Matrix dimension (`n x n`).
    pub n: usize,
    /// Disturbance the job drew.
    pub disturbance: Disturbance,
    /// How the job resolved.
    pub outcome: Outcome,
}

/// Everything a storm observed, for assertions and artifact logs.
#[derive(Debug)]
pub struct StormReport {
    /// The storm's seed.
    pub seed: u64,
    /// Per-job ledger in submission order.
    pub events: Vec<StormEvent>,
    /// Saturation probes rejected with `ServiceError::Saturated`.
    pub saturation_rejections: u64,
    /// Final service stats after the drain.
    pub stats: ServiceStats,
}

impl StormReport {
    /// Event log as JSON lines (one object per storm event), suitable
    /// for appending to a CI artifact.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{{\"seed\":{},\"job\":{},\"n\":{},\"disturbance\":\"{}\",\"outcome\":\"{}\"}}\n",
                e.seed,
                e.job,
                e.n,
                e.disturbance.name(),
                e.outcome.name()
            ));
        }
        out
    }

    /// Count of events with a given outcome.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.events.iter().filter(|e| e.outcome == outcome).count() as u64
    }
}

/// Sequential ground truth, cached per `(n, seed)` across storms.
pub struct GroundTruth {
    cache: HashMap<(usize, u64), Matrix<f64>>,
    tile: usize,
}

impl GroundTruth {
    /// Empty cache for a given tile size.
    pub fn new(tile: usize) -> Self {
        GroundTruth {
            cache: HashMap::new(),
            tile,
        }
    }

    /// Final tile state of the sequential factorization of
    /// `random_matrix(n, n, seed)`.
    pub fn tiles(&mut self, n: usize, seed: u64) -> &Matrix<f64> {
        let tile = self.tile;
        self.cache.entry((n, seed)).or_insert_with(|| {
            let a = random_matrix::<f64>(n, n, seed);
            let tiled = TiledMatrix::from_matrix(&a, tile).unwrap();
            let g =
                TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
            let mut st = FactorState::new(tiled);
            st.run_all(&g).unwrap();
            st.tiles().to_matrix()
        })
    }
}

/// Matrix dimensions the storm draws from (kept tiny: chaos coverage
/// comes from storm count, not job size).
const SIZES: [usize; 3] = [16, 24, 32];

/// Matrix seeds the storm draws from — a small pool so the sequential
/// ground-truth cache stays hot across hundreds of jobs.
const MATRIX_SEEDS: [u64; 4] = [9001, 9002, 9003, 9004];

fn pick<T: Copy>(rng: &mut Rng64, options: &[T]) -> T {
    options[rng.range_i64(0, options.len() as i64 - 1) as usize]
}

/// Number of tasks in the FlatTs DAG of an `n x n` matrix at tile size
/// `b` (used to aim scripted faults at a random but valid task).
fn dag_len(n: usize, b: usize) -> usize {
    let t = n.div_ceil(b);
    TaskGraph::build_tree(t, t, EliminationTree::Flat).len()
}

/// Run one seeded storm and assert the global lifecycle invariants.
/// Panics (failing the calling test) on any violation.
pub fn run_storm(cfg: &ChaosConfig, truth: &mut GroundTruth) -> StormReport {
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: cfg.workers,
        max_in_flight: cfg.max_in_flight,
        fault_tolerance: FaultTolerance {
            stall_timeout: cfg.stall_timeout,
            ..FaultTolerance::default()
        },
    });

    let stall_armed = cfg.stall_timeout.is_some();
    let menu: &[Disturbance] = if stall_armed {
        &[
            Disturbance::Clean,
            Disturbance::Panic,
            Disturbance::Transient,
            Disturbance::Stall,
            Disturbance::PoisonSubmit,
            Disturbance::PoisonMidRun,
            Disturbance::Cancel,
            Disturbance::Deadline,
        ]
    } else {
        &[
            Disturbance::Clean,
            Disturbance::Panic,
            Disturbance::Transient,
            Disturbance::PoisonSubmit,
            Disturbance::PoisonMidRun,
            Disturbance::Cancel,
            Disturbance::Deadline,
        ]
    };

    struct Pending {
        job: usize,
        n: usize,
        seed: u64,
        disturbance: Disturbance,
        handle: JobHandle<f64>,
    }
    let mut pending: Vec<Pending> = Vec::new();
    let mut events: Vec<StormEvent> = Vec::new();
    let mut stalls_injected = 0u64;
    let mut saturation_rejections = 0u64;

    for job in 0..cfg.jobs {
        let n = pick(&mut rng, &SIZES);
        let mseed = pick(&mut rng, &MATRIX_SEEDS);
        let disturbance = pick(&mut rng, menu);
        let mut a = random_matrix::<f64>(n, n, mseed);
        let target = rng.range_i64(0, dag_len(n, cfg.tile) as i64 - 1) as usize;
        let mut spec = JobSpec::factor(a.clone()).tile_size(cfg.tile);
        match disturbance {
            Disturbance::Clean | Disturbance::Cancel => {}
            Disturbance::Panic => {
                spec = spec.faults(Arc::new(ScriptedFaults::new().panic_on(target, 1)));
            }
            Disturbance::Transient => {
                spec = spec.faults(Arc::new(ScriptedFaults::new().fail_on(target, 1)));
            }
            Disturbance::Stall => {
                let bound = cfg.stall_timeout.expect("stall storms arm the watchdog");
                spec = spec.faults(Arc::new(ScriptedFaults::new().stall_on(
                    target,
                    1,
                    bound * 4,
                )));
                stalls_injected += 1;
            }
            Disturbance::PoisonSubmit => {
                let i = rng.range_i64(0, n as i64 - 1) as usize;
                let j = rng.range_i64(0, n as i64 - 1) as usize;
                a.set(i, j, f64::NAN).unwrap();
                spec = JobSpec::factor(a.clone()).tile_size(cfg.tile);
            }
            Disturbance::PoisonMidRun => {
                // Task 0 is always a panel factor (the first GEQRT), so
                // the corruption hits the commit-fence scan.
                spec = spec.faults(Arc::new(ScriptedFaults::new().poison_on(0, 1)));
            }
            Disturbance::Deadline => {
                spec = spec.deadline(Duration::ZERO);
            }
        }
        match svc.submit(spec) {
            Ok(handle) => {
                if disturbance == Disturbance::Cancel {
                    handle.cancel();
                }
                pending.push(Pending {
                    job,
                    n,
                    seed: mseed,
                    disturbance,
                    handle,
                });
            }
            Err(ServiceError::NumericalBreakdown { task: None, .. })
                if disturbance == Disturbance::PoisonSubmit =>
            {
                events.push(StormEvent {
                    seed: cfg.seed,
                    job,
                    n,
                    disturbance,
                    outcome: Outcome::Poisoned,
                });
            }
            Err(e) => panic!("storm {}: job {job} submit failed: {e}", cfg.seed),
        }
        // Saturation probe: under a bounded gate, fire an extra
        // non-blocking submission that is allowed to bounce.
        if cfg.max_in_flight > 0 && rng.chance(0.5) {
            let probe = random_matrix::<f64>(16, 16, MATRIX_SEEDS[0]);
            match svc.try_submit(JobSpec::factor(probe).tile_size(cfg.tile)) {
                Ok(h) => pending.push(Pending {
                    job,
                    n: 16,
                    seed: MATRIX_SEEDS[0],
                    disturbance: Disturbance::Clean,
                    handle: h,
                }),
                Err(ServiceError::Saturated {
                    in_flight,
                    max_in_flight,
                }) => {
                    assert_eq!(
                        max_in_flight, cfg.max_in_flight,
                        "storm {}: saturation payload mismatch",
                        cfg.seed
                    );
                    assert!(in_flight >= max_in_flight);
                    saturation_rejections += 1;
                }
                Err(e) => panic!("storm {}: probe failed unexpectedly: {e}", cfg.seed),
            }
        }
    }

    // Every handle must resolve within the bound — a hung job fails the
    // storm long before the suite's own timeout would.
    for p in pending {
        let resolved = match p.handle.wait_timeout(RESOLVE_BOUND) {
            Ok(r) => r,
            Err(WaitTimeout) => panic!(
                "storm {}: job {} ({}) hung past {RESOLVE_BOUND:?}",
                cfg.seed,
                p.job,
                p.disturbance.name()
            ),
        };
        let outcome = match resolved {
            Ok(result) => {
                let got = result.output.factor().state.tiles().to_matrix();
                assert_eq!(
                    &got,
                    truth.tiles(p.n, p.seed),
                    "storm {}: job {} ({}) diverged from the sequential run",
                    cfg.seed,
                    p.job,
                    p.disturbance.name()
                );
                Outcome::Identical
            }
            Err(ServiceError::Cancelled) => {
                assert_eq!(
                    p.disturbance,
                    Disturbance::Cancel,
                    "storm {}: job {} cancelled without a cancel request",
                    cfg.seed,
                    p.job
                );
                Outcome::Cancelled
            }
            Err(ServiceError::DeadlineExceeded { .. }) => {
                assert_eq!(
                    p.disturbance,
                    Disturbance::Deadline,
                    "storm {}: job {} shed without a deadline",
                    cfg.seed,
                    p.job
                );
                Outcome::Shed
            }
            Err(ServiceError::NumericalBreakdown { task: Some(t), .. }) => {
                assert_eq!(
                    p.disturbance,
                    Disturbance::PoisonMidRun,
                    "storm {}: job {} poisoned without an injection",
                    cfg.seed,
                    p.job
                );
                assert_eq!(t, 0, "poison was scripted on task 0");
                Outcome::Poisoned
            }
            Err(e) => panic!(
                "storm {}: job {} ({}) failed unexpectedly: {e}",
                cfg.seed,
                p.job,
                p.disturbance.name()
            ),
        };
        events.push(StormEvent {
            seed: cfg.seed,
            job: p.job,
            n: p.n,
            disturbance: p.disturbance,
            outcome,
        });
    }

    // Clean drain, then audit the books.
    let stats = svc.shutdown();
    let report = StormReport {
        seed: cfg.seed,
        events,
        saturation_rejections,
        stats,
    };
    let s = &report.stats;
    assert_eq!(
        s.jobs_completed,
        report.count(Outcome::Identical),
        "storm {}: completion counter drifted from observed results",
        cfg.seed
    );
    assert_eq!(
        s.jobs_completed + s.jobs_failed,
        s.jobs_submitted,
        "storm {}: drain lost jobs ({} + {} != {})",
        cfg.seed,
        s.jobs_completed,
        s.jobs_failed,
        s.jobs_submitted
    );
    assert_eq!(
        s.lifecycle.jobs_cancelled,
        report.count(Outcome::Cancelled),
        "storm {}: jobs_cancelled drifted",
        cfg.seed
    );
    assert_eq!(
        s.lifecycle.jobs_shed,
        report.count(Outcome::Shed),
        "storm {}: jobs_shed drifted",
        cfg.seed
    );
    // Submission-time poison never reaches the manager, so the counter
    // tracks only mid-run detections.
    let midrun = report
        .events
        .iter()
        .filter(|e| e.disturbance == Disturbance::PoisonMidRun && e.outcome == Outcome::Poisoned)
        .count() as u64;
    assert_eq!(
        s.lifecycle.poison_detected, midrun,
        "storm {}: poison_detected drifted",
        cfg.seed
    );
    if stalls_injected > 0 {
        assert!(
            s.lifecycle.watchdog_retirements >= 1,
            "storm {}: {stalls_injected} stalls injected but the watchdog never fired",
            cfg.seed
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_replay_from_their_seed() {
        let cfg = ChaosConfig {
            seed: 77,
            jobs: 4,
            ..ChaosConfig::default()
        };
        let mut truth = GroundTruth::new(cfg.tile);
        let a = run_storm(&cfg, &mut truth);
        let b = run_storm(&cfg, &mut truth);
        let key = |r: &StormReport| {
            let mut evs: Vec<(usize, &'static str, &'static str)> = r
                .events
                .iter()
                .map(|e| (e.job, e.disturbance.name(), e.outcome.name()))
                .collect();
            evs.sort_unstable();
            evs
        };
        // Disturbance draws are seed-determined; outcomes may differ only
        // where the spec races (cancel vs completion).
        let da: Vec<_> = key(&a).iter().map(|e| (e.0, e.1)).collect();
        let db: Vec<_> = key(&b).iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn jsonl_is_one_object_per_event() {
        let cfg = ChaosConfig {
            seed: 78,
            jobs: 3,
            ..ChaosConfig::default()
        };
        let mut truth = GroundTruth::new(cfg.tile);
        let r = run_storm(&cfg, &mut truth);
        let log = r.to_jsonl();
        assert_eq!(log.lines().count(), r.events.len());
        for line in log.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"disturbance\""));
        }
    }
}
