//! The calibration loop's service half: online probing, plan selection
//! from measured profiles, persistence, and warm starts.
//!
//! - Profile **round-trip**: a fitted profile saved to the JSON store
//!   and loaded back drives *identical* selector decisions.
//! - **Warm start**: a second service pointed at the first one's store
//!   runs every job tuned — zero probes — and its plans match the ones
//!   the first service converged to.
//! - **Accounting**: [`ServiceStats::probe_jobs`] /
//!   [`ServiceStats::tuned_jobs`] count the transition per shape class.
//! - **Bit identity**: probe and tuned jobs alike match the sequential
//!   run of the same plan.

use std::path::PathBuf;
use tileqr::dag::TreePolicy;
use tileqr::runtime::ServiceConfig;
use tileqr::{JobPlan, QrOptions, TiledQr, TunedQrService, TunerConfig};
use tileqr_dag::{ClassCosts, CostCurve};
use tileqr_matrix::gen::random_matrix;
use tileqr_obs::ProfileStore;
use tileqr_sched::select::select_plan;
use tileqr_sim::{DeviceKind, DeviceProfile};

/// A unique scratch path per test (the suites run in one process; the
/// names must not collide).
fn scratch_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tileqr-autotune-{tag}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn synthetic_profile(cores: usize) -> DeviceProfile {
    let t = |c0: f64, c2: f64| CostCurve { c0, c1: 0.0, c2 };
    DeviceProfile {
        name: format!("synthetic-{cores}c"),
        kind: DeviceKind::Cpu,
        cores,
        times: ClassCosts {
            triangulation: t(2.0, 0.004),
            elimination: t(2.0, 0.004),
            update: t(2.0, 0.006),
        },
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

fn tuner(tiles: &[usize], path: Option<PathBuf>) -> TunerConfig {
    TunerConfig {
        probe_tiles: tiles.to_vec(),
        profile_path: path,
    }
}

/// Save → load → identical selector decisions, across several shapes
/// and candidate sets.
#[test]
fn profile_round_trip_preserves_selector_decisions() {
    let path = scratch_path("roundtrip");
    let profile = synthetic_profile(4);
    let mut store = ProfileStore::new();
    store.insert("256x128", profile.clone());
    store.save(&path).unwrap();

    let loaded_store = ProfileStore::load(&path).unwrap();
    let loaded = loaded_store.get("256x128").expect("key survives");
    assert_eq!(loaded, &profile, "profile must round-trip exactly");

    for (rows, cols) in [(256usize, 128usize), (512, 64), (96, 96)] {
        for tiles in [&[8usize, 16, 32][..], &[16, 32, 64][..]] {
            let a = select_plan(&profile, rows, cols, tiles);
            let b = select_plan(loaded, rows, cols, tiles);
            assert_eq!(
                a, b,
                "selector diverged after round-trip ({rows}x{cols}, tiles {tiles:?})"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// First service probes, fits, persists; second service warm-starts
/// tuned with zero probe jobs and makes the same plans.
#[test]
fn warm_start_skips_probing() {
    let path = scratch_path("warmstart");
    let a = random_matrix::<f64>(48, 48, 23);
    let tiles = [4usize, 8, 16];

    // Cold service: three probes fit the profile and write the store.
    let cold: TunedQrService<f64> =
        TunedQrService::start_with(service_config(), tuner(&tiles, Some(path.clone())));
    for _ in 0..3 {
        let (_, _, plan) = cold.factor(&a).unwrap();
        assert!(matches!(plan, JobPlan::Probe { .. }), "got {plan:?}");
    }
    let cold_selection = cold.selection_for(48, 48).expect("profile fitted");
    let cold_stats = cold.shutdown();
    assert_eq!(cold_stats.probe_jobs, 3);
    assert_eq!(cold_stats.tuned_jobs, 0);
    assert!(path.exists(), "fitted profile must persist to the store");

    // Warm service: the same path, no probes, identical plan.
    let warm: TunedQrService<f64> =
        TunedQrService::start_with(service_config(), tuner(&tiles, Some(path.clone())));
    let preview = warm.plan_for(48, 48);
    assert!(
        matches!(preview, JobPlan::Tuned { .. }),
        "warm start must plan tuned immediately, got {preview:?}"
    );
    let warm_selection = warm.selection_for(48, 48).expect("profile loaded");
    assert_eq!(
        warm_selection, cold_selection,
        "the loaded profile must reproduce the fitted service's plan"
    );
    let (_, _, plan) = warm.factor(&a).unwrap();
    assert!(matches!(plan, JobPlan::Tuned { .. }), "got {plan:?}");
    let warm_stats = warm.shutdown();
    assert_eq!(warm_stats.probe_jobs, 0, "warm start must never probe");
    assert_eq!(warm_stats.tuned_jobs, 1);
    let _ = std::fs::remove_file(&path);
}

/// Probe and tuned jobs both produce factors bit-identical to the
/// sequential run of the same (tile, tree) plan; the stats counters
/// track the per-shape transition.
#[test]
fn tuned_jobs_bit_identical_and_counted() {
    let a = random_matrix::<f64>(40, 40, 5);
    let svc: TunedQrService<f64> =
        TunedQrService::start_with(service_config(), tuner(&[4, 8, 16], None));
    for round in 0..5 {
        let (f, _, plan) = svc.factor(&a).unwrap();
        let (tile, tree) = match plan {
            JobPlan::Probe { tile_size } => (tile_size, None),
            JobPlan::Tuned { tile_size, tree } => (tile_size, Some(tree)),
            JobPlan::Standard => panic!("round {round}: shape should fit from 3 probes"),
        };
        let mut opts = QrOptions::new().tile_size(tile);
        if let Some(tree) = tree {
            opts = opts.tree(TreePolicy::Fixed(tree));
        }
        let seq = TiledQr::factor(&a, &opts).unwrap();
        assert_eq!(
            f.state().tiles().to_matrix(),
            seq.state().tiles().to_matrix(),
            "round {round} ({plan:?}) diverged from sequential"
        );
    }
    let stats = svc.shutdown();
    assert_eq!(stats.probe_jobs, 3, "one probe per candidate tile");
    assert_eq!(stats.tuned_jobs, 2, "remaining jobs run tuned");
    assert_eq!(stats.jobs_completed, 5);
    assert_eq!(stats.jobs_failed, 0);
}

/// Shapes tune independently: probing one shape class does not spend
/// the other's probe budget, and each converges on its own.
#[test]
fn shape_classes_tune_independently() {
    let sq = random_matrix::<f64>(48, 48, 31);
    let tall = random_matrix::<f64>(64, 32, 32);
    let svc: TunedQrService<f64> =
        TunedQrService::start_with(service_config(), tuner(&[4, 8, 16], None));
    for _ in 0..3 {
        let (_, _, p1) = svc.factor(&sq).unwrap();
        assert!(matches!(p1, JobPlan::Probe { .. }));
        let (_, _, p2) = svc.factor(&tall).unwrap();
        assert!(matches!(p2, JobPlan::Probe { .. }));
    }
    assert!(svc.profile_for(48, 48).is_some(), "square shape fitted");
    assert!(svc.profile_for(64, 32).is_some(), "tall shape fitted");
    let (_, _, p1) = svc.factor(&sq).unwrap();
    let (_, _, p2) = svc.factor(&tall).unwrap();
    assert!(matches!(p1, JobPlan::Tuned { .. }));
    assert!(matches!(p2, JobPlan::Tuned { .. }));
    let stats = svc.shutdown();
    assert_eq!(stats.probe_jobs, 6);
    assert_eq!(stats.tuned_jobs, 2);
}

/// A hostile profile file — a megabyte of open brackets — is an `Err`
/// from both JSON entry points, never a stack overflow, and a service
/// pointed at it starts and plans exactly as if no file existed.
#[test]
fn deeply_nested_document_is_an_error_not_an_abort() {
    let a = random_matrix::<f64>(48, 48, 41);
    let tiles = [4usize, 8, 16];
    for (tag, unit) in [("arrays", "["), ("objects", "{\"a\":")] {
        let doc = unit.repeat(1_000_000);
        assert!(ProfileStore::from_json(&doc).is_err(), "{tag}");
        assert!(tileqr_obs::chrome::validate(&doc).is_err(), "{tag}");

        let path = scratch_path(tag);
        std::fs::write(&path, &doc).unwrap();
        let hostile: TunedQrService<f64> =
            TunedQrService::start_with(service_config(), tuner(&tiles, Some(path.clone())));
        let no_file: TunedQrService<f64> =
            TunedQrService::start_with(service_config(), tuner(&tiles, None));
        assert!(hostile.profile_for(48, 48).is_none(), "{tag}");
        assert_eq!(hostile.plan_for(48, 48), no_file.plan_for(48, 48), "{tag}");
        let (_, _, plan) = hostile.factor(&a).unwrap();
        assert_eq!(plan, JobPlan::Probe { tile_size: 4 }, "{tag}");
        assert_eq!(hostile.shutdown().probe_jobs, 1, "{tag}");
        no_file.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}

/// A store whose `cores` no device has: `1e300` passes an integer check
/// (`fract() == 0`) and would overflow `DeviceProfile::slots`. The entry
/// is malformed, so the whole file — the good entry beside it included —
/// loads as "no profile": both shapes probe afresh, nothing panics, and
/// the same file without the hostile entry warm-starts.
#[test]
fn oversized_cores_entry_is_no_profile_not_a_panic() {
    let tiles = [4usize, 8, 16];
    let good = synthetic_profile(2);
    let mut store = ProfileStore::new();
    store.insert("48x48", good.clone());
    store.insert("64x32", good);
    let clean = store.to_json();
    // Only the second entry's `cores` changes.
    let cores = "\"cores\": 2";
    let at = clean.rfind(cores).unwrap();
    let hostile = format!(
        "{}\"cores\": 1e300{}",
        &clean[..at],
        &clean[at + cores.len()..]
    );
    assert!(ProfileStore::from_json(&clean).is_ok());
    assert!(ProfileStore::from_json(&hostile).is_err());

    let path = scratch_path("cores");
    std::fs::write(&path, &hostile).unwrap();
    let svc: TunedQrService<f64> =
        TunedQrService::start_with(service_config(), tuner(&tiles, Some(path.clone())));
    for (rows, cols) in [(48usize, 48usize), (64, 32)] {
        assert!(svc.profile_for(rows, cols).is_none(), "{rows}x{cols}");
        assert_eq!(svc.plan_for(rows, cols), JobPlan::Probe { tile_size: 4 });
    }
    let (_, _, plan) = svc.factor(&random_matrix::<f64>(64, 32, 43)).unwrap();
    assert_eq!(plan, JobPlan::Probe { tile_size: 4 });
    assert_eq!(svc.shutdown().probe_jobs, 1);

    std::fs::write(&path, &clean).unwrap();
    let warm: TunedQrService<f64> =
        TunedQrService::start_with(service_config(), tuner(&tiles, Some(path.clone())));
    assert!(matches!(warm.plan_for(48, 48), JobPlan::Tuned { .. }));
    assert!(matches!(warm.plan_for(64, 32), JobPlan::Tuned { .. }));
    warm.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A document the store rejects (one curve coefficient turned negative)
/// at `TunerConfig::profile_path` is no profile: the tuner probes, and the
/// probe's `R` is bit-identical to the sequential run of its tile size.
#[test]
fn rejected_profile_document_probes_bit_identically() {
    let tiles = [4usize, 8, 16];
    let mut store = ProfileStore::new();
    store.insert("48x48", synthetic_profile(2));
    store.insert("64x32", synthetic_profile(2));
    let clean = store.to_json();
    let coeff = "\"c2\": 0.006";
    let at = clean.find(coeff).unwrap();
    let rejected = format!("{}\"c2\": -1{}", &clean[..at], &clean[at + coeff.len()..]);
    assert!(ProfileStore::from_json(&rejected).is_err());

    let path = scratch_path("rejected");
    std::fs::write(&path, &rejected).unwrap();
    let svc: TunedQrService<f64> =
        TunedQrService::start_with(service_config(), tuner(&tiles, Some(path.clone())));
    assert!(svc.profile_for(48, 48).is_none());
    let a = random_matrix::<f64>(48, 48, 47);
    let (f, _, plan) = svc.factor(&a).unwrap();
    assert_eq!(plan, JobPlan::Probe { tile_size: 4 });
    let seq = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
    assert_eq!(
        f.r(),
        seq.r(),
        "a probe after a rejected store stays bit-exact"
    );
    assert_eq!(svc.shutdown().probe_jobs, 1);
    let _ = std::fs::remove_file(&path);
}
