//! Property tests for the distribution guide array (paper Alg. 4).
//!
//! Seeded sweeps over random device/ratio configurations assert the three
//! structural properties the paper's Eq. 12 distribution relies on:
//! exact ratio-proportional counts, cyclic coverage of every column, and
//! prefix proportionality (the greedy max-remaining-ratio construction
//! never lets any device fall more than one appearance behind its share).

use tileqr_matrix::Rng64;
use tileqr_sched::distribution::DistributionStrategy;
use tileqr_sched::guide::{column_owner, generate_guide_array};
use tileqr_sched::plan::{plan_with, MainDevicePolicy};
use tileqr_sim::{profiles, DeviceId};

fn random_config(rng: &mut Rng64) -> (Vec<DeviceId>, Vec<u64>) {
    let n = rng.range_i64(1, 7) as usize;
    let devices: Vec<DeviceId> = (0..n).collect();
    let ratio: Vec<u64> = (0..n).map(|_| rng.range_i64(0, 9) as u64).collect();
    (devices, ratio)
}

#[test]
fn counts_match_ratios_exactly() {
    let mut rng = Rng64::seed_from_u64(0xA11);
    for _ in 0..200 {
        let (devices, ratio) = random_config(&mut rng);
        let g = generate_guide_array(&devices, &ratio);
        let total: u64 = ratio.iter().sum();
        assert_eq!(g.len() as u64, total);
        for (d, &share) in devices.iter().zip(&ratio) {
            let count = g.iter().filter(|&&x| x == *d).count() as u64;
            assert_eq!(count, share, "device {d} in {ratio:?}");
        }
    }
}

#[test]
fn cyclic_coverage_reaches_every_participating_device() {
    let mut rng = Rng64::seed_from_u64(0xB22);
    for _ in 0..200 {
        let (devices, ratio) = random_config(&mut rng);
        let g = generate_guide_array(&devices, &ratio);
        if g.is_empty() {
            continue; // all-zero ratios: no participants, nothing to cover
        }
        // Any window of `len` consecutive columns hits every device with a
        // nonzero ratio (Eq. 12 wraps modulo the array length).
        let participants: Vec<DeviceId> = devices
            .iter()
            .zip(&ratio)
            .filter(|(_, &r)| r > 0)
            .map(|(&d, _)| d)
            .collect();
        for start in [0usize, 3, g.len(), 5 * g.len() + 1] {
            for &p in &participants {
                let hit = (start..start + g.len()).any(|c| column_owner(&g, c) == p);
                assert!(hit, "device {p} starved in window at {start}");
            }
        }
    }
}

#[test]
fn prefix_counts_stay_ratio_proportional() {
    let mut rng = Rng64::seed_from_u64(0xC33);
    for _ in 0..200 {
        let (devices, ratio) = random_config(&mut rng);
        let g = generate_guide_array(&devices, &ratio);
        let total: u64 = ratio.iter().sum();
        if total == 0 {
            continue;
        }
        // Greedy max-remaining keeps every device within one appearance of
        // its proportional share in every prefix.
        for prefix in 1..=g.len() {
            for (idx, &d) in devices.iter().enumerate() {
                let count = g[..prefix].iter().filter(|&&x| x == d).count() as f64;
                let share = prefix as f64 * ratio[idx] as f64 / total as f64;
                assert!(
                    (count - share).abs() <= devices.len() as f64,
                    "device {d} prefix {prefix}: count {count} vs share {share} ({ratio:?})"
                );
            }
        }
    }
}

#[test]
fn degenerate_single_device_owns_everything() {
    for ratio in [1u64, 3, 17] {
        let g = generate_guide_array(&[5], &[ratio]);
        assert_eq!(g.len() as u64, ratio);
        assert!(g.iter().all(|&d| d == 5));
        for c in 0..50 {
            assert_eq!(column_owner(&g, c), 5);
        }
    }
}

#[test]
fn deterministic_construction() {
    // Same inputs, same array — Alg. 4 has no hidden state.
    let devices = [0, 1, 2, 3];
    let ratio = [4u64, 7, 1, 3];
    assert_eq!(
        generate_guide_array(&devices, &ratio),
        generate_guide_array(&devices, &ratio)
    );
}

#[test]
fn paper_worked_example_holds() {
    // §IV-C: ratios 2:3:1 yield {1, 0, 1, 0, 1, 2}.
    assert_eq!(
        generate_guide_array(&[0, 1, 2], &[2, 3, 1]),
        vec![1, 0, 1, 0, 1, 2]
    );
}

#[test]
fn blacklisting_down_to_one_survivor_yields_a_valid_single_device_guide() {
    // Satellite of the re-planning path: when a device blacklist leaves a
    // single survivor, Alg. 4 must degenerate to a guide that maps every
    // column — including column 0 — to that survivor, never to an empty
    // or mixed array.
    let p = profiles::paper_testbed(16);
    let n = p.num_devices();
    for survivor in 0..n {
        let exclude: Vec<DeviceId> = (0..n).filter(|&d| d != survivor).collect();
        let plan = plan_with(
            &p,
            40,
            40,
            MainDevicePolicy::Auto,
            DistributionStrategy::GuideArray,
            None,
            &exclude,
        );
        assert_eq!(plan.main, survivor);
        assert_eq!(plan.participants, vec![survivor]);
        let g = plan.distribution.guide();
        assert!(
            !g.is_empty(),
            "survivor {survivor}: guide must not be empty"
        );
        assert!(
            g.iter().all(|&d| d == survivor),
            "survivor {survivor}: {g:?}"
        );
        for j in 0..40 {
            assert_eq!(plan.distribution.owner(j), survivor);
        }
    }
}

#[test]
fn random_blacklists_never_leak_excluded_devices_into_the_guide() {
    // Seeded sweep over random exclusion subsets (always leaving at least
    // one survivor), random grid shapes and every distribution strategy:
    // the guide array and every column owner must come from the survivor
    // set, and every survivor with a nonzero share must appear.
    let p = profiles::paper_testbed(16);
    let n = p.num_devices();
    let strategies = [
        DistributionStrategy::GuideArray,
        DistributionStrategy::GuideArrayBalanced,
        DistributionStrategy::CoresProportional,
        DistributionStrategy::Even,
    ];
    let mut rng = Rng64::seed_from_u64(0xD44);
    for round in 0..100 {
        let keep = (rng.next_u64() % n as u64) as usize;
        let mask = rng.range_i64(0, (1 << n) - 1) as usize & !(1 << keep); // ≥1 survivor
        let exclude: Vec<DeviceId> = (0..n).filter(|&d| mask & (1 << d) != 0).collect();
        let nt = rng.range_i64(2, 60) as usize;
        let mt = nt + rng.range_i64(0, 20) as usize;
        let strategy = strategies[round % strategies.len()];
        let plan = plan_with(&p, mt, nt, MainDevicePolicy::Auto, strategy, None, &exclude);
        assert!(!exclude.contains(&plan.main));
        for &d in plan.distribution.guide() {
            assert!(
                !exclude.contains(&d),
                "round {round}: excluded device {d} in guide {:?} (exclude {exclude:?})",
                plan.distribution.guide()
            );
        }
        for j in 0..nt {
            assert!(!exclude.contains(&plan.distribution.owner(j)));
        }
    }
}
