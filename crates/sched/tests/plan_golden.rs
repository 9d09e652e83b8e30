//! Bit-identity pin of the paper's planner and fast simulator on `perf`'s
//! `hetero_plan` sizes.
//!
//! For every Fig. 6 / Fig. 8 size on the paper's testbed, Algorithms 2-4
//! (`plan`) pick a main device, a participant list and a guide array, and
//! `simulate_fast` runs the plan; the faulted case kills the healthy main
//! 40 % into its n = 3 200 run and lets `simulate_adaptive` re-plan. Every
//! value below was recorded before the planner's blacklist variants were
//! folded into their healthy names and `simulate_fast` became the
//! fault-free adaptive run: any drift in a plan, a bus transfer or a
//! makespan bit shows here.

use tileqr_sched::fastsim::simulate_fast;
use tileqr_sched::plan::plan;
use tileqr_sched::replan::{simulate_adaptive, ReplanPolicy};
use tileqr_sim::{profiles, DeviceId, FaultPlan};

/// The paper's tile size (§V).
const TILE: usize = 16;

/// Guide arrays of the one-, two- and three-device plans.
const GUIDE_1: &[DeviceId] = &[0];
const GUIDE_2: &[DeviceId] = &[
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
    1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
];
const GUIDE_3: &[DeviceId] = &[
    1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2,
    1, 2, 1, 2, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1,
    2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2,
];

/// `(n, main, participants, guide, makespan_us.to_bits(), bytes_transferred,
/// transfer_count)` of an `n x n` matrix.
type Row = (
    usize,
    DeviceId,
    &'static [DeviceId],
    &'static [DeviceId],
    u64,
    u64,
    u64,
);

const HEALTHY: &[Row] = &[
    (160, 0, &[0], GUIDE_1, 0x40a1c0b923a29c77, 0, 0),
    (320, 0, &[0], GUIDE_1, 0x40b24ad35a858792, 0, 0),
    (480, 0, &[0], GUIDE_1, 0x40bbb54a2339c0ec, 0, 0),
    (640, 0, &[0], GUIDE_1, 0x40c28fe075f6fd20, 0, 0),
    (800, 0, &[0], GUIDE_1, 0x40c794f0068db8b4, 0, 0),
    (960, 0, &[0], GUIDE_1, 0x40cee387fcb92397, 0, 0),
    (1120, 0, &[0], GUIDE_1, 0x40d49085f06f693d, 0, 0),
    (1280, 0, &[0], GUIDE_1, 0x40db07a7bb2fec4e, 0, 0),
    (1440, 0, &[0, 1], GUIDE_2, 0x40dfb054fdf3b629, 15706112, 152),
    (1600, 0, &[0, 1], GUIDE_2, 0x40e1dd9c28f5c286, 19341312, 172),
    (1760, 0, &[0, 1], GUIDE_2, 0x40e3cd70be0ded25, 23378944, 190),
    (1920, 0, &[0, 1], GUIDE_2, 0x40e5e4068db8bacb, 27797504, 205),
    (2080, 0, &[0, 1], GUIDE_2, 0x40e923f6c8b4396c, 32574464, 220),
    (2240, 0, &[0, 1], GUIDE_2, 0x40ec31589374bc8d, 37725184, 239),
    (2400, 0, &[0, 1], GUIDE_2, 0x40ef0c0dd2f1aa29, 43275264, 259),
    (2560, 0, &[0, 1], GUIDE_2, 0x40f183afec56d5f3, 49222656, 276),
    (
        2720,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x40f413219f0fb3b2,
        101990400,
        480,
    ),
    (
        2880,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x40f58858564a0078,
        114293760,
        510,
    ),
    (
        3040,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x40f72a653d4db038,
        127313920,
        540,
    ),
    (
        3200,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x40f8e50323e88471,
        141026304,
        566,
    ),
    (
        3360,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x40fb50dce4d4727c,
        155440128,
        594,
    ),
    (
        3520,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x40fe53d0cf87da24,
        170511360,
        618,
    ),
    (
        3680,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x4100b3e87080e362,
        186287104,
        646,
    ),
    (
        3840,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x4101cbdcbfb15b78,
        202767360,
        677,
    ),
    (
        4000,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x4102e704421506c6,
        219955200,
        707,
    ),
    (
        16000,
        0,
        &[0, 1, 2],
        GUIDE_3,
        0x415950b966ac4e0a,
        3503125504,
        2826,
    ),
];

/// The faulted n = 3 200 run: its makespan bits and each re-plan's
/// `(panel, main, participants, migrated_bytes)`.
const FAULTED_MAKESPAN_BITS: u64 = 0x40fd12aac4e18d77;
const FAULTED_EVENTS: &[(usize, DeviceId, &[DeviceId], u64)] = &[(46, 1, &[1], 14192640)];

#[test]
fn plans_and_fast_makespans_are_bit_identical_on_hetero_plan_sizes() {
    let platform = profiles::paper_testbed(TILE);
    for &(n, main, participants, guide, bits, bytes, transfers) in HEALTHY {
        let t = n / TILE;
        let hp = plan(&platform, t, t);
        assert_eq!(hp.main, main, "n = {n}: main");
        assert_eq!(hp.participants, participants, "n = {n}: participants");
        assert_eq!(hp.distribution.guide(), guide, "n = {n}: guide array");
        let stats = simulate_fast(&platform, &hp, t, t);
        assert_eq!(stats.makespan_us.to_bits(), bits, "n = {n}: makespan");
        assert_eq!(stats.bytes_transferred, bytes, "n = {n}: bytes");
        assert_eq!(stats.transfer_count, transfers, "n = {n}: transfers");
    }
}

#[test]
fn faulted_replan_is_bit_identical() {
    let platform = profiles::paper_testbed(TILE);
    let t = 3200 / TILE;
    let healthy = plan(&platform, t, t);
    let makespan = simulate_fast(&platform, &healthy, t, t).makespan_us;
    let faults = FaultPlan::none().with_device_death(healthy.main, makespan * 0.4);
    let run = simulate_adaptive(&platform, &healthy, t, t, &faults, &ReplanPolicy::default());
    assert_eq!(run.stats.makespan_us.to_bits(), FAULTED_MAKESPAN_BITS);
    let events: Vec<_> = run
        .replans
        .iter()
        .map(|e| (e.panel, e.main, e.participants.as_slice(), e.migrated_bytes))
        .collect();
    assert_eq!(events, FAULTED_EVENTS);
}
