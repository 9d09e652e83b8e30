//! Bit-identity pin of the fast simulator's whole traffic on the figure
//! experiments' shapes.
//!
//! `plan_golden.rs` pins the makespan of the `hetero_plan` sizes; this file
//! pins everything else `simulate_fast` reports, on the runs the figures
//! make: Fig. 9's four main-device policies, Table III's forced device
//! counts, rectangular grids, and a sustained slowdown that re-plans under
//! the damped trigger. Every value below was recorded before the lane pool
//! moved from a binary heap to one sorted run: any drift in a lane choice,
//! a bus transfer or a busy-time sum shows here as a changed bit.

use tileqr_sched::fastsim::simulate_fast;
use tileqr_sched::plan::{plan, plan_with};
use tileqr_sched::replan::{simulate_adaptive, ReplanPolicy};
use tileqr_sched::{DistributionStrategy, MainDevicePolicy};
use tileqr_sim::{profiles, FaultPlan, Platform, SimStats};

/// The paper's tile size (§V).
const TILE: usize = 16;

/// One run: `makespan_us`, `bus_busy_us` and each `device_busy_us` as
/// `to_bits()`, then `bytes_transferred`, `transfer_count` and
/// `tasks_per_device`.
struct Golden {
    makespan: u64,
    bus_busy: u64,
    device_busy: &'static [u64],
    bytes: u64,
    transfers: u64,
    tasks: &'static [u64],
}

/// Fig. 9 on the paper's testbed, all four devices allowed: per n in
/// {3 200, 16 000}, main `Fixed(0)`, `Fixed(1)`, `Fixed(3)`, then `None`.
const FIG9: &[Golden] = &[
    Golden {
        makespan: 0x40f8e50323e88471,
        bus_busy: 0x40f0cb0624dd2f19,
        device_busy: &[
            0x4169ad84bedfa458,
            0x4182adcde8a71dd0,
            0x41827daad74bc6a5,
            0x0000000000000000,
        ],
        bytes: 141026304,
        transfers: 566,
        tasks: &[435974, 1131056, 1119670, 0],
    },
    Golden {
        makespan: 0x40f9b824f765fd77,
        bus_busy: 0x40eeeaa27983c134,
        device_busy: &[
            0x4165c3421930be16,
            0x4183bb9b62a992ff,
            0x4182c71b796bb968,
            0x0000000000000000,
        ],
        bytes: 135102464,
        transfers: 510,
        tasks: &[401261, 1148398, 1137041, 0],
    },
    Golden {
        makespan: 0x414192f9fc733bef,
        bus_busy: 0x40f7da8bf258bf1a,
        device_busy: &[
            0x4165c3421930be16,
            0x4182a224ece703a1,
            0x4182c71b796bb968,
            0x416148e666666666,
        ],
        bytes: 205588480,
        transfers: 793,
        tasks: &[401261, 1128298, 1137041, 20100],
    },
    Golden {
        makespan: 0x40f90e3427de239e,
        bus_busy: 0x40e98e8b43958108,
        device_busy: &[
            0x416703cb7f62b6cb,
            0x4183250732b9f51f,
            0x4182f67b8e1133cb,
            0x0000000000000000,
        ],
        bytes: 123482112,
        transfers: 397,
        tasks: &[418832, 1139570, 1128298, 0],
    },
    Golden {
        makespan: 0x415950b966ac4e0a,
        bus_busy: 0x4128b79c80576199,
        device_busy: &[
            0x41d9225b1500d1ce,
            0x41f1c9aab36f0035,
            0x41f1c0101886e95a,
            0x0000000000000000,
        ],
        bytes: 3503125504,
        transfers: 2826,
        tasks: &[58388239, 137868016, 137577245, 0],
    },
    Golden {
        makespan: 0x41589b0b6fe399a0,
        bus_busy: 0x412773f0fb38a952,
        device_busy: &[
            0x41d8628b2c7a0fd9,
            0x41f1fd99000bfa91,
            0x41f1cde8b8a85849,
            0x0000000000000000,
        ],
        bytes: 3372626944,
        transfers: 2580,
        tasks: &[57549986, 138287058, 137996456, 0],
    },
    Golden {
        makespan: 0x418aefaeec940080,
        bus_busy: 0x4131e7cae147ae14,
        device_busy: &[
            0x41d8628b2c7a0fd9,
            0x41f1c6f9ef726144,
            0x41f1cde8b8a85849,
            0x41aada9400000000,
        ],
        bytes: 5124065280,
        transfers: 3993,
        tasks: &[57549986, 137786558, 137996456, 500500],
    },
    Golden {
        makespan: 0x4158d75fb7bd5ef7,
        bus_busy: 0x4124841be76c8b42,
        device_busy: &[
            0x41d8a0befed3c426,
            0x41f1e07231b86573,
            0x41f1d6e7e520ff51,
            0x0000000000000000,
        ],
        bytes: 3075059712,
        transfers: 1997,
        tasks: &[57970197, 138076745, 137786558, 0],
    },
];

/// Table III on the three GPUs, GTX580 as main: per n in {640, 1 440,
/// 4 000}, p = 1, 2, 3.
const TAB3: &[Golden] = &[
    Golden {
        makespan: 0x40c28fe075f6fd20,
        bus_busy: 0x0000000000000000,
        device_busy: &[0x41248f6a5e353f89, 0x0000000000000000, 0x0000000000000000],
        bytes: 0,
        transfers: 0,
        tasks: &[22140, 0, 0],
    },
    Golden {
        makespan: 0x40cc04999999999e,
        bus_busy: 0x40b6b2c5f92c5f93,
        device_busy: &[0x411221a219652bd8, 0x411c0012a9930c0d, 0x0000000000000000],
        bytes: 3184640,
        transfers: 66,
        tasks: &[8894, 13246, 0],
    },
    Golden {
        makespan: 0x40d1f836ae7d566c,
        bus_busy: 0x40c3b46ff513cc1f,
        device_busy: &[0x40f6256474538ef6, 0x411618198c7e2859, 0x41153f1941205bed],
        bytes: 5813248,
        transfers: 114,
        tasks: &[1637, 10452, 10051],
    },
    Golden {
        makespan: 0x40e1cee8db8bac7c,
        bus_busy: 0x0000000000000000,
        device_busy: &[0x415ba1baea7ef9ec, 0x0000000000000000, 0x0000000000000000],
        bytes: 0,
        transfers: 0,
        tasks: &[247065, 0, 0],
    },
    Golden {
        makespan: 0x40dfb054fdf3b629,
        bus_busy: 0x40ccdcd7b900aec6,
        device_busy: &[0x4144346f04ea4a7c, 0x415559b76a4a8c08, 0x0000000000000000],
        bytes: 15706112,
        transfers: 152,
        tasks: &[85462, 161603, 0],
    },
    Golden {
        makespan: 0x40e3f8a8ca11bfd7,
        bus_busy: 0x40d873d44f30782b,
        device_busy: &[0x41387df84a8c1548, 0x414a7e92381d7dc0, 0x4149e670bc6a7efe],
        bytes: 28795904,
        transfers: 253,
        tasks: &[48776, 100269, 98020],
    },
    Golden {
        makespan: 0x41224538226809d5,
        bus_busy: 0x0000000000000000,
        device_busy: &[0x41a1f58680cccce5, 0x0000000000000000, 0x0000000000000000],
        bytes: 0,
        transfers: 0,
        tasks: &[5239625, 0, 0],
    },
    Golden {
        makespan: 0x410840acac083117,
        bus_busy: 0x40ea88cccccccccf,
        device_busy: &[0x4184f2348212d762, 0x419efde166f00639, 0x0000000000000000],
        bytes: 119654400,
        transfers: 430,
        tasks: &[1486371, 3753254, 0],
    },
    Golden {
        makespan: 0x4102e704421506c6,
        bus_busy: 0x40f6c23333333334,
        device_busy: &[0x417a291832a30561, 0x4191f706d538ef53, 0x4191d12796e9790e],
        bytes: 219955200,
        transfers: 707,
        tasks: &[906249, 2175646, 2157730],
    },
];

/// A 40 x 10 (tall) and a 10 x 40 (wide) tile grid at p = 3.
const RECT: &[Golden] = &[
    Golden {
        makespan: 0x40bac24c756b2dbe,
        bus_busy: 0x40a3224dd2f1a9fd,
        device_busy: &[
            0x40dc5f9eb851eb83,
            0x40d95dccccccccce,
            0x40df744fdf3b645c,
            0x0000000000000000,
        ],
        bytes: 2214912,
        transfers: 26,
        tasks: &[355, 750, 930, 0],
    },
    Golden {
        makespan: 0x40b199b344ad1fd0,
        bus_busy: 0x40a2a00000000000,
        device_busy: &[
            0x40b868d0e560418c,
            0x40e07cf851eb8524,
            0x40e010bd70a3d70c,
            0x0000000000000000,
        ],
        bytes: 384000,
        transfers: 29,
        tasks: &[110, 975, 950, 0],
    },
];

/// n = 3 200 under the default re-plan policy, device 1 running 10x slow
/// from 30 % of its healthy makespan to the end: one re-plan, then the
/// damped trigger holds.
const SLOWDOWN: Golden = Golden {
    makespan: 0x40fff518e2196588,
    bus_busy: 0x40ec7d4a6921735f,
    device_busy: &[
        0x4173babc01bda51b,
        0x41697d22cebedf69,
        0x418a99f10786c285,
        0x0000000000000000,
    ],
    bytes: 113917952,
    transfers: 492,
    tasks: &[690069, 385853, 1610778, 0],
};
const SLOWDOWN_MIGRATED_BYTES: u64 = 21024768;

fn run(
    platform: &Platform,
    mt: usize,
    nt: usize,
    policy: MainDevicePolicy,
    force_p: usize,
) -> SimStats {
    let hp = plan_with(
        platform,
        mt,
        nt,
        policy,
        DistributionStrategy::GuideArray,
        Some(force_p),
        &[],
    );
    simulate_fast(platform, &hp, mt, nt)
}

fn assert_golden(case: &str, s: &SimStats, g: &Golden) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(s.makespan_us.to_bits(), g.makespan, "{case}: makespan");
    assert_eq!(s.bus_busy_us.to_bits(), g.bus_busy, "{case}: bus busy");
    assert_eq!(
        bits(&s.device_busy_us),
        g.device_busy,
        "{case}: device busy"
    );
    assert_eq!(s.bytes_transferred, g.bytes, "{case}: bytes");
    assert_eq!(s.transfer_count, g.transfers, "{case}: transfers");
    assert_eq!(s.tasks_per_device, g.tasks, "{case}: tasks per device");
}

#[test]
fn fig9_main_device_policies() {
    let platform = profiles::paper_testbed(TILE);
    let policies = [
        MainDevicePolicy::Fixed(0),
        MainDevicePolicy::Fixed(1),
        MainDevicePolicy::Fixed(3),
        MainDevicePolicy::None,
    ];
    let mut expected = FIG9.iter();
    for n in [3200, 16000] {
        for policy in policies {
            let s = run(&platform, n / TILE, n / TILE, policy, 4);
            let case = format!("n = {n}, {policy:?}");
            assert_golden(&case, &s, expected.next().unwrap());
        }
    }
}

#[test]
fn tab3_forced_device_counts() {
    let platform = profiles::testbed_subset(3, false, TILE);
    let mut expected = TAB3.iter();
    for n in [640, 1440, 4000] {
        for p in 1..=3 {
            let s = run(&platform, n / TILE, n / TILE, MainDevicePolicy::Fixed(0), p);
            assert_golden(&format!("n = {n}, p = {p}"), &s, expected.next().unwrap());
        }
    }
}

#[test]
fn rectangular_grids() {
    let platform = profiles::paper_testbed(TILE);
    for (&(mt, nt), g) in [(40, 10), (10, 40)].iter().zip(RECT) {
        let s = run(&platform, mt, nt, MainDevicePolicy::Auto, 3);
        assert_golden(&format!("{mt} x {nt}"), &s, g);
    }
}

#[test]
fn sustained_slowdown_replans_once() {
    let platform = profiles::paper_testbed(TILE);
    let t = 3200 / TILE;
    let healthy = plan(&platform, t, t);
    let makespan = simulate_fast(&platform, &healthy, t, t).makespan_us;
    let faults = FaultPlan::none().with_device_slowdown(1, makespan * 0.3, f64::MAX, 10.0);
    let adaptive = simulate_adaptive(&platform, &healthy, t, t, &faults, &ReplanPolicy::default());
    assert_golden("10x slow device 1", &adaptive.stats, &SLOWDOWN);
    assert_eq!(adaptive.stats.replan_count, 1);
    assert_eq!(adaptive.stats.migrated_bytes, SLOWDOWN_MIGRATED_BYTES);
}
