//! The full planning pipeline (Algorithms 2 → 3 → 4) on the paper's
//! testbed, and the headline behaviours of each evaluation section.

use tileqr::hetero::{
    device_count, fastsim, main_select, plan, profiles, DistributionStrategy, MainDevicePolicy,
};

#[test]
fn paper_pipeline_on_testbed() {
    let p = profiles::paper_testbed(16);
    let nt = 400; // 6400²
    let hp = plan::plan(&p, nt, nt);
    // §VI-B: the GTX580 is the main computing device.
    assert_eq!(hp.main, 0);
    // Column 0 stays on the main device (Alg. 4).
    assert_eq!(hp.distribution.owner(0), 0);
    // The guide array gives GTX680s more columns than the GTX580.
    let c580 = hp.distribution.columns_owned(0, 1, nt);
    let c680 = hp.distribution.columns_owned(1, 1, nt);
    assert!(c680 > c580);
}

#[test]
fn device_count_crossovers_are_monotone() {
    // Table III: as the matrix grows the optimal device count never
    // shrinks — 1 GPU, then 2, then 3.
    let gpus = profiles::testbed_subset(3, false, 16);
    let mut last_p = 0;
    let mut seen = Vec::new();
    for size in (160..=4000).step_by(160) {
        let nt = size / 16;
        let sel = device_count::select_device_count(&gpus, 0, nt, nt, &[]);
        assert!(
            sel.p >= last_p,
            "optimal p regressed from {last_p} to {} at size {size}",
            sel.p
        );
        last_p = sel.p;
        seen.push(sel.p);
    }
    assert_eq!(*seen.first().unwrap(), 1, "smallest size uses 1 GPU");
    assert_eq!(*seen.last().unwrap(), 3, "largest size uses 3 GPUs");
    assert!(seen.contains(&2), "a 2-GPU band must exist in between");
}

#[test]
fn predicted_optimum_matches_simulated_optimum_mostly() {
    // Table III's claim: argmin of the predicted T(p) matches the actual
    // fastest p. Near crossovers the two can disagree by one size step, so
    // require agreement on a clear majority of sizes.
    let gpus = profiles::testbed_subset(3, false, 16);
    let mut agree = 0;
    let mut total = 0;
    for size in (160..=4000).step_by(320) {
        let nt = size / 16;
        let sel = device_count::select_device_count(&gpus, 0, nt, nt, &[]);
        let mut best_actual = (f64::INFINITY, 0usize);
        for p in 1..=3 {
            let hp = plan::plan_with(
                &gpus,
                nt,
                nt,
                MainDevicePolicy::Fixed(0),
                DistributionStrategy::GuideArray,
                Some(p),
                &[],
            );
            let t = fastsim::simulate_fast(&gpus, &hp, nt, nt).makespan_us;
            if t < best_actual.0 {
                best_actual = (t, p);
            }
        }
        total += 1;
        if sel.p == best_actual.1 {
            agree += 1;
        }
    }
    assert!(
        agree * 3 >= total * 2,
        "prediction matched simulation on only {agree}/{total} sizes"
    );
}

#[test]
fn main_device_ordering_of_fig9() {
    // Fig. 9 at a large size: GTX580-main <= GTX680-main < CPU-main, and
    // CPU-main is dramatically worse.
    let p = profiles::paper_testbed(16);
    let nt = 600; // 9600²
    let time_for = |policy| {
        let hp = plan::plan_with(
            &p,
            nt,
            nt,
            policy,
            DistributionStrategy::GuideArray,
            Some(4),
            &[],
        );
        fastsim::simulate_fast(&p, &hp, nt, nt).makespan_s()
    };
    let d580 = time_for(MainDevicePolicy::Fixed(0));
    let d680 = time_for(MainDevicePolicy::Fixed(1));
    let dcpu = time_for(MainDevicePolicy::Fixed(3));
    // In our calibration the 580/680 margin is compressed to low single
    // digits (see EXPERIMENTS.md); the CPU gap is the robust signal.
    assert!(d580 <= d680 * 1.05, "580 {d580} !<= ~680 {d680}");
    assert!(
        dcpu > 3.0 * d580,
        "CPU-main must be far slower: {dcpu} vs {d580}"
    );
    // Algorithm 2 agrees with the measurement.
    assert_eq!(main_select::select_main_device(&p, nt, nt, &[]).device, 0);
}

#[test]
fn distribution_strategies_ordering_of_fig10() {
    // Fig. 10 at a large size: guide array <= cores-based <= even.
    let p = profiles::paper_testbed(16);
    let nt = 1000; // 16000²
    let time_for = |strategy| {
        let hp = plan::plan_with(
            &p,
            nt,
            nt,
            MainDevicePolicy::Fixed(0),
            strategy,
            Some(4),
            &[],
        );
        fastsim::simulate_fast(&p, &hp, nt, nt).makespan_s()
    };
    let guide = time_for(DistributionStrategy::GuideArray);
    let cores = time_for(DistributionStrategy::CoresProportional);
    let even = time_for(DistributionStrategy::Even);
    // Guide and cores-based land close together in our calibration (see
    // EXPERIMENTS.md); guide must never lose materially, and even must
    // lose clearly (the paper's 21%).
    assert!(guide <= cores * 1.05, "guide {guide} !<= ~cores {cores}");
    assert!(
        even > guide * 1.15,
        "even {even} must clearly lose to guide {guide}"
    );
    assert!(cores < even, "cores {cores} !< even {even}");
}

#[test]
fn scalability_of_fig8() {
    // Fig. 8: for a fixed size, adding devices (4 -> 516 -> 2052 -> 3588
    // cores) reduces the runtime.
    let nt = 400; // 6400²
    let mut last = f64::INFINITY;
    for n_gpus in 0..=3 {
        let p = profiles::testbed_subset(n_gpus, true, 16);
        let hp = plan::plan_with(
            &p,
            nt,
            nt,
            MainDevicePolicy::Auto,
            DistributionStrategy::GuideArray,
            Some(p.num_devices()),
            &[],
        );
        let t = fastsim::simulate_fast(&p, &hp, nt, nt).makespan_s();
        assert!(
            t < last,
            "adding devices must help at 6400²: {t} !< {last} ({n_gpus} GPUs)"
        );
        last = t;
    }
}
