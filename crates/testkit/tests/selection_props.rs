//! Property tests for device-count selection (paper Alg. 3, Eqs. 10–11).
//!
//! The central invariant: the selected `p` is a true argmin of the model
//! — Alg. 3 never returns a device count the model itself scores worse
//! than some smaller count. Plus the structural facts Table III depends
//! on: communication cost grows with `p`, a lone device never pays for
//! the bus, and large matrices justify at least as many devices as small
//! ones.

use tileqr_sched::device_count::{ordered_devices, select_device_count, tcomm_us, top_us};
use tileqr_sched::main_select::select_main_device;
use tileqr_sim::profiles;

#[test]
fn chosen_p_is_never_beaten_by_a_smaller_p() {
    for b in [8, 16, 32] {
        let platform = profiles::paper_testbed(b);
        for size in [2usize, 4, 8, 16, 32, 64, 128] {
            let main = select_main_device(&platform, size, size, &[]).device;
            let sel = select_device_count(&platform, main, size, size, &[]);
            let chosen = sel.predictions[sel.p - 1].total_us();
            for pred in &sel.predictions[..sel.p - 1] {
                assert!(
                    chosen <= pred.total_us(),
                    "b={b} size={size}: chose p={} ({chosen}) though p={} scores {}",
                    sel.p,
                    pred.p,
                    pred.total_us()
                );
            }
        }
    }
}

#[test]
fn chosen_p_is_global_argmin_of_the_predictions() {
    let platform = profiles::paper_testbed(16);
    for size in [3usize, 6, 12, 24, 48, 96] {
        let main = select_main_device(&platform, size, size, &[]).device;
        let sel = select_device_count(&platform, main, size, size, &[]);
        let best = sel
            .predictions
            .iter()
            .min_by(|a, b| a.total_us().total_cmp(&b.total_us()))
            .unwrap();
        assert_eq!(sel.p, best.p);
        assert_eq!(sel.devices, best.devices);
    }
}

#[test]
fn selected_count_does_not_shrink_as_the_matrix_grows() {
    // Table III's qualitative shape: more tiles never justify fewer
    // devices on a fixed platform.
    let platform = profiles::paper_testbed(16);
    let mut prev = 0usize;
    for size in [2usize, 4, 8, 16, 32, 64, 128, 256] {
        let main = select_main_device(&platform, size, size, &[]).device;
        let sel = select_device_count(&platform, main, size, size, &[]);
        assert!(
            sel.p >= prev,
            "size {size}: p fell from {prev} to {}",
            sel.p
        );
        prev = sel.p;
    }
    assert!(prev > 1, "large matrices must engage multiple devices");
}

#[test]
fn tcomm_is_monotone_in_device_count_and_free_for_one() {
    let platform = profiles::paper_testbed(16);
    let ordered = ordered_devices(&platform, 0, &[]);
    for size in [8usize, 32, 96] {
        let mut prev = tcomm_us(&platform, &ordered[..1], size, size);
        assert_eq!(prev, 0.0, "a lone device never touches the bus");
        for p in 2..=ordered.len() {
            let t = tcomm_us(&platform, &ordered[..p], size, size);
            assert!(t > prev, "Tcomm not increasing at p={p}, size={size}");
            prev = t;
        }
    }
}

#[test]
fn predictions_cover_every_prefix_exactly_once() {
    let platform = profiles::paper_testbed(16);
    let sel = select_device_count(&platform, 0, 16, 16, &[]);
    assert_eq!(sel.predictions.len(), platform.num_devices());
    for (idx, pred) in sel.predictions.iter().enumerate() {
        assert_eq!(pred.p, idx + 1);
        assert_eq!(pred.devices.len(), pred.p);
        assert_eq!(pred.devices[0], 0, "main leads every prefix");
        assert!(pred.top_us > 0.0);
        assert!(pred.total_us() >= pred.top_us);
    }
}

#[test]
fn single_device_platform_degenerates_cleanly() {
    let platform = profiles::testbed_subset(1, false, 16);
    assert_eq!(platform.num_devices(), 1);
    let sel = select_device_count(&platform, 0, 20, 20, &[]);
    assert_eq!(sel.p, 1);
    assert_eq!(sel.devices, vec![0]);
    assert_eq!(sel.predictions.len(), 1);
    assert_eq!(sel.predictions[0].tcomm_us, 0.0);
}

#[test]
fn top_reflects_work_growth() {
    // Eq. 10 sanity: more tiles mean more predicted operation time, for
    // any fixed device prefix.
    let platform = profiles::paper_testbed(16);
    let ordered = ordered_devices(&platform, 0, &[]);
    for p in 1..=ordered.len() {
        let small = top_us(&platform, &ordered[..p], 8, 8);
        let large = top_us(&platform, &ordered[..p], 32, 32);
        assert!(large > small, "Top not growing with size at p={p}");
    }
}
