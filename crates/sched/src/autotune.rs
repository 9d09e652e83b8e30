//! Tile-size auto-tuning — the probe idea of Song et al. (ICS'12) from
//! the paper's related work (§VII), on this repo's plan selector.
//!
//! Song et al. first run a small probe problem to find the best tile size
//! for the system, then reuse it at full scale. The paper under
//! reproduction argues for a *fixed* tile size (16) with load balancing by
//! tile *count* instead; [`tune_plan`] implements the probe sweep so the
//! two approaches can be compared.

use crate::select::select_plan;
use tileqr_sim::DeviceProfile;

/// Result of a tile-size probe sweep.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The winning tile size.
    pub best_tile: usize,
    /// `(tile size, simulated seconds on the probe problem)` per candidate.
    pub probes: Vec<(usize, f64)>,
}

/// Sweep every candidate tile size on an `n_probe x n_probe` probe
/// problem through the geometry-aware plan selector ([`select_plan`]) over
/// a *calibrated* single-device profile (e.g. fit by `obs::calibrate` or
/// the service-level online tuner), and report the per-tile best predicted
/// time — each tile's fastest elimination tree, so the tree is tuned
/// jointly with the tile size.
pub fn tune_plan(profile: &DeviceProfile, n_probe: usize, candidates: &[usize]) -> TuneResult {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let selection = select_plan(profile, n_probe, n_probe, candidates);
    let probes: Vec<(usize, f64)> = candidates
        .iter()
        .map(|&b| {
            let best_us = selection
                .ranked
                .iter()
                .filter(|s| s.tile_size == b)
                .map(|s| s.makespan_us)
                .fold(f64::INFINITY, f64::min);
            (b, best_us / 1e6)
        })
        .collect();
    TuneResult {
        best_tile: selection.best.tile_size,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::profiles;

    #[test]
    fn unified_tuner_matches_selector_winner() {
        let p = profiles::paper_testbed(16).device(0).clone();
        let r = tune_plan(&p, 640, &[8, 16, 32]);
        assert!([8, 16, 32].contains(&r.best_tile));
        assert_eq!(r.probes.len(), 3);
        assert!(r.probes.iter().all(|&(_, t)| t.is_finite() && t > 0.0));
        // The winner's probe time is the sweep minimum.
        let best = r.probes.iter().find(|&&(b, _)| b == r.best_tile).unwrap().1;
        assert!(r.probes.iter().all(|&(_, t)| best <= t));
        // Agrees with the selector it wraps.
        let sel = select_plan(&p, 640, 640, &[8, 16, 32]);
        assert_eq!(r.best_tile, sel.best.tile_size);
    }

    #[test]
    #[should_panic]
    fn unified_tuner_rejects_empty_candidates() {
        let p = profiles::paper_testbed(16).device(0).clone();
        let _ = tune_plan(&p, 320, &[]);
    }

    #[test]
    fn single_candidate_is_trivial() {
        let p = profiles::paper_testbed(16).device(0).clone();
        let r = tune_plan(&p, 320, &[16]);
        assert_eq!(r.best_tile, 16);
    }
}
