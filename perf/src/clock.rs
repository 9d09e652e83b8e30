//! The host's speed, probed between samples.
//!
//! The host this benchmark was sized on is a 2-vCPU virtual machine whose
//! speed moves for two reasons a process cannot see coming. Its core clock
//! has two states 27 % apart and stays in each for about a second. And for
//! minutes at a time something outside the machine competes for the
//! core's execution units: code that keeps them busy slows by up to a
//! half, while a chain of dependent operations hardly notices. Either is
//! long against one sample and neither is long against the ten runs a
//! comparison takes, so a run-level median of raw times moves by 15–25 %
//! between identical runs of single-threaded, compute-bound code.
//!
//! The benchmark therefore times a fixed piece of its own code, a
//! [probe](probe_ns_per_step), between samples, and reports every time as
//! it would have been with the probe at [`REFERENCE_NS_PER_STEP`]: the
//! slower clock state with the execution units uncontended.
//!
//! Times are scaled one to one with the probe. Code that waits for memory
//! follows the host's speed less than that, but measured on identical raw
//! samples of three workloads (ten runs each, in a period when both
//! effects were present) the plain ratio brought the spread of the
//! run-level median from 9–22 % to 4–6 %, and fitting each series' own
//! exponent or dropping samples taken while the probe moved made it no
//! better. A latency-bound probe (one dependent multiply-add chain)
//! followed the clock but not the contention: 5–10 %.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per probe step that reported times are scaled to.
pub const REFERENCE_NS_PER_STEP: f64 = 2.35;

/// Steps one probe times: about 0.25 ms.
const PROBE_STEPS: usize = 100_000;

/// Nanoseconds one probe step takes right now. A step advances eight
/// independent chains of multiply, shift, table load and add: enough
/// independent work to keep the multiplier, the load ports and the adders
/// busy, like the kernels and the runtime do, so that it slows both when
/// the clock drops and when the execution units are contended. It is one
/// uninterrupted stretch, not the best of several short ones, so that
/// time the CPU is taken away for counts as it does for the sample beside
/// it.
fn probe_ns_per_step() -> f64 {
    let table: [u64; 64] = black_box(std::array::from_fn(|i| {
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    }));
    let mut chains: [u64; 8] = black_box([1, 2, 3, 4, 5, 6, 7, 8]);
    let t0 = Instant::now();
    for _ in 0..PROBE_STEPS {
        for x in chains.iter_mut() {
            let entry = table[(*x >> 58) as usize];
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(entry);
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    black_box(chains);
    dt * 1e9 / PROBE_STEPS as f64
}

/// The probes on either side of one interval, in ns per probe step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    before: f64,
    after: f64,
}

impl Lap {
    pub fn ns_per_step(self) -> f64 {
        0.5 * (self.before + self.after)
    }

    /// Factor that takes a time measured during the lap to the reference
    /// speed. Rates scale by its inverse.
    pub fn scale(self) -> f64 {
        REFERENCE_NS_PER_STEP / self.ns_per_step()
    }
}

/// Probes the host's speed between samples.
pub struct Clock {
    probes: Vec<f64>,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            probes: vec![probe_ns_per_step()],
        }
    }

    /// Probe again; returns the lap since the previous probe.
    pub fn lap(&mut self) -> Lap {
        let before = *self.probes.last().expect("start() probes once");
        let after = probe_ns_per_step();
        self.probes.push(after);
        Lap { before, after }
    }

    /// Run `f` between two fresh probes; returns its result and the seconds
    /// it took at the reference speed.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        self.lap();
        let t0 = Instant::now();
        let result = f();
        let raw = t0.elapsed().as_secs_f64();
        (result, raw * self.lap().scale())
    }

    /// Median of every probe so far, in ns per probe step.
    pub fn median_ns_per_step(&self) -> f64 {
        median(&mut self.probes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_real_lap_scales_by_a_positive_finite_factor() {
        // No range check: an unoptimized build's probe is many times slower.
        let mut clock = Clock::start();
        let (value, secs) = clock.time(|| 7);
        assert_eq!(value, 7);
        assert!(secs.is_finite() && secs >= 0.0, "{secs}");
        let l = clock.lap();
        assert!(l.scale().is_finite() && l.scale() > 0.0, "{l:?}");
        assert!(clock.median_ns_per_step() > 0.0);
    }

    #[test]
    fn a_lap_scales_by_the_mean_of_its_probes() {
        let l = Lap {
            before: 2.0,
            after: 3.0,
        };
        assert_eq!(l.ns_per_step(), 2.5);
        assert_eq!(l.scale(), REFERENCE_NS_PER_STEP / 2.5);
    }
}
