//! Fast pipelined simulator at column-chain granularity.
//!
//! The exact task-level simulator (`tileqr_sim::engine`) materializes every
//! kernel invocation; at the paper's largest size (16 000² at tile 16 →
//! a 1000×1000 tile grid) that is ~3.3·10⁸ tasks, far past what fits in
//! memory. This simulator exploits the regular structure of the TS tiled-QR
//! DAG to run in `O(nt²)` time instead:
//!
//! * a panel's T/E work is one *chain* whose links complete at a steady
//!   `step` rate (each `TSQRT` depends on the previous one),
//! * a column's update work per panel is likewise a chain (each `TSMQR`
//!   rewrites the pivot-row tile),
//! * chains of consecutive panels *pipeline*: each column carries a
//!   `(head, step)` pair — when its first row-block is ready and the rate
//!   at which the following rows become ready — so panel `k+1` starts as
//!   soon as the head of column `k+1`'s update is done, exactly like the
//!   lookahead execution of the real runtime,
//! * devices expose `slots` parallel chain lanes, kept as one ascending
//!   run of free times: a chain takes the front lane and returns it at
//!   `max(lane, ready) + dur`, never below the minimum just taken, so the
//!   minimum only rises; a device's chains in one panel share a duration
//!   and mostly rising ready times, so a back-scan places the new free time
//!   within a few slots (a binary heap sifts `log slots` levels both ways),
//! * the PCIe bus serializes the per-panel factor broadcasts and
//!   next-column moves as batched transfers (Eq. 11 payloads).
//!
//! Integration tests validate it against the exact simulator on grids
//! where both run.

use crate::plan::HeteroPlan;
use crate::replan::{simulate_adaptive, ReplanPolicy};
use tileqr_dag::KernelClass;
use tileqr_sim::{FaultPlan, Platform, SimStats};

/// Per-device lane pool: the free times of `slots` chain lanes, kept as one
/// ascending run `free[head..]`. The taken prefix is dropped once it is over
/// half of `free`, so its one allocation of `2 * slots + 1` never regrows.
pub(crate) struct Lanes {
    free: Vec<f64>,
    head: usize,
}

impl Lanes {
    fn new(slots: usize) -> Self {
        let mut free = Vec::with_capacity(2 * slots + 1);
        free.resize(slots, 0.0);
        Lanes { free, head: 0 }
    }

    /// Occupy the earliest lane from `max(lane, ready)` for `dur`; returns
    /// the start time.
    fn occupy(&mut self, ready: f64, dur: f64) -> f64 {
        let start = self.free[self.head].max(ready);
        self.head += 1;
        let end = start + dur;
        let run = &self.free[self.head..];
        let at = run.iter().rposition(|t| t.total_cmp(&end).is_le());
        self.free.insert(self.head + at.map_or(0, |i| i + 1), end);
        if 2 * self.head > self.free.len() {
            self.free.drain(..self.head);
            self.head = 0;
        }
        start
    }
}

/// Mutable state of the column-chain pipeline, advanced panel by panel by
/// the one panel loop ([`crate::replan::simulate_adaptive`]), which also
/// inspects the clock at panel boundaries and splices in migration
/// transfers.
pub(crate) struct PipelineState {
    /// Per column: when its first row-block is up to date.
    pub(crate) head: Vec<f64>,
    /// Per column: when its last row-block is up to date.
    pub(crate) full: Vec<f64>,
    /// Per device: the `slots` parallel chain lanes.
    pub(crate) lanes: Vec<Lanes>,
    /// When the shared bus next frees up.
    bus_free: f64,
    /// Accumulated statistics (makespan filled in at the end).
    pub(crate) stats: SimStats,
    /// Per-device nominal kernel times, microseconds.
    pub(crate) t_t: Vec<f64>,
    pub(crate) t_e: Vec<f64>,
    pub(crate) t_u: Vec<f64>,
    /// Wire time of one tile at bus bandwidth, microseconds.
    pub(crate) per_tile_wire: f64,
    /// Bus bandwidth, bytes per microsecond.
    pub(crate) bandwidth: f64,
    /// Batched-transfer setup latency, microseconds.
    pub(crate) batch_lat: f64,
    /// Bytes of one tile.
    pub(crate) tile_bytes: u64,
}

impl PipelineState {
    pub(crate) fn new(platform: &Platform, nt: usize) -> Self {
        let b = platform.config().tile_size;
        let tile_bytes = platform.config().tile_bytes();
        let ndev = platform.num_devices();
        PipelineState {
            head: vec![0.0; nt],
            full: vec![0.0; nt],
            lanes: (0..ndev)
                .map(|d| Lanes::new(platform.device(d).slots(b)))
                .collect(),
            bus_free: 0.0,
            stats: SimStats::new(ndev),
            t_t: (0..ndev)
                .map(|d| {
                    platform
                        .device(d)
                        .kernel_time_us(KernelClass::Triangulation, b)
                })
                .collect(),
            t_e: (0..ndev)
                .map(|d| {
                    platform
                        .device(d)
                        .kernel_time_us(KernelClass::Elimination, b)
                })
                .collect(),
            t_u: (0..ndev)
                .map(|d| platform.device(d).kernel_time_us(KernelClass::Update, b))
                .collect(),
            per_tile_wire: tile_bytes as f64 / platform.link().bandwidth_bytes_per_us,
            bandwidth: platform.link().bandwidth_bytes_per_us,
            batch_lat: platform.link().batch_latency_us,
            tile_bytes,
        }
    }

    /// Book one batched transfer of `bytes` on the shared bus: it starts
    /// when both the bus and the data are `ready` and holds the bus for
    /// `occupancy`. Returns the start time.
    pub(crate) fn book_bus(&mut self, ready: f64, occupancy: f64, bytes: u64) -> f64 {
        let t0 = self.bus_free.max(ready);
        self.bus_free = t0 + occupancy;
        self.stats.bus_busy_us += occupancy;
        self.stats.bytes_transferred += bytes;
        self.stats.transfer_count += 1;
        t0
    }

    /// Makespan seen so far: the latest column completion.
    pub(crate) fn frontier_us(&self) -> f64 {
        self.full.iter().cloned().fold(0.0, f64::max)
    }
}

/// Advance the pipeline by one panel. `slow[d]` multiplies device `d`'s
/// kernel times for this panel (1.0 = nominal; multiplying by 1.0 is
/// bit-exact, so a run with all-ones `slow` reproduces the un-faulted
/// simulation to the last bit). An `INFINITY` entry models a dead device:
/// any chain placed on it — and everything downstream — never finishes.
pub(crate) fn panel_step(
    state: &mut PipelineState,
    owner: &[usize],
    te_dev: usize,
    k: usize,
    mt: usize,
    nt: usize,
    slow: &[f64],
) {
    let m = mt - k; // tiles in the panel column
    let ndev = state.lanes.len();
    let tt = state.t_t[te_dev] * slow[te_dev];
    let te = state.t_e[te_dev] * slow[te_dev];

    // Bring the panel column to the T/E device (chunked batched copy:
    // one setup, then tiles stream at wire rate).
    let (mut in_head, mut in_full) = (state.head[k], state.full[k]);
    if owner[k] != te_dev {
        let occupancy = state.batch_lat + m as f64 * state.per_tile_wire;
        let t0 = state.book_bus(in_head, occupancy, m as u64 * state.tile_bytes);
        in_head = t0 + state.batch_lat + state.per_tile_wire;
        in_full = in_full.max(t0 + occupancy);
    }

    // T/E chain on the T/E device: starts when the column head is
    // there, finishes no earlier than its own serial chain and no
    // earlier than the column's last row plus one elimination. A one-row
    // panel has no elimination (on a dead device `0 × ∞` would be NaN).
    let chain = tt + if m > 1 { (m - 1) as f64 * te } else { 0.0 };
    let te_start = state.lanes[te_dev].occupy(in_head, chain);
    let te_head = te_start + tt + if m > 1 { te } else { 0.0 };
    let te_full = (te_start + chain).max(in_full + te);
    state.stats.device_busy_us[te_dev] += chain;
    state.stats.tasks_per_device[te_dev] += m as u64;
    state.head[k] = te_start + tt;
    state.full[k] = te_full;

    // Broadcast the Q data (Eq. 11: 3MT² elements) to every other
    // device that owns trailing columns. `factor_head` is when a
    // device sees the panel's first V+T block, `factor_full` when it
    // has the last one.
    let mut factor_head = vec![f64::INFINITY; ndev];
    let mut factor_full = vec![f64::INFINITY; ndev];
    factor_head[te_dev] = te_head;
    factor_full[te_dev] = te_full;
    let mut needs: Vec<bool> = vec![false; ndev];
    for &o in owner.iter().take(nt).skip(k + 1) {
        needs[o] = true;
    }
    for d in 0..ndev {
        if d == te_dev || !needs[d] {
            continue;
        }
        let payload = 3 * m as u64 * state.tile_bytes;
        let occupancy = state.batch_lat + payload as f64 / state.bandwidth;
        let t0 = state.book_bus(te_head, occupancy, payload);
        // The first V+T block lands after the setup; the last when the
        // stream drains and the chain has produced it.
        factor_head[d] = t0 + state.batch_lat + 2.0 * state.per_tile_wire;
        factor_full[d] = (t0 + occupancy).max(te_full + 2.0 * state.per_tile_wire);
    }

    // Update chains, next panel's column first. A chain occupies a
    // lane for its own work; its completion is additionally floored by
    // (a) the previous chain on the same column finishing its last
    // row, and (b) the last factor arriving — endpoint constraints
    // that bound any link-level schedule without ratcheting the
    // device's throughput.
    for (j, &d) in owner.iter().enumerate().take(nt).skip(k + 1) {
        let tu = state.t_u[d] * slow[d];
        let links = m as f64; // 1 UNMQR + (m-1) TSMQRs
        let own_dur = links * tu;
        let ready = state.head[j].max(factor_head[d]);
        let start = state.lanes[d].occupy(ready, own_dur);
        let own_full = start + own_dur;
        state.full[j] = own_full.max(state.full[j] + tu).max(factor_full[d] + tu);
        state.head[j] = start.max(factor_head[d]) + 2.0 * tu;
        state.stats.device_busy_us[d] += own_dur;
        state.stats.tasks_per_device[d] += m as u64;
    }
}

/// Simulate a full tiled QR of an `mt x nt` tile grid under `plan`: the
/// adaptive run ([`crate::replan::simulate_adaptive`]) with no faults and
/// re-planning off, so the pipeline has one panel loop.
pub fn simulate_fast(platform: &Platform, plan: &HeteroPlan, mt: usize, nt: usize) -> SimStats {
    simulate_adaptive(
        platform,
        plan,
        mt,
        nt,
        &FaultPlan::none(),
        &ReplanPolicy::disabled(),
    )
    .stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionStrategy;
    use crate::plan::{plan_with, MainDevicePolicy};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use tileqr_sim::{profiles, Link};

    fn run(nt: usize, force_p: Option<usize>, policy: MainDevicePolicy) -> SimStats {
        let p = profiles::paper_testbed(16);
        let plan = plan_with(
            &p,
            nt,
            nt,
            policy,
            DistributionStrategy::GuideArray,
            force_p,
            &[],
        );
        simulate_fast(&p, &plan, nt, nt)
    }

    #[test]
    fn makespan_grows_with_size() {
        let a = run(20, Some(4), MainDevicePolicy::Auto).makespan_us;
        let b = run(40, Some(4), MainDevicePolicy::Auto).makespan_us;
        let c = run(80, Some(4), MainDevicePolicy::Auto).makespan_us;
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn comm_fraction_decreases_with_size() {
        // Fig. 5: >small matrices spend a visibly larger share on
        // communication than large ones.
        let small = run(10, Some(4), MainDevicePolicy::Auto).comm_fraction();
        let large = run(240, Some(4), MainDevicePolicy::Auto).comm_fraction();
        assert!(
            small > 2.0 * large,
            "comm share must fall sharply: small={small:.4} large={large:.4}"
        );
        assert!(small > 0.0);
    }

    #[test]
    fn single_device_never_communicates() {
        let s = run(30, Some(1), MainDevicePolicy::Auto);
        assert_eq!(s.bus_busy_us, 0.0);
        assert_eq!(s.bytes_transferred, 0);
    }

    #[test]
    fn three_gpus_beat_one_on_large_matrices() {
        // Fig. 6a / Fig. 8: more devices win once the matrix is large.
        let one = run(500, Some(1), MainDevicePolicy::Auto).makespan_us;
        let three = run(500, Some(3), MainDevicePolicy::Auto).makespan_us;
        assert!(three < one, "3 GPUs {three} !< 1 GPU {one}");
    }

    #[test]
    fn one_gpu_wins_on_tiny_matrices() {
        // Fig. 6b / Table III: transfer setup costs make one device best
        // when the matrix is small.
        let one = run(6, Some(1), MainDevicePolicy::Auto).makespan_us;
        let three = run(6, Some(3), MainDevicePolicy::Auto).makespan_us;
        assert!(one < three, "1 GPU {one} !< 3 GPUs {three}");
    }

    #[test]
    fn cpu_as_main_is_catastrophic() {
        // Fig. 9: the CPU-as-main curve sits far above everything else.
        let auto = run(200, None, MainDevicePolicy::Auto).makespan_us;
        let cpu = run(200, None, MainDevicePolicy::Fixed(3)).makespan_us;
        assert!(cpu > 3.0 * auto, "cpu {cpu} vs auto {auto}");
    }

    #[test]
    fn gtx580_main_beats_gtx680_main() {
        // Fig. 9: the paper's selection (GTX580) beats using a GTX680.
        let d580 = run(600, None, MainDevicePolicy::Fixed(0)).makespan_us;
        let d680 = run(600, None, MainDevicePolicy::Fixed(1)).makespan_us;
        // Margin compressed in our calibration; near-parity or better.
        assert!(d580 <= d680 * 1.05, "580-main {d580} !<= ~680-main {d680}");
    }

    #[test]
    fn deterministic() {
        let a = run(50, Some(3), MainDevicePolicy::Auto);
        let b = run(50, Some(3), MainDevicePolicy::Auto);
        assert_eq!(a, b);
    }

    #[test]
    fn busy_time_matches_task_counts() {
        let s = run(30, Some(4), MainDevicePolicy::Auto);
        let total_tasks: u64 = s.tasks_per_device.iter().sum();
        // Exact TS kernel count: sum over panels of M + M*(cols right).
        let nt = 30u64;
        let expect: u64 = (0..nt).map(|k| (nt - k) + (nt - k) * (nt - k - 1)).sum();
        assert_eq!(total_tasks, expect);
        assert!(s.total_compute_us() > 0.0);
    }

    #[test]
    fn wide_and_tall_grids_supported() {
        let p = profiles::paper_testbed(16);
        let plan = plan_with(
            &p,
            40,
            10,
            MainDevicePolicy::Auto,
            DistributionStrategy::GuideArray,
            Some(3),
            &[],
        );
        let tall = simulate_fast(&p, &plan, 40, 10);
        assert!(tall.makespan_us > 0.0);
        let plan_w = plan_with(
            &p,
            10,
            40,
            MainDevicePolicy::Auto,
            DistributionStrategy::GuideArray,
            Some(3),
            &[],
        );
        let wide = simulate_fast(&p, &plan_w, 10, 40);
        assert!(wide.makespan_us > 0.0);
    }

    /// The lane pool the sorted run replaced: a min-heap of free times under
    /// `f64::total_cmp`, keyed by the same integer order `total_cmp` uses.
    struct HeapLanes(BinaryHeap<Reverse<(i64, u64)>>);

    impl HeapLanes {
        fn new(slots: usize) -> Self {
            HeapLanes((0..slots).map(|_| Reverse((0, 0.0f64.to_bits()))).collect())
        }

        fn occupy(&mut self, ready: f64, dur: f64) -> f64 {
            let Reverse((_, lane)) = self.0.pop().unwrap();
            let start = f64::from_bits(lane).max(ready);
            let end = start + dur;
            let bits = end.to_bits() as i64;
            let key = bits ^ (((bits >> 63) as u64) >> 1) as i64;
            self.0.push(Reverse((key, end.to_bits())));
            start
        }
    }

    #[test]
    fn sorted_lanes_match_a_binary_heap_bit_for_bit() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for slots in [1, 4, 256, 768] {
            for with_inf in [false, true] {
                let (mut lanes, mut heap) = (Lanes::new(slots), HeapLanes::new(slots));
                let cap = lanes.free.capacity();
                let (mut clock, mut last) = (0.0f64, 0.0f64);
                for call in 0..20 * slots + 2000 {
                    let r = next();
                    // Quantized times make ties between lanes and readies
                    // common; some readies jump back or lie below every lane.
                    let ready = match r % 8 {
                        0 => 0.0,
                        1 => last,
                        2 => (clock - (r >> 8) as f64 % 500.0).max(0.0),
                        _ => {
                            clock += ((r >> 8) % 4) as f64 * 0.5;
                            clock
                        }
                    };
                    // Every 97th chain of an `∞` stream lands on a dead lane.
                    let dur = match (r >> 40) % 64 {
                        _ if with_inf && call % 97 == 50 => f64::INFINITY,
                        0 | 1 => 0.0,
                        k => (k % 6 + 1) as f64 * 2.5,
                    };
                    last = lanes.occupy(ready, dur);
                    let want = heap.occupy(ready, dur);
                    assert_eq!(last.to_bits(), want.to_bits(), "slots {slots}, call {call}");
                    assert!(lanes.free.len() <= 2 * slots + 1);
                    assert_eq!(lanes.free.capacity(), cap, "the run never regrows");
                }
            }
        }
    }

    #[test]
    fn one_device_beats_two_at_640_even_on_a_free_link() {
        // A model limit, not a bus effect: with transfers free, the T/E
        // chain on the main device still keeps p = 1 ahead at n = 640
        // (nt = 40). The paper has p = 2 win from 640 on.
        let testbed = profiles::paper_testbed(16);
        let free = Platform::new(
            testbed.devices().to_vec(),
            Link {
                bandwidth_bytes_per_us: 1e12,
                batch_latency_us: 0.0,
            },
            testbed.config(),
        );
        let makespan = |p| {
            let plan = plan_with(
                &free,
                40,
                40,
                MainDevicePolicy::Auto,
                DistributionStrategy::GuideArray,
                Some(p),
                &[],
            );
            simulate_fast(&free, &plan, 40, 40).makespan_us
        };
        let (one, two) = (makespan(1), makespan(2));
        assert!(one < two, "free link: 1 device {one} !< 2 devices {two}");
    }
}
