//! What the benchmark needs to know about the machine it runs on.

use std::hint::black_box;
use std::time::Instant;

/// Computing threads every numeric workload uses.
pub const WORKERS: usize = 2;

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Words of the CPU mask passed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine this process, and every thread it starts later, to the
/// lowest-numbered CPU it may run on; returns that CPU.
///
/// The runtime hands every task from a manager thread to a worker thread
/// and back. On the 2-vCPU virtual machine the benchmark was sized on, a
/// hand-off between two CPUs costs an inter-processor interrupt through
/// the hypervisor, and the OS scheduler moves the threads between three
/// placements that run the same 100 service jobs in about 100, 200 or
/// 350 ms, for seconds at a time. Timings taken that way measure the
/// placement, not the code. On one CPU every hand-off is a local context
/// switch, and run-to-run spread falls from 13-21 % to a few percent.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or("this process may run on no CPU")?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    mask = [0; MASK_WORDS];
    mask[word] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly `bytes` bytes that the
    // call only reads.
    if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Peak resident set of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// CPU model string, for the human-readable header only.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Independent accumulator chains: enough to cover the multiply-add
/// latency on two issue ports, few enough to stay in registers.
const CHAINS: usize = 10;
/// Multiply-adds per chain between two clock reads.
const ROUND: usize = 4096;

type Acc<const LANES: usize> = [[f64; LANES]; CHAINS];

/// `ROUND` dependent steps of `x ← x·a + b` on every chain; `FUSED`
/// selects the fused form.
#[inline(always)]
fn multiply_add_round<const LANES: usize, const FUSED: bool>(
    acc: &mut Acc<LANES>,
    a: &[f64; LANES],
    b: &[f64; LANES],
) {
    for _ in 0..ROUND {
        for chain in acc.iter_mut() {
            for l in 0..LANES {
                chain[l] = if FUSED {
                    chain[l].mul_add(a[l], b[l])
                } else {
                    chain[l] * a[l] + b[l]
                };
            }
        }
    }
}

/// The same loop compiled for 256-bit fused multiply-add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn multiply_add_round_avx2_fma(acc: &mut Acc<4>, a: &[f64; 4], b: &[f64; 4]) {
    multiply_add_round::<4, true>(acc, a, b);
}

/// GFLOP/s of `round` (two flops per lane per step) at the reference
/// speed: the median over ten 20 ms chunks of each chunk's best round.
fn peak_rate<const LANES: usize>(
    mut round: impl FnMut(&mut Acc<LANES>, &[f64; LANES], &[f64; LANES]),
) -> f64 {
    let a = black_box([1.000_000_1_f64; LANES]);
    let b = black_box([1e-9_f64; LANES]);
    let mut acc: Acc<LANES> = black_box([[1.0; LANES]; CHAINS]);
    let flops = (2 * ROUND * CHAINS * LANES) as f64;
    let mut clock = crate::clock::Clock::start();
    let mut chunks = Vec::new();
    for _ in 0..10 {
        let started = Instant::now();
        let mut best = 0.0_f64;
        while started.elapsed().as_secs_f64() < 0.02 {
            let t0 = Instant::now();
            round(&mut acc, &a, &b);
            let dt = t0.elapsed().as_secs_f64();
            acc = black_box(acc);
            best = best.max(flops / dt * 1e-9);
        }
        // A rate scales by the inverse of the factor a time scales by.
        chunks.push(best / clock.lap().scale());
    }
    crate::stats::median(&mut chunks)
}

/// Single-thread multiply-add peak in GFLOP/s: the denominator of the
/// `kernels.*_pct_fma_peak` columns. On x86-64 with AVX2 and FMA it times
/// 256-bit fused multiply-adds, the widest form the library's kernels
/// use (its default backend is multiversioned for AVX2; the `simd`
/// feature adds FMA); elsewhere the unfused `x·a + b` at the build's
/// baseline vector width.
pub fn fma_peak_gflops() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU reports both features the callee is compiled for.
        return peak_rate::<4>(|acc, a, b| unsafe { multiply_add_round_avx2_fma(acc, a, b) });
    }
    peak_rate::<2>(multiply_add_round::<2, false>)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tperf\n"), None);
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // Runs on its own thread: affinity is per thread, and the other
        // tests must keep theirs.
        std::thread::spawn(|| {
            pin_to_one_cpu().expect("pinning works on linux");
            assert_eq!(cores(), 1);
            let inherited = std::thread::spawn(cores).join().unwrap();
            assert_eq!(inherited, 1, "threads started later inherit the mask");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn peak_probe_reports_a_plausible_rate() {
        let g = fma_peak_gflops();
        assert!(g.is_finite() && g > 0.01, "{g}");
    }
}
