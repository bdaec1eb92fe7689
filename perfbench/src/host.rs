//! Host-speed scaling of the gated CPU times.
//!
//! CPU time leaves out the time the hypervisor withholds the vCPUs (see
//! [`crate::cpu`]), but not a slower CPU: on a shared host, other tenants'
//! load on the same cores, caches and memory changed the CPU time of the same
//! simulation pass by 1.6× within half an hour on a 2-vCPU VM. So a run also
//! times a fixed kernel that belongs to the benchmark, not to the library,
//! [`KERNELS_PER_POINT`] times before its first set-up and again after every
//! set-up repetition and timed pass. The median CPU time of the timed passes
//! (of the set-up repetitions) is scaled by [`REFERENCE_S`] over the median
//! kernel time around them: it reads in CPU seconds of a host that runs the
//! kernel in [`REFERENCE_S`]. No change to the library moves the kernel, so
//! the scale removes only the host's drift.
//!
//! The kernel is the same kind of work as the simulator: a dependent walk
//! through a 16 MB ring (the miss path beyond a core's own caches) feeding a
//! set-associative LRU tag array (the hit path).

use crate::stats::median;
use crate::{cpu, Cost};

/// Kernel CPU time, in seconds, on the host the benchmark was defined on
/// (2-vCPU Intel Xeon VM, quiet period).
pub const REFERENCE_S: f64 = 0.060;

/// Kernel runs between two pieces of work.
const KERNELS_PER_POINT: usize = 3;
/// Entries of the ring walked by the kernel.
const RING: usize = 1 << 22;
/// The ring's size in MB. It stays resident for the whole run, so the
/// in-process workloads leave it out of `peak_rss_mb`.
pub const RING_MB: f64 = 16.0;
/// Ring steps per kernel run; each makes [`LOOKUPS`] tag-array lookups.
const STEPS: usize = 250_000;
/// Tag-array lookups per ring step.
const LOOKUPS: u64 = 16;
/// Tag array geometry: 512 sets of 8 ways (a 256 KB cache of 64 B lines).
const SETS: usize = 512;
const WAYS: usize = 8;

/// Measures the pieces of work of one run and times the kernel around each.
pub struct HostClock {
    ring: Vec<u32>,
    /// Kernel CPU seconds measured after the latest piece of work.
    last: Vec<f64>,
}

impl HostClock {
    /// Builds the kernel's ring and times the kernel once more than any
    /// piece of work will.
    pub fn new() -> Self {
        let mut clock = HostClock { ring: ring(), last: Vec::new() };
        clock.last = clock.point();
        clock
    }

    /// Runs `work` and measures its [`Cost`]; `cpu` reads the CPU seconds
    /// used so far by the processes doing the work.
    pub fn measure<T>(&mut self, cpu: impl Fn() -> f64, work: impl FnOnce() -> T) -> (T, Cost) {
        let c0 = cpu();
        let (out, wall_s) = crate::timed(work);
        let cpu_s = cpu() - c0;
        let next = self.point();
        let around: Vec<f64> = self.last.iter().chain(&next).copied().collect();
        self.last = next;
        let kernel_s = median(&around).expect("kernel timed");
        (out, Cost { wall_s, cpu_s, kernel_s })
    }

    /// Times the kernel [`KERNELS_PER_POINT`] times on this thread.
    fn point(&self) -> Vec<f64> {
        (0..KERNELS_PER_POINT)
            .map(|_| {
                let t0 = cpu::thread();
                std::hint::black_box(kernel(&self.ring));
                cpu::thread() - t0
            })
            .collect()
    }
}

/// [`REFERENCE_S`] over the median of `kernel_s` (1 without any).
pub fn scale(kernel_s: &[f64]) -> f64 {
    median(kernel_s).map_or(1.0, |m| REFERENCE_S / m)
}

/// A single cycle through every ring slot (Sattolo's shuffle), so the walk
/// never settles into a short loop that fits in a core's own caches.
fn ring() -> Vec<u32> {
    let mut ring: Vec<u32> = (0..RING as u32).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..RING).rev() {
        x = crate::sim::splitmix64(x);
        ring.swap(i, (x % i as u64) as usize);
    }
    ring
}

/// The kernel; returns the tag-array hit count so nothing is optimised away.
fn kernel(ring: &[u32]) -> u64 {
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut age = vec![0u32; SETS * WAYS];
    let (mut at, mut hits, mut clock) = (0usize, 0u64, 0u32);
    for _ in 0..STEPS {
        at = ring[at] as usize;
        // Nearby lines around a hashed address, in a hot region that fits
        // the tag array three times in four: mostly hits, some misses.
        let h = crate::sim::splitmix64(at as u64);
        let base = if h & 3 == 0 { h >> 44 } else { (h >> 32) & 2047 };
        for k in 0..LOOKUPS {
            let line = base + k;
            let set = (line as usize % SETS) * WAYS;
            let ways = &mut tags[set..set + WAYS];
            clock = clock.wrapping_add(1);
            let way = match ways.iter().position(|&t| t == line) {
                Some(w) => {
                    hits += 1;
                    w
                }
                None => {
                    let ages = &age[set..set + WAYS];
                    let victim = (0..WAYS).min_by_key(|&w| ages[w]).expect("WAYS > 0");
                    ways[victim] = line;
                    victim
                }
            };
            age[set + way] = clock;
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_the_median_probe() {
        assert_eq!(scale(&[]), 1.0);
        // The outlier does not move the median; a host at half speed reads
        // its CPU times at half.
        let probes = [REFERENCE_S * 2.0, REFERENCE_S * 1.0, REFERENCE_S * 50.0];
        assert!((scale(&probes) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ring_is_one_cycle_through_every_slot() {
        let ring = ring();
        assert_eq!(std::mem::size_of_val(ring.as_slice()) as f64, RING_MB * 1024.0 * 1024.0);
        let (mut at, mut steps) = (0usize, 0usize);
        loop {
            at = ring[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, RING);
    }
}
