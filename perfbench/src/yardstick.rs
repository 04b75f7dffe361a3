//! The yardstick: a fixed kernel timed between measurements, so that
//! every time the benchmark reports can be scaled to one host speed.
//!
//! The machine this benchmark was built on is a 2-vCPU VM whose speed
//! is set by its neighbours: over four minutes, single-threaded compile
//! throughput in 5 s windows varied with a coefficient of variation of
//! 14% (slow stretches ran at 0.6x and lasted up to a minute), while
//! its ratio to this kernel's speed, timed in between, varied by 2.3%
//! (correlation 0.995). So each workload times the yardstick around its
//! slices, operations and set-ups, and divides their times by the
//! *host factor* — how much longer the yardstick took than
//! [`NOMINAL_SECS`]; a summary of the factors goes into the result
//! file.
//!
//! A [`Ruler`] runs the kernel on as many threads as the work it scales
//! keeps busy. For `compile-batch`'s two workers, per-slice throughput
//! varied by 6.6%; divided by the one-thread factor it varied by 9.2%,
//! by the two-thread factor 5.7% (correlation 0.83 against 0.71): two
//! busy vCPUs slow each other down in a way one thread does not see.
//!
//! The kernel is benchmark code: a change that claims a gain cannot
//! touch it, so parent and change are scaled by the same ruler. It
//! allocates, formats, hashes and walks a B-tree, as the compiler does
//! — an allocation-free loop tracked the slowdowns only a third as
//! closely — and it frees everything it allocates.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// The kernel's time on one thread of the build machine when
/// undisturbed, seconds. Rulers on more threads divide by it too, so
/// their factors also carry the constant cost of running side by side.
pub const NOMINAL_SECS: f64 = 0.008;

fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        let key = format!("k{:x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        map.insert(key, vec![i; (i % 7) as usize]);
    }
    let mut sums: Vec<u64> = map.values().map(|v| v.iter().sum()).collect();
    sums.sort_unstable();
    map.len() as u64 + sums[sums.len() / 2]
}

/// Times one run of the kernel, in seconds, after an untimed run that
/// leaves the freed memory with the allocator. Without it the timed run
/// also paid for fresh pages whenever the heap had just been trimmed
/// (as the serve workloads do between servers), and on `serve-edit` the
/// factor then tracked the allocator's state rather than the host's
/// speed.
pub fn time_once() -> f64 {
    std::hint::black_box(kernel());
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// Runs the kernel on `threads` threads at once and returns their mean
/// time, in seconds: what a workload that keeps that many CPUs busy
/// sees of the host, contention between the CPUs included.
pub fn time_on(threads: usize) -> f64 {
    if threads <= 1 {
        return time_once();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(time_once)).collect();
        runs.into_iter()
            .map(|r| r.join().expect("the yardstick kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

/// Host factors sampled over a stretch of a run.
#[derive(Debug, Clone)]
pub struct Ruler {
    threads: usize,
    samples: Vec<f64>,
}

impl Ruler {
    /// A ruler for work that keeps `threads` CPUs busy.
    pub fn new(threads: usize) -> Ruler {
        Ruler {
            threads,
            samples: Vec::new(),
        }
    }

    /// Times the kernel `runs` times, on the ruler's threads.
    pub fn sample(&mut self, runs: usize) {
        for _ in 0..runs {
            self.samples.push(time_on(self.threads));
        }
    }

    /// The host factor over the samples so far: median kernel time over
    /// [`NOMINAL_SECS`]. With no samples, 1.
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            stats::median(&self.samples) / NOMINAL_SECS
        }
    }

    /// Starts a new stretch.
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn ruler_reports_the_median_over_nominal() {
        let mut r = Ruler::new(1);
        assert_eq!(r.factor(), 1.0);
        r.samples = vec![0.016, 0.008, 0.024];
        assert_eq!(r.factor(), 2.0);
        r.clear();
        r.sample(1);
        assert!(r.factor() > 0.0);
        let mut two = Ruler::new(2);
        two.sample(1);
        assert_eq!(
            two.samples.len(),
            1,
            "one sample per run, whatever the threads"
        );
    }
}
