//! Instrumented memory accounting.
//!
//! Models the process-memory categories the paper measures (§4.5):
//!
//! * the **stack segment** grows in 8 KB pages and never shrinks (the
//!   Solaris behavior §4.5.1 describes; it starts at one page);
//! * the **heap level** is the total of live allocations including a
//!   fixed per-block allocator overhead; the **heap segment** (brk) is
//!   its high watermark;
//! * **dynamic program data** (Figure 2) = stack segment + heap level;
//! * **virtual memory** (Figure 3) = image + shared mappings + stack
//!   segment + heap segment;
//! * the **resident set** (Figure 4) = touched image pages + stack
//!   segment + live heap.
//!
//! Sampling happens at every allocator event under a logical clock the
//! executing VM advances by per-operation costs; the time-weighted mean
//! is the paper's Equation 2 (`M = Σ mᵢ·Δtᵢ / Σ Δtᵢ`), and
//! kcore-min = M(KB) × minutes (§4.5.2.1).

/// The page size used for segment rounding (8 KB, UltraSPARC/Solaris 7).
pub const PAGE: u64 = 8 * 1024;

/// Malloc bookkeeping bytes charged per live heap block.
pub const BLOCK_OVERHEAD: u64 = 16;

/// A process-image description contributing constant terms.
#[derive(Debug, Clone, Copy)]
pub struct ImageModel {
    /// Binary image bytes mapped into the address space.
    pub image_bytes: u64,
    /// Shared library / initial mappings counted in virtual size.
    pub shared_bytes: u64,
    /// Fraction of the image resident (touched) during execution.
    pub resident_fraction: f64,
}

impl ImageModel {
    /// The mat2c model: operators inlined into a larger, mostly-touched
    /// binary (§4.5.3: "the binary image size of a mat2c C code is nearly
    /// always larger").
    pub fn mat2c() -> ImageModel {
        ImageModel {
            image_bytes: 420 * 1024,
            shared_bytes: 2 * 1024 * 1024,
            resident_fraction: 0.7,
        }
    }

    /// The mcc model: a small binary calling into a large shared runtime
    /// library.
    pub fn mcc() -> ImageModel {
        ImageModel {
            image_bytes: 160 * 1024,
            shared_bytes: 3 * 1024 * 1024,
            resident_fraction: 0.5,
        }
    }

    /// The interpreter model: the full MATLAB process image.
    pub fn interpreter() -> ImageModel {
        ImageModel {
            image_bytes: 6 * 1024 * 1024,
            shared_bytes: 14 * 1024 * 1024,
            resident_fraction: 0.45,
        }
    }
}

/// One memory sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Logical time of the sample.
    pub t: u64,
    /// Stack segment bytes.
    pub stack: u64,
    /// Live heap bytes (with overhead).
    pub heap: u64,
}

/// The instrumented allocator and sampler.
#[derive(Debug, Clone)]
pub struct MemRecorder {
    image: ImageModel,
    clock: u64,
    cur_stack: u64,
    stack_segment: u64,
    cur_heap: u64,
    heap_segment: u64,
    live_blocks: u64,
    samples: Vec<Sample>,
    /// Bytes × time accumulators for O(1) averages.
    stack_weight: u128,
    heap_weight: u128,
    dyn_peak: u64,
    last_t: u64,
}

impl MemRecorder {
    /// Creates a recorder for a process following `image`.
    pub fn new(image: ImageModel) -> MemRecorder {
        let mut r = MemRecorder {
            image,
            clock: 0,
            cur_stack: 0,
            stack_segment: PAGE,
            cur_heap: 0,
            heap_segment: 0,
            live_blocks: 0,
            samples: Vec::new(),
            stack_weight: 0,
            heap_weight: 0,
            dyn_peak: 0,
            last_t: 0,
        };
        r.sample();
        r
    }

    fn integrate_to_now(&mut self) {
        let dt = (self.clock - self.last_t) as u128;
        self.stack_weight += dt * self.stack_segment as u128;
        self.heap_weight += dt * self.cur_heap as u128;
        self.last_t = self.clock;
    }

    fn sample(&mut self) {
        self.samples.push(Sample {
            t: self.clock,
            stack: self.stack_segment,
            heap: self.cur_heap,
        });
        self.dyn_peak = self.dyn_peak.max(self.stack_segment + self.cur_heap);
    }

    /// Advances the logical clock by an operation cost (≈ elements
    /// touched).
    pub fn advance(&mut self, cost: u64) {
        // Every mutator leaves the weights integrated up to `clock`, so
        // one integration after the tick covers the whole interval.
        self.clock += cost.max(1);
        self.integrate_to_now();
    }

    /// Pushes a stack frame of `bytes`.
    pub fn stack_push(&mut self, bytes: u64) {
        self.integrate_to_now();
        self.cur_stack += bytes;
        let need = ((self.cur_stack / PAGE) + 1) * PAGE;
        if need > self.stack_segment {
            self.stack_segment = need; // grows, never shrinks
        }
        self.sample();
    }

    /// Pops a stack frame of `bytes`.
    pub fn stack_pop(&mut self, bytes: u64) {
        self.integrate_to_now();
        self.cur_stack = self.cur_stack.saturating_sub(bytes);
        self.sample();
    }

    /// Records a heap allocation; returns the charged size.
    pub fn heap_alloc(&mut self, bytes: u64) -> u64 {
        self.integrate_to_now();
        let charged = bytes + BLOCK_OVERHEAD;
        self.cur_heap += charged;
        self.live_blocks += 1;
        self.heap_segment = self.heap_segment.max(self.cur_heap);
        self.sample();
        charged
    }

    /// Records a heap free of a block previously charged `charged` bytes.
    pub fn heap_free(&mut self, charged: u64) {
        self.integrate_to_now();
        self.cur_heap = self.cur_heap.saturating_sub(charged);
        self.live_blocks = self.live_blocks.saturating_sub(1);
        self.sample();
    }

    /// Records an in-place block resize; returns the new charged size.
    pub fn heap_realloc(&mut self, old_charged: u64, new_bytes: u64) -> u64 {
        self.integrate_to_now();
        let charged = new_bytes + BLOCK_OVERHEAD;
        self.cur_heap = self.cur_heap.saturating_sub(old_charged) + charged;
        self.heap_segment = self.heap_segment.max(self.cur_heap);
        self.sample();
        charged
    }

    // ------------------------------------------------------------------
    // Derived metrics
    // ------------------------------------------------------------------

    /// Total logical time elapsed.
    pub fn elapsed(&self) -> u64 {
        self.clock
    }

    /// Time-weighted average **dynamic program data** (stack segment +
    /// heap level) in bytes — the Figure 2 quantity, via Equation 2.
    pub fn avg_dynamic_data(&self) -> f64 {
        if self.clock == 0 {
            return (self.stack_segment + self.cur_heap) as f64;
        }
        (self.stack_weight + self.heap_weight) as f64 / self.clock as f64
    }

    /// Time-weighted average stack segment (Figure 2's stack series).
    pub fn avg_stack(&self) -> f64 {
        if self.clock == 0 {
            return self.stack_segment as f64;
        }
        self.stack_weight as f64 / self.clock as f64
    }

    /// Time-weighted average heap level.
    pub fn avg_heap(&self) -> f64 {
        if self.clock == 0 {
            return self.cur_heap as f64;
        }
        self.heap_weight as f64 / self.clock as f64
    }

    /// Time-weighted average virtual-memory size (Figure 3): image and
    /// shared mappings plus stack segment plus heap segment. The heap
    /// segment (brk) is approximated by its final high watermark for the
    /// constant part plus the time-varying heap level.
    pub fn avg_vsize(&self) -> f64 {
        self.image.image_bytes as f64
            + self.image.shared_bytes as f64
            + self.avg_stack()
            + self.heap_segment.max((self.avg_heap()) as u64) as f64
    }

    /// Time-weighted average resident set (Figure 4): touched image pages
    /// plus stack segment plus live heap.
    pub fn avg_rss(&self) -> f64 {
        (self.image.image_bytes + self.image.shared_bytes) as f64 * self.image.resident_fraction
            + self.avg_stack()
            + self.avg_heap()
    }

    /// Peak dynamic data (stack segment + heap level).
    pub fn peak_dynamic_data(&self) -> u64 {
        self.dyn_peak
    }

    /// kcore-min (§4.5.2.1): mean size (KB) × duration (minutes) for a
    /// measured wall-clock duration.
    pub fn kcore_min(&self, wall: std::time::Duration) -> f64 {
        (self.avg_dynamic_data() / 1024.0) * (wall.as_secs_f64() / 60.0)
    }

    /// The raw sample series (plotting, tests).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Current live heap bytes.
    pub fn live_heap(&self) -> u64 {
        self.cur_heap
    }

    /// Current live heap block count.
    pub fn live_blocks(&self) -> u64 {
        self.live_blocks
    }

    /// Final stack segment size.
    pub fn stack_segment(&self) -> u64 {
        self.stack_segment
    }
}

impl Default for MemRecorder {
    fn default() -> Self {
        MemRecorder::new(ImageModel::mat2c())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_segment_grows_in_pages_and_never_shrinks() {
        let mut m = MemRecorder::default();
        assert_eq!(m.stack_segment(), PAGE, "initial page (§4.5.1)");
        m.stack_push(20_000);
        let grown = m.stack_segment();
        assert!(grown >= 20_000);
        assert_eq!(grown % PAGE, 0);
        m.stack_pop(20_000);
        assert_eq!(m.stack_segment(), grown, "segments do not shrink");
    }

    #[test]
    fn heap_accounting_with_overhead() {
        let mut m = MemRecorder::default();
        let c1 = m.heap_alloc(1000);
        assert_eq!(c1, 1000 + BLOCK_OVERHEAD);
        assert_eq!(m.live_heap(), c1);
        let c2 = m.heap_realloc(c1, 2000);
        assert_eq!(m.live_heap(), c2);
        m.heap_free(c2);
        assert_eq!(m.live_heap(), 0);
        assert_eq!(m.live_blocks(), 0);
    }

    #[test]
    fn equation2_time_weighted_average() {
        let mut m = MemRecorder::default();
        // Heap at 0 for 10 ticks, then 10000(+overhead) for 30 ticks.
        m.advance(10);
        let c = m.heap_alloc(10_000 - BLOCK_OVERHEAD);
        m.advance(30);
        m.heap_free(c);
        let avg = m.avg_heap();
        // 10 ticks * 0 + 30 ticks * 10000 over 40 ticks = 7500.
        assert!((avg - 7500.0).abs() < 1.0, "{avg}");
    }

    #[test]
    fn averages_weight_by_duration_not_sample_count() {
        let mut a = MemRecorder::default();
        let c = a.heap_alloc(1000);
        a.advance(1);
        a.heap_free(c);
        a.advance(999);
        // Brief 1000-byte spike over 1000 ticks: avg ≈ 1.
        assert!(a.avg_heap() < 10.0, "{}", a.avg_heap());
    }

    #[test]
    fn kcore_min_scales_with_time() {
        let mut m = MemRecorder::default();
        m.heap_alloc(1024 * 1024);
        m.advance(100);
        let k1 = m.kcore_min(std::time::Duration::from_secs(60));
        let k2 = m.kcore_min(std::time::Duration::from_secs(120));
        assert!((k2 / k1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn vsize_includes_image_and_rss_fraction() {
        let m = MemRecorder::new(ImageModel::mcc());
        assert!(m.avg_vsize() > m.avg_rss(), "vsize ⊇ rss");
        assert!(m.avg_vsize() >= (160 * 1024 + 3 * 1024 * 1024) as f64);
    }

    #[test]
    fn dynamic_peak_tracks_high_watermark() {
        let mut m = MemRecorder::default();
        let c = m.heap_alloc(50_000);
        m.heap_free(c);
        m.heap_alloc(10);
        assert!(m.peak_dynamic_data() >= 50_000);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    /// Equation 2 cross-check: the closed-form accumulators must agree
    /// with integrating the recorded sample series.
    #[test]
    fn averages_match_sample_integration() {
        let mut m = MemRecorder::default();
        let mut charges = Vec::new();
        // A pseudo-random allocation schedule.
        let mut x = 7u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            match x % 4 {
                0 => charges.push(m.heap_alloc(1 + (x >> 32) % 10_000)),
                1 => {
                    if let Some(c) = charges.pop() {
                        m.heap_free(c);
                    }
                }
                2 => m.stack_push((x >> 40) % 4_096),
                _ => {}
            }
            m.advance(1 + x % 50);
        }
        // Integrate the samples by hand.
        let samples = m.samples();
        let total = m.elapsed();
        let mut heap_weight = 0u128;
        for w in samples.windows(2) {
            let dt = (w[1].t - w[0].t) as u128;
            heap_weight += dt * w[0].heap as u128;
        }
        if let Some(last) = samples.last() {
            heap_weight += (total - last.t) as u128 * last.heap as u128;
        }
        let integrated = heap_weight as f64 / total as f64;
        let closed_form = m.avg_heap();
        assert!(
            (integrated - closed_form).abs() <= 1.0,
            "{integrated} vs {closed_form}"
        );
    }

    #[test]
    fn samples_are_monotone_in_time() {
        let mut m = MemRecorder::default();
        for i in 0..50 {
            let c = m.heap_alloc(100 * i + 1);
            m.advance(3);
            if i % 2 == 0 {
                m.heap_free(c);
            }
        }
        let mut prev = 0;
        for s in m.samples() {
            assert!(s.t >= prev);
            prev = s.t;
        }
    }
}
