//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Length specifications accepted by [`vec()`]: an exact length, a
/// half-open range, or an inclusive range.
pub trait IntoSizeRange {
    /// Inclusive lower bound, exclusive upper bound.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self + 1)
    }
}

impl IntoSizeRange for std::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        (self.start, self.end)
    }
}

impl IntoSizeRange for std::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end() + 1)
    }
}

pub struct VecStrategy<S> {
    element: S,
    lo: usize,
    hi: usize,
}

pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (lo, hi) = size.bounds();
    assert!(lo < hi, "empty vec length range");
    VecStrategy { element, lo, hi }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.lo + rng.below((self.hi - self.lo) as u64) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
