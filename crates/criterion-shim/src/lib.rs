//! A small, offline, drop-in subset of the `criterion` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace aliases `criterion` to this shim (see the root
//! `Cargo.toml`). It supports the surface our benches use — benchmark
//! groups, `sample_size`, `bench_with_input`, `BenchmarkId`, and the
//! `criterion_group!` / `criterion_main!` macros — and reports the
//! median wall-clock time per iteration on stdout. There is no
//! statistical analysis, HTML report, or baseline comparison.

use std::fmt::Display;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

#[derive(Default)]
pub struct Criterion {
    /// Optional substring filter taken from argv, mirroring
    /// `cargo bench -- <filter>`.
    filter: Option<String>,
}

impl Criterion {
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let name = name.into();
        let mut g = self.benchmark_group(name.clone());
        g.bench_with_input(BenchmarkId::from_parameter(""), &(), {
            let mut f = f;
            move |b, _| f(b)
        });
        g.finish();
    }

    fn matches(&self, full_id: &str) -> bool {
        match &self.filter {
            Some(f) => full_id.contains(f.as_str()),
            None => true,
        }
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full_id = format!("{}/{}", self.name, id.id);
        if !self.criterion.matches(&full_id) {
            return self;
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut bencher = Bencher {
                elapsed: Duration::ZERO,
                iters: 0,
            };
            f(&mut bencher, input);
            if bencher.iters > 0 {
                samples.push(bencher.elapsed / bencher.iters);
            }
        }
        let median = median(&mut samples).unwrap_or_default();
        println!(
            "{full_id}: median {median:?} over {} samples",
            samples.len()
        );
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    elapsed: Duration,
    iters: u32,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        black_box(f());
        self.elapsed += start.elapsed();
        self.iters += 1;
    }
}

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The upper median of `samples` (sorts in place; `None` when empty):
/// the figure the bench reporter above prints.
pub fn median<T: Ord + Copy>(samples: &mut [T]) -> Option<T> {
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied()
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_picks_the_middle_sample() {
        assert_eq!(median::<u64>(&mut []), None);
        assert_eq!(median(&mut [7u64]), Some(7));
        assert_eq!(median(&mut [3u64, 9, 1]), Some(3));
        assert_eq!(median(&mut [4u64, 2, 8, 6]), Some(6));
    }
}
