//! What a run reports: the operation tally, every metric with its
//! distribution, and the contract line printed last.

use crate::host;
use crate::registry::registry;
use crate::stats::{self, percentile_label, Summary};
use matc::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Failure messages kept per run (the count is always exact).
const MAX_ERRORS: usize = 20;

/// Operations attempted and failed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation and its check's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.reject(e);
        }
    }

    /// Fails an operation already counted (a check made after the
    /// timed window, such as the serve-edit sample).
    pub fn reject(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// One reported metric: its value plus, for timings, the distribution
/// it came from and its value in each slice of the timed window.
#[derive(Debug, Clone)]
pub struct Reported {
    /// The value printed in the contract line.
    pub value: f64,
    /// Distribution of the underlying samples.
    pub summary: Option<Summary>,
    /// The metric computed over each slice on its own.
    pub slices: Vec<f64>,
}

impl Reported {
    /// A plain value.
    pub fn value(value: f64) -> Reported {
        Reported {
            value,
            summary: None,
            slices: Vec::new(),
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations and failures.
    pub tally: Tally,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Reported>,
    /// Extra human-readable lines (findings, stall notes).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Sets a plain metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), Reported::value(value));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// Checks that exactly the registry's metrics for this mode were
    /// reported, so a missing or misspelt metric is a bug caught here
    /// rather than a rejected result.
    ///
    /// # Errors
    ///
    /// Names the missing and unexpected metrics.
    pub fn validate(&self, traced: bool) -> Result<(), String> {
        let want: Vec<&str> = registry()
            .metrics(traced)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let missing: Vec<&str> = want
            .iter()
            .copied()
            .filter(|n| !self.metrics.contains_key(*n))
            .collect();
        let extra: Vec<&str> = self
            .metrics
            .keys()
            .map(String::as_str)
            .filter(|n| !want.contains(n))
            .collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
            ))
        }
    }

    /// The human report: one line per metric with unit, sample count,
    /// median, quartiles, tail and slice spread, `unresolved` where the
    /// slices spread wider than the bound.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {workload} ({}) — {} attempted, {} failed",
            if traced { "traced" } else { "end to end" },
            self.tally.attempted,
            self.tally.failed
        );
        for e in &self.tally.errors {
            let _ = writeln!(s, "   FAILED: {e}");
        }
        for def in registry().metrics(traced) {
            let Some(r) = self.metrics.get(&def.name) else {
                continue;
            };
            let _ = write!(
                s,
                "   {:32} {:>14} {:6}",
                def.name,
                fmt_num(r.value),
                def.unit
            );
            if let Some(sm) = &r.summary {
                let _ = write!(
                    s,
                    "  n={} median={} q1={} q3={}",
                    sm.n,
                    fmt_num(sm.median),
                    fmt_num(sm.q1),
                    fmt_num(sm.q3)
                );
                match sm.tail {
                    Some((p, v)) => {
                        let _ = write!(s, " {}={}", percentile_label(p), fmt_num(v));
                    }
                    None => {
                        let _ = write!(s, " (too few samples for a tail)");
                    }
                }
            }
            if r.slices.len() >= 2 {
                let spread = stats::spread(&r.slices);
                let _ = write!(
                    s,
                    "  slices={} spread={:.1}%",
                    r.slices.len(),
                    spread * 100.0
                );
                if let Some(b) = def.bound {
                    if def.name != "setup_s" && stats::unresolved(&r.slices, b) {
                        let _ = write!(s, " > bound {:.0}% UNRESOLVED", b * 100.0);
                    }
                }
            }
            s.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(s, "   note: {n}");
        }
        s
    }

    /// The contract line: `{"correct", "attempted", "failed",
    /// "metrics": {name: {"value", "unit"}}}`.
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics = registry()
            .metrics(traced)
            .iter()
            .filter_map(|def| {
                self.metrics.get(&def.name).map(|r| {
                    (
                        def.name.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(r.value)),
                            ("unit".into(), Json::str(def.unit.as_str())),
                        ]),
                    )
                })
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.tally.attempted)),
            ("failed".into(), Json::num(self.tally.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// The result file: the contract fields plus distributions, slice
    /// values, failures and the host stamp.
    pub fn to_file_json(&self, workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
        let num = |v: f64| Json::Num(v);
        let metrics = self
            .metrics
            .iter()
            .map(|(name, r)| {
                let mut m = vec![("value".to_string(), num(r.value))];
                if let Some(sm) = &r.summary {
                    m.push(("n".into(), Json::num(sm.n as u64)));
                    m.push(("q1".into(), num(sm.q1)));
                    m.push(("median".into(), num(sm.median)));
                    m.push(("q3".into(), num(sm.q3)));
                    if let Some((p, v)) = sm.tail {
                        m.push(("tail".into(), Json::str(percentile_label(p))));
                        m.push(("tail_value".into(), num(v)));
                    }
                }
                if !r.slices.is_empty() {
                    m.push((
                        "slices".into(),
                        Json::Arr(r.slices.iter().map(|v| num(*v)).collect()),
                    ));
                }
                (name.clone(), Json::Obj(m))
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(workload)),
            ("traced".into(), Json::Bool(traced)),
            ("seconds".into(), num(seconds)),
            ("stamp".into(), host::stamp(seed)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.tally.attempted)),
            ("failed".into(), Json::num(self.tally.failed)),
            (
                "errors".into(),
                Json::Arr(self.tally.errors.iter().map(Json::str).collect()),
            ),
            ("metrics".into(), Json::Obj(metrics)),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
        .render()
    }
}

/// Four significant digits, without exponent noise for the usual range.
fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.001 && v.abs() < 1e7 {
        let digits = (4 - v.abs().log10().floor() as i32 - 1).clamp(0, 6) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

/// `(input index, latency in ms)` of one measured operation. Eight
/// bytes, because the process's own peak RSS is a metric and the serve
/// workloads keep a few hundred thousand of these.
pub type Latency = (u32, f32);

/// The timed window of a workload, cut into consecutive slices.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Operations measured in the slice.
    pub ops: u64,
    /// Wall seconds the slice's operations took.
    pub secs: f64,
    /// Every measured operation of the slice.
    pub latencies: Vec<Latency>,
}

impl Slice {
    /// The slice with its times divided by a host factor
    /// (`crate::yardstick`).
    pub fn scaled(mut self, factor: f64) -> Slice {
        self.secs /= factor;
        for l in &mut self.latencies {
            l.1 = (f64::from(l.1) / factor) as f32;
        }
        self
    }
}

/// A note summarising the host factors a run was scaled by.
pub fn host_note(factors: &[f64]) -> String {
    if factors.is_empty() {
        return "no host factor sampled".to_string();
    }
    let s = stats::sorted(factors);
    format!(
        "host factor (yardstick time / nominal) median {:.3}, range {:.3}..{:.3} over {} stretch(es); times are divided by it",
        stats::median(&s),
        s[0],
        s[s.len() - 1],
        s.len()
    )
}

fn rate(s: &Slice) -> f64 {
    if s.secs > 0.0 {
        s.ops as f64 / s.secs
    } else {
        0.0
    }
}

/// Geometric mean over inputs of each input's median latency.
fn geomean_of_medians<'a>(inputs: usize, lat: impl Iterator<Item = &'a Latency>) -> Option<f64> {
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); inputs];
    for &(i, ms) in lat {
        per_input[i as usize].push(f64::from(ms));
    }
    let medians: Vec<f64> = per_input
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(v))
        .collect();
    stats::geomean(&medians)
}

/// `latency_p50_ms` and `latency_p99_ms`: nearest-rank percentiles of
/// every latency of every slice, each with its value per slice.
///
/// # Panics
///
/// Panics when no slice holds a latency.
pub fn latency_percentiles(per_slice: &[Vec<f64>]) -> [(String, Reported); 2] {
    let pooled: Vec<f64> = per_slice.iter().flatten().copied().collect();
    let sorted = stats::sorted(&pooled);
    let summary = Summary::of(&pooled);
    [("latency_p50_ms", 500), ("latency_p99_ms", 990)].map(|(name, p)| {
        let slices = per_slice
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::percentile(&stats::sorted(v), p))
            .collect();
        (
            name.to_string(),
            Reported {
                value: stats::percentile(&sorted, p),
                summary: Some(summary.clone()),
                slices,
            },
        )
    })
}

/// Computes the end-to-end metrics every workload reports from its set-up
/// times, its slices and the number of its inputs. Every set-up, slice
/// and operation counts, so a slowdown confined to a few slices still
/// moves the metrics:
///
/// * `setup_s` — median of the repeated set-ups;
/// * `throughput` — operations over seconds, summed over the slices;
/// * `latency_p50_ms`, `latency_p99_ms` — nearest-rank percentiles of
///   every operation ([`latency_percentiles`]);
/// * `geomean_ms` — the geometric mean over inputs of each input's
///   median latency;
/// * `peak_rss_mb` — as the workload read it when its window ended
///   ([`host::peak_rss_mb`]).
///
/// Each metric also records its value in every slice, for the spread
/// that flags it `unresolved`.
///
/// # Errors
///
/// Fails when nothing was measured.
pub fn end_to_end(
    setups: &[f64],
    slices: &[Slice],
    inputs: usize,
    peak_rss_mb: f64,
) -> Result<BTreeMap<String, Reported>, String> {
    let measured: Vec<&Slice> = slices.iter().filter(|s| !s.latencies.is_empty()).collect();
    let secs: f64 = slices.iter().map(|s| s.secs).sum();
    if measured.is_empty() || setups.is_empty() || secs <= 0.0 {
        return Err("the timed window measured no operation".into());
    }
    let mut out = BTreeMap::new();
    out.insert(
        "setup_s".to_string(),
        Reported {
            value: stats::median(setups),
            summary: Some(Summary::of(setups)),
            slices: setups.to_vec(),
        },
    );
    let ops: u64 = slices.iter().map(|s| s.ops).sum();
    out.insert(
        "throughput".to_string(),
        Reported {
            value: ops as f64 / secs,
            summary: None,
            slices: slices.iter().map(rate).collect(),
        },
    );
    let per_slice: Vec<Vec<f64>> = measured
        .iter()
        .map(|s| s.latencies.iter().map(|l| f64::from(l.1)).collect())
        .collect();
    out.extend(latency_percentiles(&per_slice));
    let value = geomean_of_medians(inputs, measured.iter().flat_map(|s| s.latencies.iter()))
        .ok_or("a latency was not positive")?;
    out.insert(
        "geomean_ms".to_string(),
        Reported {
            value,
            summary: None,
            slices: measured
                .iter()
                .filter_map(|s| geomean_of_medians(inputs, s.latencies.iter()))
                .collect(),
        },
    );
    out.insert("peak_rss_mb".to_string(), Reported::value(peak_rss_mb));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_counts_every_slice() {
        let slice = |ops: u64, lat: f32| Slice {
            ops,
            secs: 2.0,
            latencies: (0..ops as u32)
                .map(|i| (i % 2, lat * (1 + 3 * (i % 2)) as f32))
                .collect(),
        };
        // Two undisturbed slices and one slowed to half speed: the slow
        // one moves every metric.
        let slices = vec![slice(6, 1.0), slice(3, 2.0), slice(6, 1.0)];
        let m = end_to_end(&[0.5, 0.9, 0.6], &slices, 2, 12.5).unwrap();
        assert_eq!(m["setup_s"].value, 0.6);
        assert_eq!(m["throughput"].value, 2.5, "15 operations in 6 s");
        assert_eq!(m["throughput"].slices, vec![3.0, 1.5, 3.0]);
        // Latencies 1 (x6), 2 (x2), 4 (x6) and 8: rank 8 of 15 is 2.
        assert_eq!(m["latency_p50_ms"].value, 2.0);
        assert_eq!(m["latency_p99_ms"].value, 8.0);
        assert_eq!(m["latency_p99_ms"].slices, vec![4.0, 8.0, 4.0]);
        // Input 0 has median 1, input 1 median 4.
        assert!((m["geomean_ms"].value - 2.0).abs() < 1e-12);
        assert_eq!(m["latency_p50_ms"].summary.as_ref().unwrap().n, 15);
        assert_eq!(m["peak_rss_mb"].value, 12.5);
        assert!(end_to_end(&[0.5], &[], 2, 1.0).is_err());
    }

    #[test]
    fn a_stalled_slice_lowers_throughput() {
        let busy = Slice {
            ops: 100,
            secs: 1.0,
            latencies: vec![(0, 1.0); 100],
        };
        let stalled = Slice {
            ops: 1,
            secs: 1.0,
            latencies: vec![(0, 20.0)],
        };
        let m = end_to_end(&[0.1], &[busy.clone(), busy, stalled], 1, 1.0).unwrap();
        assert!((m["throughput"].value - 67.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_divides_times_by_the_host_factor() {
        let s = Slice {
            ops: 2,
            secs: 4.0,
            latencies: vec![(0, 2.0), (1, 6.0)],
        }
        .scaled(2.0);
        assert_eq!(s.secs, 2.0);
        assert_eq!(s.latencies, vec![(0, 1.0), (1, 3.0)]);
        assert_eq!(s.ops, 2);
    }

    #[test]
    fn tally_counts_every_failure_but_keeps_few_messages() {
        let mut t = Tally::default();
        for i in 0..30 {
            t.record(Err(format!("op {i}")));
        }
        t.record(Ok(()));
        t.reject("late".into());
        assert_eq!((t.attempted, t.failed), (31, 31));
        assert_eq!(t.errors.len(), MAX_ERRORS);
    }

    #[test]
    fn numbers_print_with_four_significant_digits() {
        assert_eq!(fmt_num(1234.5678), "1235");
        assert_eq!(fmt_num(1.234567), "1.235");
        assert_eq!(fmt_num(0.01234567), "0.01235");
        assert_eq!(fmt_num(0.0), "0");
    }
}
