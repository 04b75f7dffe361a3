//! The `matc perf-bench` gate: a tracked performance benchmark over
//! the full benchsuite plus the synthetic `paper_scale` stress unit.
//!
//! The gate compiles every unit single-threaded (so phase times are
//! not diluted by scheduling), repeats the run `samples` times after a
//! warmup, and takes the per-metric median (via the criterion shim's
//! [`median`]). The result is written to a machine-readable JSON
//! document — `BENCH_gctd.json` at the repo root — recording phase
//! times, dataflow fixpoint iterations, interference edges and
//! edges/second, audit CFG edges and audit edges/second, and the peak
//! dense live-set row width in words (see DESIGN.md §8 for the
//! schema).
//!
//! When a baseline document already exists the run *compares* instead
//! of rewriting: any gated metric more than `tolerance` (default 25%,
//! overridable through the [`TOLERANCE_ENV`] environment variable for
//! slow CI machines) above the baseline fails the gate. `--bless`
//! rewrites the baseline in place.

use crate::batch::{bench_units, run_batch, BatchConfig, Unit};
use crate::json::Json;
use criterion::median;
use matc_benchsuite::{paper_scale_source, Preset, PAPER_SCALE_STAGES};
use matc_gctd::{GctdOptions, Phase};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Environment variable holding a replacement regression tolerance
/// (a fraction: `0.25` allows 25% over baseline). CI machines with
/// noisy or slower clocks can widen the gate without editing the
/// committed baseline.
pub const TOLERANCE_ENV: &str = "MATC_PERF_TOLERANCE";

/// Default regression tolerance: 25% over baseline fails.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Schema version of the `BENCH_gctd.json` document. Version 2 adds
/// the serve-mode throughput metrics (`serve_rps`, `serve_p50_micros`,
/// `serve_p99_micros`) measured against an in-process `matc serve`
/// daemon. Version 3 promotes the plan auditor to a first-class gated
/// phase: `audit_edges` (deterministic CFG-edge count the auditor
/// processes) and `audit_edges_per_sec` (audit throughput), with
/// `phase_audit_micros` and `audit_edges_per_sec` joining the gate.
/// Version 4 replaces the closed-loop single-connection serve load
/// generator (whose `serve_rps` could never exceed 1/p50) with
/// [`SERVE_BENCH_CONNS`] concurrent pipelined connections against the
/// event-driven reactor, adds the `serve_conns` field recording that
/// concurrency, and measures the cache-warm steady state (cold
/// compiles are warmup, off the clock).
pub const BENCH_SCHEMA: u64 = 4;

/// Concurrent pipelined connections the serve bench drives. Each sends
/// one pipelined batch of the 11 paper benchmarks per round — many
/// frames in flight per socket, responses read back in order.
pub const SERVE_BENCH_CONNS: usize = 32;

/// Default baseline path, relative to the invocation directory.
pub const DEFAULT_BASELINE: &str = "BENCH_gctd.json";

/// Gate configuration (see [`run_gate`]).
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Timed runs per metric (the median is kept).
    pub samples: usize,
    /// Untimed runs before sampling starts.
    pub warmup: usize,
    /// Baseline document path.
    pub baseline: PathBuf,
    /// Rewrite the baseline instead of comparing against it.
    pub bless: bool,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            samples: 5,
            warmup: 1,
            baseline: PathBuf::from(DEFAULT_BASELINE),
            bless: false,
        }
    }
}

/// One measured (or parsed-from-baseline) benchmark document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchDoc {
    /// Timed runs the medians were taken over.
    pub samples: u64,
    /// Compilation units in the suite (11 paper benchmarks + `paper_scale`).
    pub units: u64,
    /// Dataflow worklist visits (liveness + availability + reachability),
    /// summed over all functions of all units. Deterministic.
    pub fixpoint_iters: u64,
    /// Interference-graph edges, summed over units. Deterministic.
    pub interference_edges: u64,
    /// Widest dense live-set row, in `u64` words, over all functions.
    pub peak_live_words: u64,
    /// Interference edges built per second of interference-phase time.
    pub edges_per_sec: u64,
    /// CFG edges the plan auditor processed, summed over units.
    /// Deterministic.
    pub audit_edges: u64,
    /// Audit CFG edges processed per second of audit-phase time — the
    /// auditor's gated throughput metric.
    pub audit_edges_per_sec: u64,
    /// Median microseconds inside the dataflow fixpoints alone.
    pub dataflow_micros: u64,
    /// Median per-phase totals, microseconds, in [`Phase::ALL`] order.
    pub phase_micros: [u64; Phase::ALL.len()],
    /// Median end-to-end wall time of one suite compilation.
    pub wall_micros: u64,
    /// Serve-mode throughput: compile requests per second against a
    /// local daemon, aggregated over [`SERVE_BENCH_CONNS`] concurrent
    /// pipelined connections in the cache-warm steady state a
    /// long-lived daemon actually serves.
    pub serve_rps: u64,
    /// Concurrent connections the serve generator drove.
    pub serve_conns: u64,
    /// Median (p50) serve request latency, microseconds, measured from
    /// a pipelined batch's send to that response's arrival.
    pub serve_p50_micros: u64,
    /// Tail (p99) serve request latency, microseconds — dominated by
    /// the last responses of each pipelined batch under full
    /// concurrency.
    pub serve_p99_micros: u64,
}

impl BenchDoc {
    /// Renders the document as deterministic, diff-friendly JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": {},", BENCH_SCHEMA);
        let _ = writeln!(s, "  \"samples\": {},", self.samples);
        let _ = writeln!(s, "  \"units\": {},", self.units);
        let _ = writeln!(s, "  \"fixpoint_iters\": {},", self.fixpoint_iters);
        let _ = writeln!(s, "  \"interference_edges\": {},", self.interference_edges);
        let _ = writeln!(s, "  \"peak_live_words\": {},", self.peak_live_words);
        let _ = writeln!(s, "  \"edges_per_sec\": {},", self.edges_per_sec);
        let _ = writeln!(s, "  \"audit_edges\": {},", self.audit_edges);
        let _ = writeln!(
            s,
            "  \"audit_edges_per_sec\": {},",
            self.audit_edges_per_sec
        );
        let _ = writeln!(s, "  \"dataflow_micros\": {},", self.dataflow_micros);
        for (i, p) in Phase::ALL.iter().enumerate() {
            let _ = writeln!(
                s,
                "  \"phase_{}_micros\": {},",
                p.name(),
                self.phase_micros[i]
            );
        }
        let _ = writeln!(s, "  \"wall_micros\": {},", self.wall_micros);
        let _ = writeln!(s, "  \"serve_rps\": {},", self.serve_rps);
        let _ = writeln!(s, "  \"serve_conns\": {},", self.serve_conns);
        let _ = writeln!(s, "  \"serve_p50_micros\": {},", self.serve_p50_micros);
        let _ = writeln!(s, "  \"serve_p99_micros\": {}", self.serve_p99_micros);
        let _ = writeln!(s, "}}");
        s
    }

    /// Parses a document previously written by [`BenchDoc::to_json`].
    pub fn from_json(doc: &str) -> Result<BenchDoc, String> {
        let doc = Json::parse(doc).map_err(|e| format!("baseline is not JSON: {e}"))?;
        let get = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("baseline is missing \"{key}\""))
        };
        let schema = get("schema")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "baseline schema {schema} != expected {BENCH_SCHEMA}; \
                 re-bless with `matc perf-bench --bless`"
            ));
        }
        let mut phase_micros = [0u64; Phase::ALL.len()];
        for (i, p) in Phase::ALL.iter().enumerate() {
            phase_micros[i] = get(&format!("phase_{}_micros", p.name()))?;
        }
        Ok(BenchDoc {
            samples: get("samples")?,
            units: get("units")?,
            fixpoint_iters: get("fixpoint_iters")?,
            interference_edges: get("interference_edges")?,
            peak_live_words: get("peak_live_words")?,
            edges_per_sec: get("edges_per_sec")?,
            audit_edges: get("audit_edges")?,
            audit_edges_per_sec: get("audit_edges_per_sec")?,
            dataflow_micros: get("dataflow_micros")?,
            phase_micros,
            wall_micros: get("wall_micros")?,
            serve_rps: get("serve_rps")?,
            serve_conns: get("serve_conns")?,
            serve_p50_micros: get("serve_p50_micros")?,
            serve_p99_micros: get("serve_p99_micros")?,
        })
    }

    fn phase(&self, phase: Phase) -> u64 {
        self.phase_micros[Phase::ALL.iter().position(|p| *p == phase).unwrap()]
    }
}

/// The unit list the gate compiles: all paper benchmarks (Test preset)
/// plus the deterministic `paper_scale` stress generator.
pub fn gate_units() -> Vec<Unit> {
    let mut units = bench_units(Preset::Test);
    units.push(Unit::new(
        "paper_scale",
        vec![paper_scale_source(PAPER_SCALE_STAGES)],
    ));
    units
}

/// Compiles the gate suite `warmup + samples` times (single-threaded,
/// uncached) and returns the median-of-samples document.
pub fn measure(samples: usize, warmup: usize) -> Result<BenchDoc, String> {
    let units = gate_units();
    let config = BatchConfig {
        jobs: 1,
        options: GctdOptions::default(),
        fail_fast: false,
        phase_timeout_ms: None,
        fuel: None,
        faults: None,
        deadline: None,
    };
    let samples = samples.max(1);
    let mut phase_samples: Vec<Vec<u64>> = vec![Vec::new(); Phase::ALL.len()];
    let mut dataflow_samples: Vec<u64> = Vec::new();
    let mut wall_samples: Vec<u64> = Vec::new();
    let mut counters: Option<(u64, u64, u64, u64)> = None;
    for round in 0..warmup + samples {
        let res = run_batch(&units, &config, None);
        if res.failed() > 0 {
            let bad: Vec<&str> = res
                .report
                .units
                .iter()
                .filter(|u| !u.ok())
                .map(|u| u.unit.as_str())
                .collect();
            return Err(format!("unit(s) failed to compile: {}", bad.join(", ")));
        }
        if round < warmup {
            continue;
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            phase_samples[i].push(res.report.phase_total_micros(*p));
        }
        dataflow_samples.push(
            res.report
                .units
                .iter()
                .map(|u| u.dataflow_nanos / 1_000)
                .sum(),
        );
        wall_samples.push(res.report.wall_micros);
        let iters: u64 = res.report.units.iter().map(|u| u.dataflow_iters).sum();
        let edges: u64 = res
            .report
            .units
            .iter()
            .map(|u| u.interference_edges as u64)
            .sum();
        let words = res
            .report
            .units
            .iter()
            .map(|u| u.peak_live_words)
            .max()
            .unwrap_or(0);
        let audit: u64 = res.report.units.iter().map(|u| u.audit_edges).sum();
        // The counter tuple is deterministic; any drift between
        // samples means the compiler itself is nondeterministic.
        match counters {
            None => counters = Some((iters, edges, words, audit)),
            Some(prev) if prev != (iters, edges, words, audit) => {
                return Err(format!(
                    "nondeterministic counters across samples: {prev:?} vs {:?}",
                    (iters, edges, words, audit)
                ));
            }
            Some(_) => {}
        }
    }
    let (fixpoint_iters, interference_edges, peak_live_words, audit_edges) =
        counters.expect("samples >= 1");
    let mut phase_micros = [0u64; Phase::ALL.len()];
    for (i, v) in phase_samples.iter_mut().enumerate() {
        phase_micros[i] = median(v).unwrap_or(0);
    }
    let interference_micros = phase_micros[Phase::ALL
        .iter()
        .position(|p| *p == Phase::Interference)
        .unwrap()];
    let audit_micros = phase_micros[Phase::ALL.iter().position(|p| *p == Phase::Audit).unwrap()];
    let (serve_rps, serve_p50_micros, serve_p99_micros) = measure_serve(samples)?;
    let serve_conns = SERVE_BENCH_CONNS as u64;
    Ok(BenchDoc {
        samples: samples as u64,
        units: units.len() as u64,
        fixpoint_iters,
        interference_edges,
        peak_live_words,
        edges_per_sec: interference_edges * 1_000_000 / interference_micros.max(1),
        audit_edges,
        audit_edges_per_sec: audit_edges * 1_000_000 / audit_micros.max(1),
        dataflow_micros: median(&mut dataflow_samples).unwrap_or(0),
        phase_micros,
        wall_micros: median(&mut wall_samples).unwrap_or(0),
        serve_rps,
        serve_conns,
        serve_p50_micros,
        serve_p99_micros,
    })
}

/// Serve-mode throughput against an in-process `matc serve` reactor
/// (ephemeral port, in-memory cache): [`SERVE_BENCH_CONNS`] concurrent
/// client threads each run `samples` rounds, and each round pipelines
/// all 11 paper benchmarks down one connection before reading the
/// responses back in order. Returns `(aggregate requests/sec, p50 us,
/// p99 us)` where a request's latency runs from its batch's send to
/// that response's arrival. One sequential warmup pass populates the
/// cache first — the measurement is the cache-warm steady state a
/// long-lived daemon actually serves, not cold-compile time.
fn measure_serve(samples: usize) -> Result<(u64, u64, u64), String> {
    let cfg = crate::serve::ServeConfig {
        jobs: 2,
        // Admission control would shed a synthetic burst this dense;
        // the bench measures the reactor + pipeline, not the shedder.
        queue_cap: 100_000,
        high_water: 100_000,
        ..crate::serve::ServeConfig::default()
    };
    let handle = crate::serve::start(cfg).map_err(|e| format!("cannot start daemon: {e}"))?;
    let addr = handle.addr().to_string();
    let units = bench_units(Preset::Test);
    let frames: Vec<String> = units
        .iter()
        .map(|unit| {
            Json::obj([
                ("op", Json::str("compile")),
                ("name", Json::str(unit.name.as_str())),
                (
                    "sources",
                    Json::Arr(unit.sources.iter().map(Json::str).collect()),
                ),
            ])
            .render()
        })
        .collect();
    let timeout = Duration::from_secs(60);
    let check = |line: &str| -> Result<(), String> {
        let resp =
            Json::parse(line).map_err(|e| format!("serve-bench: bad response: {e}: {line}"))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true)
            || resp.get("status").and_then(Json::as_str) != Some("ok")
        {
            return Err(format!("serve-bench: request failed: {line}"));
        }
        Ok(())
    };
    // Warmup: cold-compile each unit once so the timed phase measures
    // steady-state (cache-hit) serving.
    let warm = (|| -> Result<(), String> {
        for f in &frames {
            check(&crate::serve::send_once(&addr, f, timeout)?)?;
        }
        Ok(())
    })();
    if let Err(e) = warm {
        handle.shutdown();
        return Err(e);
    }

    let rounds = samples.max(1);
    let started = Instant::now();
    let clients: Vec<_> = (0..SERVE_BENCH_CONNS)
        .map(|_| {
            let addr = addr.clone();
            let frames = frames.clone();
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut lat = Vec::with_capacity(rounds * frames.len());
                for _ in 0..rounds {
                    let mut err = None;
                    let batch = Instant::now();
                    crate::serve::send_pipelined_with(&addr, &frames, timeout, |_, line| {
                        lat.push(u64::try_from(batch.elapsed().as_micros()).unwrap_or(u64::MAX));
                        if err.is_none() {
                            if let Err(e) = check(line) {
                                err = Some(e);
                            }
                        }
                    })?;
                    if let Some(e) = err {
                        return Err(e);
                    }
                }
                Ok(lat)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    let mut failure: Option<String> = None;
    for c in clients {
        match c.join() {
            Ok(Ok(lat)) => latencies.extend(lat),
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some("serve-bench: client thread panicked".to_string()),
        }
    }
    let wall = started.elapsed();
    handle.shutdown();
    if let Some(e) = failure {
        return Err(e);
    }
    latencies.sort_unstable();
    let pick = |pct: usize| latencies[((latencies.len() - 1) * pct) / 100];
    let rps = latencies.len() as u64 * 1_000_000
        / u64::try_from(wall.as_micros()).unwrap_or(u64::MAX).max(1);
    Ok((rps, pick(50), pick(99)))
}

/// One gated metric's comparison outcome.
#[derive(Debug, Clone)]
pub struct GateLine {
    /// Metric name as it appears in the JSON document.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: u64,
    /// Freshly measured value.
    pub current: u64,
    /// Whether `current` exceeds `baseline * (1 + tolerance)`.
    pub regressed: bool,
}

/// Compares the gated metrics of `current` against `baseline`.
/// Timing metrics and the (deterministic) fixpoint-iteration count are
/// gated lower-is-better; throughput metrics (`serve_rps`,
/// `audit_edges_per_sec`) are gated higher-is-better (a drop below
/// `baseline * (1 - tolerance)` fails).
/// Pure so it is unit-testable without timing anything.
pub fn compare(baseline: &BenchDoc, current: &BenchDoc, tolerance: f64) -> Vec<GateLine> {
    let gated: [(&'static str, u64, u64); 7] = [
        (
            "dataflow_micros",
            baseline.dataflow_micros,
            current.dataflow_micros,
        ),
        (
            "phase_interference_micros",
            baseline.phase(Phase::Interference),
            current.phase(Phase::Interference),
        ),
        (
            "phase_coloring_micros",
            baseline.phase(Phase::Coloring),
            current.phase(Phase::Coloring),
        ),
        (
            "phase_audit_micros",
            baseline.phase(Phase::Audit),
            current.phase(Phase::Audit),
        ),
        ("wall_micros", baseline.wall_micros, current.wall_micros),
        (
            "fixpoint_iters",
            baseline.fixpoint_iters,
            current.fixpoint_iters,
        ),
        (
            "serve_p99_micros",
            baseline.serve_p99_micros,
            current.serve_p99_micros,
        ),
    ];
    let mut lines: Vec<GateLine> = gated
        .iter()
        .map(|(metric, b, c)| GateLine {
            metric,
            baseline: *b,
            current: *c,
            regressed: (*c as f64) > (*b as f64) * (1.0 + tolerance),
        })
        .collect();
    // Throughput gates in the other direction: slower serving (or a
    // slower auditor) fails.
    lines.push(GateLine {
        metric: "serve_rps",
        baseline: baseline.serve_rps,
        current: current.serve_rps,
        regressed: (current.serve_rps as f64) < (baseline.serve_rps as f64) * (1.0 - tolerance),
    });
    lines.push(GateLine {
        metric: "audit_edges_per_sec",
        baseline: baseline.audit_edges_per_sec,
        current: current.audit_edges_per_sec,
        regressed: (current.audit_edges_per_sec as f64)
            < (baseline.audit_edges_per_sec as f64) * (1.0 - tolerance),
    });
    lines
}

/// The regression tolerance: [`TOLERANCE_ENV`] if set and parseable,
/// [`DEFAULT_TOLERANCE`] otherwise.
pub fn tolerance_from_env() -> Result<f64, String> {
    match std::env::var(TOLERANCE_ENV) {
        Ok(v) => v
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("bad {TOLERANCE_ENV} value {v:?} (want a fraction like 0.25)")),
        Err(_) => Ok(DEFAULT_TOLERANCE),
    }
}

/// Renders the comparison table.
pub fn render_gate(lines: &[GateLine], tolerance: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:26} {:>12} {:>12} {:>8}  gate (+{:.0}%)",
        "metric",
        "baseline",
        "current",
        "ratio",
        tolerance * 100.0
    );
    for l in lines {
        let ratio = l.current as f64 / (l.baseline as f64).max(1.0);
        let _ = writeln!(
            s,
            "{:26} {:>12} {:>12} {:>7.2}x  {}",
            l.metric,
            l.baseline,
            l.current,
            ratio,
            if l.regressed { "FAIL" } else { "ok" }
        );
    }
    s
}

/// Runs the full gate: measure, then bless or compare `opts.baseline`.
/// Returns the human-readable report, or an error describing the
/// regression (or IO/parse failure).
pub fn run_gate(opts: &PerfOptions) -> Result<String, String> {
    let current = measure(opts.samples, opts.warmup)?;
    let path: &Path = &opts.baseline;
    let existing = std::fs::read_to_string(path).ok();
    if opts.bless || existing.is_none() {
        std::fs::write(path, current.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        return Ok(format!(
            "perf-bench: baseline {} {} ({} units, {} samples; interference {} us, \
             dataflow {} us, {} fixpoint iters, {} edges, {} edges/s, {} live words; \
             audit {} us, {} audit edges, {} audit edges/s; \
             serve {} req/s, p50 {} us, p99 {} us)\n",
            if opts.bless {
                "blessed to"
            } else {
                "written to"
            },
            path.display(),
            current.units,
            current.samples,
            current.phase(Phase::Interference),
            current.dataflow_micros,
            current.fixpoint_iters,
            current.interference_edges,
            current.edges_per_sec,
            current.peak_live_words,
            current.phase(Phase::Audit),
            current.audit_edges,
            current.audit_edges_per_sec,
            current.serve_rps,
            current.serve_p50_micros,
            current.serve_p99_micros,
        ));
    }
    let baseline = BenchDoc::from_json(&existing.expect("checked above"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let tolerance = tolerance_from_env()?;
    let lines = compare(&baseline, &current, tolerance);
    let table = render_gate(&lines, tolerance);
    let failed: Vec<&str> = lines
        .iter()
        .filter(|l| l.regressed)
        .map(|l| l.metric)
        .collect();
    if failed.is_empty() {
        Ok(format!("perf-bench: PASS vs {}\n{table}", path.display()))
    } else {
        Err(format!(
            "perf-bench: REGRESSION in {} vs {}\n{table}",
            failed.join(", "),
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> BenchDoc {
        BenchDoc {
            samples: 3,
            units: 12,
            fixpoint_iters: 1000,
            interference_edges: 500,
            peak_live_words: 4,
            edges_per_sec: 250_000,
            audit_edges: 300,
            audit_edges_per_sec: 120_000,
            dataflow_micros: 100,
            phase_micros: [10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            wall_micros: 2000,
            serve_rps: 40,
            serve_conns: 32,
            serve_p50_micros: 15_000,
            serve_p99_micros: 90_000,
        }
    }

    #[test]
    fn json_round_trips() {
        let d = doc();
        let j = d.to_json();
        assert!(j.starts_with("{\n  \"schema\": 4,"), "{j}");
        assert_eq!(BenchDoc::from_json(&j).unwrap(), d);
    }

    #[test]
    fn from_json_rejects_missing_keys_and_bad_schema() {
        assert!(BenchDoc::from_json("{}").unwrap_err().contains("schema"));
        let j = doc().to_json().replace("\"schema\": 4", "\"schema\": 9");
        assert!(BenchDoc::from_json(&j).unwrap_err().contains("schema 9"));
        let j = doc().to_json().replace("wall_micros", "wall_milliparsecs");
        assert!(BenchDoc::from_json(&j).unwrap_err().contains("wall_micros"));
    }

    #[test]
    fn compare_gates_on_tolerance() {
        let base = doc();
        let mut cur = doc();
        let lines = compare(&base, &cur, 0.25);
        assert!(lines.iter().all(|l| !l.regressed));
        // 30% slower dataflow: out of a 25% gate, inside a 50% one.
        cur.dataflow_micros = 130;
        let lines = compare(&base, &cur, 0.25);
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.regressed)
                .map(|l| l.metric)
                .collect::<Vec<_>>(),
            vec!["dataflow_micros"]
        );
        assert!(compare(&base, &cur, 0.5).iter().all(|l| !l.regressed));
        let table = render_gate(&lines, 0.25);
        assert!(table.contains("FAIL"), "{table}");
    }

    #[test]
    fn serve_throughput_gates_higher_is_better() {
        let base = doc();
        let mut cur = doc();
        // Faster serving (more rps, lower latency) must never fail.
        cur.serve_rps = 80;
        cur.serve_p99_micros = 50_000;
        assert!(compare(&base, &cur, 0.25).iter().all(|l| !l.regressed));
        // A 50% throughput collapse is out of a 25% gate.
        cur.serve_rps = 20;
        let regressed: Vec<&str> = compare(&base, &cur, 0.25)
            .iter()
            .filter(|l| l.regressed)
            .map(|l| l.metric)
            .collect();
        assert_eq!(regressed, vec!["serve_rps"]);
        // And a p99 blow-up trips the lower-is-better side.
        cur.serve_rps = 40;
        cur.serve_p99_micros = 200_000;
        let regressed: Vec<&str> = compare(&base, &cur, 0.25)
            .iter()
            .filter(|l| l.regressed)
            .map(|l| l.metric)
            .collect();
        assert_eq!(regressed, vec!["serve_p99_micros"]);
    }

    #[test]
    fn audit_metrics_gate_both_directions() {
        let base = doc();
        let mut cur = doc();
        // A faster, higher-throughput auditor must never fail.
        cur.phase_micros[7] = 8; // audit phase
        cur.audit_edges_per_sec = 1_000_000;
        assert!(compare(&base, &cur, 0.25).iter().all(|l| !l.regressed));
        // A slow audit phase trips the lower-is-better gate.
        cur.phase_micros[7] = 200;
        cur.audit_edges_per_sec = base.audit_edges_per_sec;
        let regressed: Vec<&str> = compare(&base, &cur, 0.25)
            .iter()
            .filter(|l| l.regressed)
            .map(|l| l.metric)
            .collect();
        assert_eq!(regressed, vec!["phase_audit_micros"]);
        // A throughput collapse trips the higher-is-better gate.
        cur.phase_micros[7] = base.phase_micros[7];
        cur.audit_edges_per_sec = 10_000;
        let regressed: Vec<&str> = compare(&base, &cur, 0.25)
            .iter()
            .filter(|l| l.regressed)
            .map(|l| l.metric)
            .collect();
        assert_eq!(regressed, vec!["audit_edges_per_sec"]);
    }

    #[test]
    fn gate_unit_list_ends_with_paper_scale() {
        let units = gate_units();
        assert_eq!(units.last().unwrap().name, "paper_scale");
        assert_eq!(units.len(), 12);
    }
}
