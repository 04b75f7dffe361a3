//! The `matc perf-bench` gate: the benchmark's host-scaled results
//! (`perfbench/`, declared by `BENCHMARK.json`) against the committed
//! baseline `PERF_BASELINE.json`.
//!
//! `just perf-bench` first runs the benchmark binary for the four
//! short passes in [`PASSES`], each of which writes
//! `target/benchmark/result-<workload>-seed1-trace<T>.json`. The gate
//! reads those files and compares the ten lines of [`GATES`] against
//! the baseline, each in the direction `BENCHMARK.json` declares for its
//! metric: a value more than the tolerance (default 25%, overridable
//! through [`TOLERANCE_ENV`]) worse than its baseline fails, and so does
//! a pass whose result reads `correct: false`. `--bless` rewrites the
//! baseline from the current results.

use crate::json::Json;
use std::fmt::Write as _;

/// Environment variable holding a replacement regression tolerance
/// (a fraction: `0.25` allows 25% worse than baseline).
pub const TOLERANCE_ENV: &str = "MATC_PERF_TOLERANCE";
const DEFAULT_TOLERANCE: f64 = 0.25;
const BASELINE: &str = "PERF_BASELINE.json";
const REGISTRY: &str = "BENCHMARK.json";

/// The benchmark passes the gate reads, as `(workload, traced)`; the
/// `perf-bench` recipe in `justfile` runs them with seed 1. The traced
/// `run-paper` pass builds the programs' C, so it needs `cc`.
pub const PASSES: [(&str, bool); 4] = [
    ("compile-batch", false),
    ("compile-batch", true),
    ("serve-warm", false),
    ("run-paper", true),
];

/// The gated lines: an index into [`PASSES`] and the metrics whose sum
/// is gated. Dataflow and interference are gated as one sum because
/// the interference build alone reads in two clusters from run to run.
/// `vm.run_s` is the planned VM's host-scaled run time over the 11
/// programs at the Paper preset.
pub const GATES: [(usize, &[&str]); 10] = [
    (0, &["throughput"]),
    (2, &["throughput"]),
    (2, &["latency_p99_ms"]),
    (1, &["gctd.dataflow_ms"]),
    (1, &["gctd.dataflow_ms", "gctd.interference_ms"]),
    (1, &["gctd.coloring_ms"]),
    (1, &["analysis.audit_ms"]),
    (1, &["analysis.auditflow_ms"]),
    (1, &["gctd.dataflow_iters"]),
    (3, &["vm.run_s"]),
];

/// A line's name in the baseline and the report:
/// `<workload>[ traced] <metric>[+<metric>...]`.
fn gate_name((pass, metrics): (usize, &[&str])) -> String {
    let (workload, traced) = PASSES[pass];
    let traced = if traced { " traced" } else { "" };
    format!("{workload}{traced} {}", metrics.join("+"))
}

fn result_path(pass: usize) -> String {
    let (workload, traced) = PASSES[pass];
    let trace = u8::from(traced);
    format!("target/benchmark/result-{workload}-seed1-trace{trace}.json")
}

/// Each line's current value, in [`GATES`] order, from the result
/// documents of the [`PASSES`]; an error for a pass that reads
/// `correct: false` or lacks a gated metric.
fn gate_values(results: &[Json]) -> Result<Vec<f64>, String> {
    for (doc, (workload, traced)) in results.iter().zip(PASSES) {
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            let count = |k| doc.get(k).map_or("?".to_string(), Json::render);
            return Err(format!(
                "{workload} (traced: {traced}) is not correct: {} of {} operation(s) failed",
                count("failed"),
                count("attempted")
            ));
        }
    }
    let value = |pass: usize, m: &str| {
        results[pass]
            .get("metrics")
            .and_then(|ms| ms.get(m)?.get("value")?.as_f64())
            .ok_or_else(|| format!("{} reports no metric {m}", result_path(pass)))
    };
    GATES
        .iter()
        .map(|(pass, metrics)| metrics.iter().map(|m| value(*pass, m)).sum())
        .collect()
}

/// One line's comparison outcome.
#[derive(Debug)]
struct Line {
    name: String,
    higher_is_better: bool,
    baseline: f64,
    current: f64,
    regressed: bool,
}

/// Compares `current` (in [`GATES`] order) against the `baseline`
/// document in each line's direction per `registry` (the
/// `BENCHMARK.json` document; a sum takes its first metric's); an error
/// for a metric without a declared direction or a line the baseline
/// lacks.
fn compare(
    registry: &Json,
    baseline: &Json,
    current: &[f64],
    tolerance: f64,
) -> Result<Vec<Line>, String> {
    let higher = |m: &str| {
        ["end_to_end", "per_layer"]
            .iter()
            .filter_map(|k| registry.get(k)?.as_arr())
            .flatten()
            .find(|d| d.get("name").and_then(Json::as_str) == Some(m))
            .and_then(|d| Some(d.get("better")?.as_str()? == "higher"))
            .ok_or_else(|| format!("{REGISTRY} declares no direction for {m}"))
    };
    GATES
        .iter()
        .zip(current)
        .map(|(&gate, &current)| {
            let name = gate_name(gate);
            let higher_is_better = higher(gate.1[0])?;
            let baseline = baseline
                .get(&name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{BASELINE} has no \"{name}\"; re-bless"))?;
            let regressed = if higher_is_better {
                current < baseline * (1.0 - tolerance)
            } else {
                current > baseline * (1.0 + tolerance)
            };
            Ok(Line {
                name,
                higher_is_better,
                baseline,
                current,
                regressed,
            })
        })
        .collect()
}

/// Parses a [`TOLERANCE_ENV`] value; unset is the 25% default.
fn parse_tolerance(value: Option<&str>) -> Result<f64, String> {
    let Some(v) = value else {
        return Ok(DEFAULT_TOLERANCE);
    };
    v.parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| format!("bad {TOLERANCE_ENV} value {v:?} (want a fraction like 0.25)"))
}

/// The baseline document, one line per gate.
fn baseline_json(current: &[f64]) -> String {
    let lines: Vec<String> = GATES
        .iter()
        .zip(current)
        .map(|(g, v)| format!("  {}: {v}", Json::str(gate_name(*g)).render()))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Runs the gate from the repo root: reads the pass results, then
/// blesses or compares the baseline. Returns the report, or an error
/// naming the regressed lines (or the IO/parse failure).
pub fn run_gate(bless: bool) -> Result<String, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let results = (0..PASSES.len())
        .map(|p| read(&result_path(p)))
        .collect::<Result<Vec<_>, _>>()?;
    let current = gate_values(&results)?;
    let registry = read(REGISTRY)?;
    let tolerance = parse_tolerance(std::env::var(TOLERANCE_ENV).ok().as_deref())?;
    if bless || !std::path::Path::new(BASELINE).exists() {
        let doc = baseline_json(&current);
        compare(&registry, &Json::parse(&doc)?, &current, tolerance)?;
        std::fs::write(BASELINE, &doc).map_err(|e| format!("cannot write {BASELINE}: {e}"))?;
        return Ok(format!("perf-bench: baseline written to {BASELINE}\n{doc}"));
    }
    let lines = compare(&registry, &read(BASELINE)?, &current, tolerance)?;
    let mut table = format!(
        "{:58} {:>11} {:>11} {:>6}  gate ({:.0}%)\n",
        "metric",
        "baseline",
        "current",
        "ratio",
        tolerance * 100.0
    );
    let mut failed = Vec::new();
    for l in &lines {
        let better = ["lower", "higher"][usize::from(l.higher_is_better)];
        let verdict = if l.regressed { "FAIL" } else { "ok" };
        let ratio = l.current / l.baseline;
        let _ = writeln!(
            table,
            "{:58} {:>11.4} {:>11.4} {ratio:>5.2}x  {better} is better: {verdict}",
            l.name, l.baseline, l.current
        );
        if l.regressed {
            failed.push(l.name.as_str());
        }
    }
    if failed.is_empty() {
        return Ok(format!("perf-bench: PASS vs {BASELINE}\n{table}"));
    }
    let failed = failed.join(", ");
    Err(format!(
        "perf-bench: REGRESSION in {failed} vs {BASELINE}\n{table}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REGISTRY_DOC: &str = r#"{
      "end_to_end": [
        {"name": "throughput", "better": "higher"},
        {"name": "latency_p99_ms", "better": "lower"}
      ],
      "per_layer": [
        {"name": "gctd.dataflow_ms", "better": "lower"},
        {"name": "gctd.dataflow_iters", "better": "lower"},
        {"name": "gctd.interference_ms", "better": "lower"},
        {"name": "gctd.coloring_ms", "better": "lower"},
        {"name": "analysis.audit_ms", "better": "lower"},
        {"name": "analysis.auditflow_ms", "better": "lower"},
        {"name": "vm.run_s", "better": "lower"}
      ]
    }"#;

    const BASELINE_DOC: &str = r#"{
      "compile-batch throughput": 550,
      "serve-warm throughput": 38000,
      "serve-warm latency_p99_ms": 0.44,
      "compile-batch traced gctd.dataflow_ms": 4.2,
      "compile-batch traced gctd.dataflow_ms+gctd.interference_ms": 5.4,
      "compile-batch traced gctd.coloring_ms": 0.4,
      "compile-batch traced analysis.audit_ms": 9,
      "compile-batch traced analysis.auditflow_ms": 0.85,
      "compile-batch traced gctd.dataflow_iters": 3660,
      "run-paper traced vm.run_s": 0.016
    }"#;

    /// Result documents of the four passes, at the baseline's values.
    fn results() -> Vec<Json> {
        [
            r#"{"correct": true, "attempted": 1282, "failed": 0,
                "metrics": {"throughput": {"value": 550}, "latency_p99_ms": {"value": 27}}}"#,
            r#"{"correct": true, "attempted": 442, "failed": 0, "metrics": {
                "gctd.dataflow_ms": {"value": 4.2}, "gctd.interference_ms": {"value": 1.2},
                "gctd.coloring_ms": {"value": 0.4}, "analysis.audit_ms": {"value": 9},
                "analysis.auditflow_ms": {"value": 0.85}, "gctd.dataflow_iters": {"value": 3660}}}"#,
            r#"{"correct": true, "attempted": 81799, "failed": 0,
                "metrics": {"throughput": {"value": 38000}, "latency_p99_ms": {"value": 0.44}}}"#,
            r#"{"correct": true, "attempted": 66, "failed": 0,
                "metrics": {"vm.run_s": {"value": 0.016}}}"#,
        ]
        .iter()
        .map(|d| Json::parse(d).unwrap())
        .collect()
    }

    /// Sets `metric` of pass `pass` to `value`.
    fn set(results: &mut [Json], pass: usize, metric: &str, value: f64) {
        let Json::Obj(top) = &mut results[pass] else {
            unreachable!()
        };
        let (_, Json::Obj(metrics)) = top.iter_mut().find(|(k, _)| k == "metrics").unwrap() else {
            unreachable!()
        };
        let entry = metrics.iter_mut().find(|(k, _)| k == metric).unwrap();
        entry.1 = Json::obj([("value", Json::Num(value))]);
    }

    /// The names of the gates `results` regress at `tolerance`.
    fn regressed(results: &[Json], tolerance: f64) -> Vec<String> {
        let registry = Json::parse(REGISTRY_DOC).unwrap();
        let baseline = Json::parse(BASELINE_DOC).unwrap();
        let current = gate_values(results).unwrap();
        compare(&registry, &baseline, &current, tolerance)
            .unwrap()
            .into_iter()
            .filter(|l| l.regressed)
            .map(|l| l.name)
            .collect()
    }

    #[test]
    fn compare_gates_on_tolerance() {
        let mut r = results();
        assert!(regressed(&r, 0.25).is_empty());
        // 30% slower dataflow: out of a 25% gate, inside a 50% one.
        // The dataflow + interference sum moves with it but stays
        // inside its own gate (6.66 against 6.75).
        set(&mut r, 1, "gctd.dataflow_ms", 4.2 * 1.3);
        assert_eq!(
            regressed(&r, 0.25),
            vec!["compile-batch traced gctd.dataflow_ms"]
        );
        assert!(regressed(&r, 0.5).is_empty());
    }

    #[test]
    fn serve_throughput_gates_higher_is_better() {
        let mut r = results();
        // Faster serving (more throughput, lower latency) never fails.
        set(&mut r, 2, "throughput", 80_000.0);
        set(&mut r, 2, "latency_p99_ms", 0.2);
        assert!(regressed(&r, 0.25).is_empty());
        // A 50% throughput collapse is out of a 25% gate.
        set(&mut r, 2, "throughput", 19_000.0);
        assert_eq!(regressed(&r, 0.25), vec!["serve-warm throughput"]);
        // And a p99 blow-up trips the lower-is-better side.
        set(&mut r, 2, "throughput", 38_000.0);
        set(&mut r, 2, "latency_p99_ms", 1.0);
        assert_eq!(regressed(&r, 0.25), vec!["serve-warm latency_p99_ms"]);
    }

    #[test]
    fn audit_metrics_gate_both_directions() {
        let mut r = results();
        // A faster auditor never fails.
        set(&mut r, 1, "analysis.audit_ms", 2.0);
        set(&mut r, 1, "analysis.auditflow_ms", 0.1);
        assert!(regressed(&r, 0.25).is_empty());
        // A slow audit phase trips its gate ...
        set(&mut r, 1, "analysis.audit_ms", 20.0);
        assert_eq!(
            regressed(&r, 0.25),
            vec!["compile-batch traced analysis.audit_ms"]
        );
        // ... and a slow audit dataflow trips its own.
        set(&mut r, 1, "analysis.audit_ms", 9.0);
        set(&mut r, 1, "analysis.auditflow_ms", 2.0);
        assert_eq!(
            regressed(&r, 0.25),
            vec!["compile-batch traced analysis.auditflow_ms"]
        );
    }

    #[test]
    fn every_gate_fails_thirty_percent_worse() {
        let registry = Json::parse(REGISTRY_DOC).unwrap();
        let baseline = Json::parse(BASELINE_DOC).unwrap();
        let at_baseline = gate_values(&results()).unwrap();
        let lines = compare(&registry, &baseline, &at_baseline, 0.0).unwrap();
        for (i, line) in lines.iter().enumerate() {
            assert!(!line.regressed, "{line:?}");
            let mut current = at_baseline.clone();
            current[i] *= if line.higher_is_better { 0.7 } else { 1.3 };
            let failed: Vec<String> = compare(&registry, &baseline, &current, DEFAULT_TOLERANCE)
                .unwrap()
                .into_iter()
                .filter(|l| l.regressed)
                .map(|l| l.name)
                .collect();
            assert_eq!(failed, vec![line.name.clone()]);
        }
        // The planned VM's run time is one of the lines.
        assert!(
            lines.iter().any(|l| l.name == "run-paper traced vm.run_s"),
            "{lines:?}"
        );
        // The directions come from the registry: only the two
        // throughput lines gate higher-is-better.
        assert_eq!(
            lines.iter().filter(|l| l.higher_is_better).count(),
            2,
            "{lines:?}"
        );
    }

    #[test]
    fn missing_metric_is_an_error() {
        let mut r = results();
        let Json::Obj(top) = &mut r[1] else {
            unreachable!()
        };
        let (_, Json::Obj(metrics)) = top.iter_mut().find(|(k, _)| k == "metrics").unwrap() else {
            unreachable!()
        };
        metrics.retain(|(k, _)| k != "gctd.coloring_ms");
        let err = gate_values(&r).unwrap_err();
        assert!(err.contains("gctd.coloring_ms"), "{err}");
        // A gate the registry or the baseline does not know is one too.
        let current = gate_values(&results()).unwrap();
        let registry = Json::parse(r#"{"end_to_end": [], "per_layer": []}"#).unwrap();
        let baseline = Json::parse(BASELINE_DOC).unwrap();
        let err = compare(&registry, &baseline, &current, 0.25).unwrap_err();
        assert!(err.contains("throughput"), "{err}");
        let registry = Json::parse(REGISTRY_DOC).unwrap();
        let err = compare(&registry, &Json::parse("{}").unwrap(), &current, 0.25).unwrap_err();
        assert!(err.contains("re-bless"), "{err}");
    }

    #[test]
    fn incorrect_pass_fails() {
        let mut r = results();
        r[2] = Json::parse(
            r#"{"correct": false, "attempted": 100, "failed": 3,
                "metrics": {"throughput": {"value": 38000}, "latency_p99_ms": {"value": 0.44}}}"#,
        )
        .unwrap();
        let err = gate_values(&r).unwrap_err();
        assert!(
            err.contains("serve-warm") && err.contains("3 of 100"),
            "{err}"
        );
    }

    #[test]
    fn bad_tolerance_is_rejected() {
        assert_eq!(parse_tolerance(None), Ok(DEFAULT_TOLERANCE));
        assert_eq!(parse_tolerance(Some("1.0")), Ok(1.0));
        for bad in ["", "abc", "-0.1", "NaN", "inf"] {
            let err = parse_tolerance(Some(bad)).unwrap_err();
            assert!(err.contains(TOLERANCE_ENV), "{err}");
        }
    }

    #[test]
    fn baseline_round_trips_and_the_registry_declares_every_gate() {
        let current = gate_values(&results()).unwrap();
        let doc = Json::parse(&baseline_json(&current)).unwrap();
        let registry = Json::parse(REGISTRY_DOC).unwrap();
        let lines = compare(&registry, &doc, &current, 0.0).unwrap();
        assert!(lines
            .iter()
            .all(|l| !l.regressed && l.baseline == l.current));
        let real = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(REGISTRY),
        )
        .unwrap();
        let real = Json::parse(&real).unwrap();
        compare(&real, &doc, &current, 0.0).unwrap();
        // A summed line's metrics all gate in one direction.
        let better = |m: &str| {
            let per_layer = real.get("per_layer").and_then(Json::as_arr).unwrap();
            let def = per_layer
                .iter()
                .find(|d| d.get("name").and_then(Json::as_str) == Some(m));
            def.and_then(|d| d.get("better")?.as_str())
                .map(str::to_string)
        };
        for (_, metrics) in GATES.iter().filter(|(_, ms)| ms.len() > 1) {
            assert!(metrics.iter().all(|m| better(m) == better(metrics[0])));
        }
    }
}
