//! The metric registry: `BENCHMARK.json` at the repository root is the
//! single source of truth for workload names, metric names, units,
//! directions and bounds. It is compiled into the binary, so the
//! benchmark cannot drift from the file the results are judged by.

use matc::json::Json;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Share of the parent's median a change may worsen the metric by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Everything the benchmark reads from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Registry {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported by untraced runs.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics, reported by traced runs.
    pub per_layer: Vec<MetricDef>,
    /// Default measuring time of one run, seconds.
    pub run_seconds: u64,
}

impl Registry {
    /// The metric list a run reports: per-layer when traced.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn parse_metrics(doc: &Json, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}` array"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` entry without `{k}`"))
                    .to_string()
            };
            MetricDef {
                name: s("name"),
                unit: s("unit"),
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// Parses the embedded `BENCHMARK.json`.
///
/// # Panics
///
/// Panics if the file is malformed — it is compiled in, so that is a
/// build defect, not an input error.
pub fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json: `workloads` array")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("BENCHMARK.json: workload without `name`")
                    .to_string()
            })
            .collect();
        Registry {
            workloads,
            end_to_end: parse_metrics(&doc, "end_to_end"),
            per_layer: parse_metrics(&doc, "per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json: `run_seconds`"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_fits_the_benchmark_contract() {
        let r = registry();
        assert_eq!(r.workloads.len(), 4);
        assert!((1..=16).contains(&r.end_to_end.len()));
        assert!((1..=128).contains(&r.per_layer.len()));
        let setup = r.find("setup_s").expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        let largest = r
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        for m in &r.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let mut names: Vec<&str> = r
            .end_to_end
            .iter()
            .chain(&r.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all, "metric names are unique");
    }
}
