//! The four workloads and what they share.

pub mod compile_batch;
pub mod run_paper;
pub mod serve;

use crate::registry::registry;
use crate::replay::Counts;
use crate::result::RunResult;
use matc::gctd::splitmix64;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Seed every input choice derives from.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Runs one workload by name.
///
/// # Errors
///
/// Returns set-up failures and unknown names.
pub fn run(name: &str, args: &Args) -> Result<RunResult, String> {
    match name {
        "compile-batch" => compile_batch::run(args),
        "serve-warm" => serve::run_warm(args),
        "serve-edit" => serve::run_edit(args),
        "run-paper" => run_paper::run(args),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            registry().workloads.join(", ")
        )),
    }
}

/// The next value of a seeded SplitMix64 stream.
pub fn next_random(state: &mut u64) -> u64 {
    *state = state.wrapping_add(1);
    splitmix64(*state)
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
pub fn seeded_order(n: usize, state: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next_random(state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Span names of the layer replay that become `<name>_ms` metrics.
pub const REPLAY_SPANS: [&str; 18] = [
    "frontend.parse",
    "ir.ssa_build",
    "ir.ssa_invert",
    "passes.fold_constants",
    "passes.fold_branches",
    "passes.cse",
    "passes.copy_prop",
    "passes.dce",
    "typeinf.infer",
    "gctd.plan",
    "gctd.dataflow",
    "gctd.interference",
    "gctd.coloring",
    "analysis.audit",
    "analysis.auditflow",
    "analysis.lint",
    "codegen.emit",
    "cache.frag_key",
];

/// Starts a traced result with every per-layer metric at zero: a layer
/// a workload never enters reports 0, which the docs read as "idle".
pub fn zero_all_layers(result: &mut RunResult) {
    for m in &registry().per_layer {
        result.set(m.name.clone(), 0.0);
    }
}

/// Sets the replay's count metrics.
pub fn set_counts(result: &mut RunResult, c: &Counts) {
    result.set("frontend.ast_nodes", c.ast_nodes as f64);
    result.set("ir.instrs", c.instrs as f64);
    result.set("passes.rewrites", c.rewrites as f64);
    result.set("gctd.dataflow_iters", c.dataflow_iters as f64);
    result.set("gctd.interference_edges", c.interference_edges as f64);
    result.set("gctd.slots", c.slots as f64);
    result.set("codegen.c_bytes", c.c_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_workload_has_a_runner() {
        let args = Args {
            seed: 1,
            seconds: 1.0,
            trace: false,
        };
        assert!(run("no-such-workload", &args)
            .unwrap_err()
            .contains("unknown workload"));
        assert_eq!(
            registry().workloads,
            ["compile-batch", "serve-warm", "serve-edit", "run-paper"]
        );
    }

    #[test]
    fn seeded_order_is_a_reproducible_permutation() {
        let (mut a, mut b) = (7u64, 7u64);
        let x = seeded_order(13, &mut a);
        assert_eq!(x, seeded_order(13, &mut b));
        let mut sorted = x.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..13).collect::<Vec<_>>());
        let mut c = 8u64;
        assert_ne!(x, seeded_order(13, &mut c));
    }

    #[test]
    fn replay_spans_name_registered_metrics() {
        for name in REPLAY_SPANS {
            let metric = format!("{name}_ms");
            assert!(
                registry().find(&metric).is_some(),
                "{metric} is not in BENCHMARK.json"
            );
        }
    }
}
