//! The `matc shadow` orchestrator: run a unit through **both**
//! executors — the reference interpreter and the GCTD-planned VM with
//! probes on — then diff the observed storage behaviour against the
//! static plan.
//!
//! Per unit this drives the closed loop ROADMAP item 6 asks for:
//!
//! 1. `compile_traced` keeps the optimized SSA snapshot the planner
//!    (and auditor) reasoned about, alongside the executable IR;
//! 2. the planned VM runs under [`ShadowLog`](matc_analysis::ShadowLog)
//!    observation, recording every slot definition, read and heap
//!    event;
//! 3. [`matc_analysis::shadow::replay`] classifies plan-vs-reality
//!    diffs (S101–S105), and the orchestrator adds S100 when the two
//!    executors' outputs diverge;
//! 4. counters aggregate into [`ShadowStats`] — the `shadow{}` object
//!    of the schema-v9 stats document ([`crate::stats::shadow_document`]).
//!
//! The corruption tests drive [`shadow_compiled`] directly with
//! deliberately mutated plans to prove each S-code fires.

use matc_analysis::shadow::{replay, ShadowReport};
use matc_analysis::Diagnostics;
use matc_frontend::ast::Program;
use matc_frontend::parse_program;
use matc_gctd::{GctdOptions, ShadowStats};
use matc_ir::IrProgram;
use matc_vm::compile::{compile_traced, Compiled};
use matc_vm::{Interp, PlannedVm};
use std::fmt::Write as _;

/// The shadow outcome of one unit.
#[derive(Debug)]
pub struct ShadowUnit {
    /// Display name.
    pub name: String,
    /// Fatal failure (parse, compile or run error), if any.
    pub error: Option<String>,
    /// S-code findings: S100 (output divergence) plus the replay's
    /// S101–S105, in emission order.
    pub diags: Diagnostics,
    /// The replay's report, when the unit ran.
    pub report: Option<ShadowReport>,
    /// Whether the planned output diverged from the interpreter (S100).
    pub output_diverged: bool,
}

impl ShadowUnit {
    fn failed(name: &str, error: String) -> ShadowUnit {
        ShadowUnit {
            name: name.to_string(),
            error: Some(error),
            diags: Diagnostics::new(),
            report: None,
            output_diverged: false,
        }
    }

    /// Whether the unit is clean enough to pass (warnings allowed).
    pub fn ok(&self) -> bool {
        self.error.is_none() && !self.diags.has_errors()
    }

    /// The unit's text block of the diff report (also the golden
    /// snapshot format of `tests/golden_shadow.rs`).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {} ==", self.name);
        if let Some(e) = &self.error {
            let _ = writeln!(s, "error: {e}");
            return s;
        }
        let r = self.report.as_ref().expect("ran units carry a report");
        let _ = writeln!(
            s,
            "frames={} defs={} reads={} heap-events={} violations={}",
            r.frames, r.defs, r.reads, r.heap_events, r.plan_violations
        );
        let _ = writeln!(
            s,
            "S100={} S101={} S102={} S103={} S104={} S105={}",
            u32::from(self.output_diverged),
            r.counts.s101,
            r.counts.s102,
            r.counts.s103,
            r.counts.s104,
            r.counts.s105
        );
        let _ = writeln!(
            s,
            "eq2: observed={:.3} recorded={:.3}",
            r.avg_heap_observed, r.avg_heap_recorded
        );
        s.push_str(&self.diags.render());
        s
    }

    /// Folds the unit's counters into an aggregate [`ShadowStats`].
    pub fn accumulate(&self, stats: &mut ShadowStats) {
        stats.units += 1;
        stats.s100 += usize::from(self.output_diverged);
        if let Some(r) = &self.report {
            stats.frames += r.frames;
            stats.defs += r.defs;
            stats.reads += r.reads;
            stats.heap_events += r.heap_events;
            stats.plan_violations += r.plan_violations;
            stats.s101 += r.counts.s101;
            stats.s102 += r.counts.s102;
            stats.s103 += r.counts.s103;
            stats.s104 += r.counts.s104;
            stats.s105 += r.counts.s105;
        }
    }
}

/// Runs an already-compiled unit through both executors and replays
/// the probe log against `compiled.plans`. `ssa` must be the snapshot
/// [`compile_traced`] returned for the *same* plan — the corruption
/// tests mutate `compiled.plans` between the two calls on purpose.
pub fn shadow_compiled(
    name: &str,
    ast: &Program,
    compiled: &Compiled,
    ssa: &IrProgram,
    seed: Option<u64>,
) -> ShadowUnit {
    let mut interp = Interp::new(ast);
    if let Some(s) = seed {
        interp = interp.with_seed(s);
    }
    let want = match interp.run() {
        Ok(o) => o,
        Err(e) => return ShadowUnit::failed(name, format!("interpreter error: {e}")),
    };

    let mut vm = PlannedVm::new(compiled);
    if let Some(s) = seed {
        vm = vm.with_seed(s);
    }
    let mut vm = vm.with_shadow();
    let got = match vm.run() {
        Ok(o) => o,
        Err(e) => return ShadowUnit::failed(name, format!("planned vm error: {e}")),
    };
    let log = vm.take_shadow().expect("shadow mode records a log");

    let mut diags = Diagnostics::new();
    let output_diverged = got != want;
    if output_diverged {
        diags.error(
            "S100",
            ssa.entry_func().name.clone(),
            format!(
                "planned output diverges from the reference interpreter \
                 ({} vs {} bytes)",
                got.len(),
                want.len()
            ),
            None,
        );
    }

    let report = replay(
        ssa,
        &compiled.plans,
        &log,
        vm.plan_violations,
        vm.mem.avg_heap(),
        vm.mem.elapsed(),
    );
    diags.merge(report.diags.clone());

    ShadowUnit {
        name: name.to_string(),
        error: None,
        diags,
        report: Some(report),
        output_diverged,
    }
}

/// Parses, compiles and shadow-runs one unit from source texts.
pub fn shadow_unit(
    name: &str,
    sources: &[String],
    options: GctdOptions,
    seed: Option<u64>,
) -> ShadowUnit {
    let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
    let ast = match parse_program(refs) {
        Ok(a) => a,
        Err(e) => {
            return ShadowUnit::failed(name, format!("parse error: {}", e.render(&sources[0])))
        }
    };
    let (compiled, ssa) = match compile_traced(&ast, options) {
        Ok(t) => t,
        Err(e) => return ShadowUnit::failed(name, format!("compile error: {e}")),
    };
    shadow_compiled(name, &ast, &compiled, &ssa, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_unit_reports_zero_soundness_diffs() {
        let src = "function f()\na = rand(6, 6);\nb = a + 1;\nfprintf('%.8f\\n', sum(sum(b)));\n";
        let u = shadow_unit("unit", &[src.to_string()], GctdOptions::default(), None);
        assert!(u.ok(), "{:?}\n{}", u.error, u.diags.render());
        let r = u.report.as_ref().unwrap();
        assert_eq!(r.counts.s101, 0);
        assert_eq!(r.counts.s102, 0);
        assert_eq!(r.counts.s104, 0);
        assert_eq!(r.counts.s105, 0);
        assert!(!u.output_diverged);
        assert!(u.render().starts_with("== unit ==\n"), "{}", u.render());
    }

    #[test]
    fn stats_document_carries_schema_v9_prefix() {
        let mut stats = ShadowStats::default();
        let u = shadow_unit(
            "unit",
            &["function f()\nfprintf('%d\\n', 1 + 1);\n".to_string()],
            GctdOptions::default(),
            None,
        );
        u.accumulate(&mut stats);
        let doc = crate::stats::shadow_document(&stats);
        assert!(
            doc.starts_with("{\"schema\":9,\"kind\":\"shadow\",\"shadow\":{\"units\":1,"),
            "{doc}"
        );
        assert!(doc.contains("\"s101\":0"), "{doc}");
    }

    #[test]
    fn parse_failure_is_reported_not_panicked() {
        let u = shadow_unit(
            "broken",
            &["function f()\n???\n".to_string()],
            GctdOptions::default(),
            None,
        );
        assert!(!u.ok());
        assert!(u.error.is_some());
        assert!(u.render().contains("error:"), "{}", u.render());
    }
}
