//! The `mat2c`-style compile entry points, producing executable IR plus
//! audited GCTD storage plans. Both run the one pipeline of
//! [`crate::resilient`] with no budget and no injected faults.

use crate::resilient::{
    assemble_compiled, compile_front, compile_resilient, plan_functions, ResilientError,
};
use matc_frontend::ast::Program;
use matc_gctd::{FaultPlan, GctdOptions, ProgramPlan, UnitMetrics};
use matc_ir::ids::FuncId;
use matc_ir::lower::LowerError;
use matc_ir::{build_ssa, ssa_destruct, Budget, IrProgram};
use matc_passes::OptStats;
use matc_typeinf::ProgramTypes;

/// A compiled program: out-of-SSA IR whose φs were replaced by copies
/// filtered through the storage plan (coalesced copies vanish, §2.2.1).
#[derive(Debug)]
pub struct Compiled {
    /// The executable IR (SSA-inverted).
    pub ir: IrProgram,
    /// Per-function storage plans.
    pub plans: ProgramPlan,
    /// Inference results (kept for the C backend).
    pub types: ProgramTypes,
    /// Optimization statistics.
    pub opt_stats: OptStats,
}

/// Runs the mat2c pipeline: lower → SSA → classic passes → type
/// inference → GCTD → SSA inversion.
///
/// This is [`compile_resilient`] with no budget and no injected faults,
/// so every plan is audited before SSA inversion bakes it into the IR.
///
/// # Errors
///
/// Returns lowering errors (undefined names, unsupported constructs).
///
/// # Panics
///
/// Panics, in every build, when a plan failed its audit or the planner
/// panicked: with no budget and no faults, those are the only ways the
/// degradation ladder can fire, and both are planner bugs.
pub fn compile(ast: &Program, options: GctdOptions) -> Result<Compiled, LowerError> {
    let mut rec = UnitMetrics::new("compile");
    let compiled = compile_resilient(
        ast,
        options,
        &Budget::unlimited(),
        FaultPlan::quiet(0),
        &mut rec,
    );
    Ok(expect_clean(compiled, &rec)?.0)
}

/// [`compile`] that also returns the optimized SSA program exactly as
/// the storage planner saw it — the form *before* SSA inversion bakes
/// the sharing decisions into the IR. The shadow replay (`matc shadow`)
/// needs this snapshot: its liveness cross-check (S104) must use the
/// same CFG and SSA names the auditor's facts were computed over, while
/// the returned [`Compiled`] still carries the executable, inverted IR.
///
/// # Errors
///
/// Returns lowering errors (undefined names, unsupported constructs).
///
/// # Panics
///
/// Panics where [`compile`] does.
pub fn compile_traced(
    ast: &Program,
    options: GctdOptions,
) -> Result<(Compiled, IrProgram), LowerError> {
    let (budget, faults) = (Budget::unlimited(), FaultPlan::quiet(0));
    let mut rec = UnitMetrics::new("compile");
    let traced =
        compile_front(ast, options, &budget, &faults, &mut rec, None).and_then(|mut front| {
            let (plans, audit) = plan_functions(&mut front, &budget, &faults, &mut rec)?;
            let ssa = front.ir.clone();
            let (compiled, _) = assemble_compiled(ast, front, plans, audit, &mut rec);
            Ok((compiled, ssa))
        });
    expect_clean(traced, &rec)
}

/// Unwraps a ladder run that had no budget and no faults: lowering
/// errors pass through, anything else the ladder did is a planner bug.
fn expect_clean<T>(result: Result<T, ResilientError>, rec: &UnitMetrics) -> Result<T, LowerError> {
    let value = match result {
        Ok(v) => v,
        Err(ResilientError::Lower(e)) => return Err(e),
        Err(e) => panic!("storage planning failed: {e}"),
    };
    if let Some(d) = rec.degradations.first() {
        panic!(
            "storage plan for `{}` rejected ({}): {}",
            d.func, d.stage, d.reason
        );
    }
    Ok(value)
}

/// Lowers without optimization or planning — the execution substrate for
/// the mcc-model VM, which performs *run-time* type dispatch over the
/// unoptimized program (mcc does its own library-level optimization, not
/// static array analysis).
///
/// # Errors
///
/// Returns lowering errors.
pub fn lower_for_mcc(ast: &Program) -> Result<IrProgram, LowerError> {
    let mut ir = build_ssa(ast)?;
    for f in ir.functions.iter_mut() {
        ssa_destruct(f, |_, _| false);
    }
    Ok(ir)
}

impl Compiled {
    /// The entry function id.
    ///
    /// # Panics
    ///
    /// Panics if the program has no entry.
    pub fn entry(&self) -> FuncId {
        self.ir.entry.expect("compiled program has an entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;

    #[test]
    fn pipeline_produces_phi_free_ir() {
        let ast = parse_program([
            "function f()\ns = 0;\nfor i = 1:10\ns = s + i;\nend\nfprintf('%d\\n', s);\n",
        ])
        .unwrap();
        let c = compile(&ast, GctdOptions::default()).unwrap();
        for f in &c.ir.functions {
            assert!(!f.in_ssa);
            for b in f.block_ids() {
                assert_eq!(f.block(b).phis().count(), 0);
            }
        }
    }

    #[test]
    fn coalesced_phi_copies_vanish() {
        let ast = parse_program([
            "function f()\ns = 1;\nfor i = 1:10\ns = s + i;\nend\nfprintf('%d\\n', s);\n",
        ])
        .unwrap();
        let with_plan = compile(&ast, GctdOptions::default()).unwrap();
        let without = lower_for_mcc(&ast).unwrap();
        let count_copies = |ir: &IrProgram| -> usize {
            ir.functions
                .iter()
                .flat_map(|f| f.blocks.iter())
                .flat_map(|b| b.instrs.iter())
                .filter(|i| matches!(i.kind, matc_ir::InstrKind::Copy { .. }))
                .count()
        };
        assert!(
            count_copies(&with_plan.ir) < count_copies(&without),
            "φ-coalescing must remove inversion copies: {} vs {}",
            count_copies(&with_plan.ir),
            count_copies(&without)
        );
    }

    #[test]
    #[should_panic(expected = "storage plan for `f` rejected (audit)")]
    fn a_rejected_plan_panics_in_every_build() {
        // No planner bug is at hand, so reject the plan by injection;
        // `compile` sees exactly this ladder outcome on a real one.
        let ast = parse_program(["function f()\na = rand(3, 3);\ndisp(a * a);\n"]).unwrap();
        let mut rec = UnitMetrics::new("t");
        let faults = FaultPlan::quiet(5).audit_violations(100);
        let compiled = compile_resilient(
            &ast,
            GctdOptions::default(),
            &Budget::unlimited(),
            faults,
            &mut rec,
        );
        let _ = expect_clean(compiled, &rec);
    }
}
