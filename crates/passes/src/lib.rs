//! # matc-passes
//!
//! Classic SSA optimization passes run before the GCTD storage pass:
//! copy propagation and dead-code elimination (the paper's §2.2 strategy
//! for freeing the CFG of copies), constant folding/propagation with
//! branch folding, and dominator-scoped common-subexpression elimination.
//!
//! [`optimize_program`] runs the standard pipeline to a fixpoint.
//!
//! ```
//! use matc_frontend::parser::parse_program;
//! use matc_ir::build_ssa;
//! use matc_passes::optimize_program;
//!
//! let ast = parse_program(["function y = f(x)\nt = x;\ny = t + 2 * 3;\n"]).unwrap();
//! let mut ir = build_ssa(&ast).unwrap();
//! let stats = optimize_program(&mut ir);
//! assert!(stats.copies_propagated + stats.constants_folded > 0);
//! ```

#![warn(missing_docs)]

pub mod const_fold;
pub mod copy_prop;
pub mod cse;
pub mod dce;

pub use const_fold::{fold_branches, fold_constants};
pub use copy_prop::copy_propagate;
pub use cse::eliminate_common_subexpressions;
pub use dce::eliminate_dead_code;

use matc_ir::{Budget, BudgetError, FuncIr, IrProgram};

/// Aggregate statistics from one [`optimize_program`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Uses rewritten by copy propagation.
    pub copies_propagated: usize,
    /// Instructions folded to constants.
    pub constants_folded: usize,
    /// Constant branches turned into jumps.
    pub branches_folded: usize,
    /// Computations replaced by CSE.
    pub cse_replaced: usize,
    /// Instructions removed by DCE.
    pub dead_removed: usize,
}

impl std::ops::AddAssign for OptStats {
    fn add_assign(&mut self, other: OptStats) {
        let OptStats {
            copies_propagated,
            constants_folded,
            branches_folded,
            cse_replaced,
            dead_removed,
        } = other;
        self.copies_propagated += copies_propagated;
        self.constants_folded += constants_folded;
        self.branches_folded += branches_folded;
        self.cse_replaced += cse_replaced;
        self.dead_removed += dead_removed;
    }
}

impl OptStats {
    /// Total rewrites across all passes (the batch driver's single-number
    /// optimization metric).
    pub fn total(&self) -> usize {
        self.copies_propagated
            + self.constants_folded
            + self.branches_folded
            + self.cse_replaced
            + self.dead_removed
    }
}

/// Runs the full pass pipeline over every function until a fixpoint
/// (bounded at a handful of rounds — ample for these passes).
///
/// Debug builds re-verify SSA invariants after every individual pass
/// application, so a pass that corrupts the IR is caught immediately and
/// named, rather than surfacing later as a planner or auditor failure.
pub fn optimize_program(prog: &mut IrProgram) -> OptStats {
    let budget = Budget::unlimited();
    let mut stats = OptStats::default();
    for f in &mut prog.functions {
        stats += optimize_function_budgeted(f, &budget).expect("unlimited budget cannot trip");
    }
    stats
}

/// One function's share of [`optimize_program`], under a [`Budget`]:
/// each optimization round charges fuel proportional to the function's
/// current instruction count, and the phase wall-clock deadline (which
/// the caller arms under the phase name `"optimize"`) is observed
/// between rounds. A function's optimized IR and statistics depend on
/// that function alone.
///
/// # Errors
///
/// Returns the [`BudgetError`] that tripped. The function may have been
/// partially rewritten when this happens, but every individual pass ran
/// to completion, so the IR is always left in a valid (merely
/// less-optimized) state; callers nevertheless restart from a fresh
/// lowering on the conservative path to keep artifacts deterministic.
pub fn optimize_function_budgeted(
    f: &mut FuncIr,
    budget: &Budget,
) -> Result<OptStats, BudgetError> {
    let mut stats = OptStats::default();
    for _ in 0..4 {
        let cost: usize = f.blocks.iter().map(|b| b.instrs.len()).sum();
        budget.spend(cost as u64 + 1)?;
        let mut round = 0;
        round += add(&mut stats.constants_folded, fold_constants(f));
        verify_after(f, "fold_constants");
        round += add(&mut stats.branches_folded, fold_branches(f));
        verify_after(f, "fold_branches");
        round += add(&mut stats.cse_replaced, eliminate_common_subexpressions(f));
        verify_after(f, "eliminate_common_subexpressions");
        round += add(&mut stats.copies_propagated, copy_propagate(f));
        verify_after(f, "copy_propagate");
        round += add(&mut stats.dead_removed, eliminate_dead_code(f));
        verify_after(f, "eliminate_dead_code");
        if round == 0 {
            break;
        }
    }
    Ok(stats)
}

fn add(slot: &mut usize, n: usize) -> usize {
    *slot += n;
    n
}

/// Debug-only invariant check, attributing any breakage to `pass`.
#[inline]
fn verify_after(f: &FuncIr, pass: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = matc_ir::verify_func(f) {
            panic!("pass `{pass}` broke `{}`: {e}\n{f}", f.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::build_ssa;

    #[test]
    fn pipeline_reaches_fixpoint_and_stays_valid() {
        let ast = parse_program([
            "function y = driver()\ny = kern(100);\nend\nfunction s = kern(n)\ns = 0;\nfor i = 1:n\nt = i * 2;\nu = i * 2;\ns = s + t + u;\nend\nend\n",
        ])
        .unwrap();
        let mut ir = build_ssa(&ast).unwrap();
        let stats = optimize_program(&mut ir);
        matc_ir::verify_program(&ir).unwrap();
        assert!(stats.cse_replaced >= 1, "{stats:?}");
        assert!(stats.dead_removed >= 1, "{stats:?}");
    }

    #[test]
    fn paper_copy_example_is_preserved() {
        // §2.2: copy propagating s1 from `t2 = s1` into the φ would
        // change meaning; the pipeline must keep the program's semantics
        // by construction (SSA renames separate the lifetimes). We just
        // check validity after optimization of a loop with cross copies.
        let ast = parse_program([
            "function [s, t] = f(n)\ns = 1;\nt = 2;\nfor i = 1:n\nw = t;\nt = s;\ns = w + 1;\nend\n",
        ])
        .unwrap();
        let mut ir = build_ssa(&ast).unwrap();
        optimize_program(&mut ir);
        matc_ir::verify_program(&ir).unwrap();
    }

    #[test]
    fn whole_branch_elimination() {
        let ast = parse_program([
            "function y = f()\nflag = 1;\nif flag > 0\ny = 10;\nelse\ny = 20;\nend\n",
        ])
        .unwrap();
        let mut ir = build_ssa(&ast).unwrap();
        let stats = optimize_program(&mut ir);
        assert!(stats.branches_folded >= 1);
        // The surviving code computes 10.
        let txt = ir.entry_func().to_string();
        assert!(txt.contains("<- 10"), "{txt}");
    }
}
