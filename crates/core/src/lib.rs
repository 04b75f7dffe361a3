//! # matc-gctd
//!
//! **GCTD — Graph Coloring with Type-based Decomposition**: the array
//! storage coalescing algorithm of *Static Array Storage Optimization in
//! MATLAB* (Joisha & Banerjee, PLDI 2003), this repository's primary
//! contribution.
//!
//! * **Phase 1** ([`interference`], [`coloring`]): a Chaitin-style
//!   interference graph over live∩available variables, augmented with
//!   *operator-semantics conflicts* resolved through inferred types
//!   (§2.3), φ-coalescing to neutralize SSA-inversion copies (§2.2.1),
//!   and a greedy minimal-ish coloring (§2.4).
//! * **Phase 2** ([`order`], [`plan`]): the storage-size partial order ⪯
//!   (Relation 1) built from intrinsic types, (symbolic) shape tuples and
//!   control flow; `Decompose-color-class` splits each color class into
//!   groups bound to one storage slot each — fixed stack buffers for
//!   statically estimable groups, resize-on-the-fly heap areas otherwise.
//!
//! The result is a [`plan::StoragePlan`] consumed by the planned VM
//! (`matc-vm`) and the C backend (`matc-codegen`).
//!
//! ## Example
//!
//! ```
//! use matc_frontend::parser::parse_program;
//! use matc_ir::build_ssa;
//! use matc_typeinf::infer_program;
//! use matc_gctd::{plan_program, GctdOptions};
//!
//! let ast = parse_program([
//!     "function driver()\na = kernel(64);\ndisp(a(1));\nend\n",
//!     "function c = kernel(n)\na = rand(n, n);\nb = a + 1;\nc = b .* b;\nend\n",
//! ]).unwrap();
//! let mut ir = build_ssa(&ast).unwrap();
//! matc_passes::optimize_program(&mut ir);
//! let mut types = infer_program(&ir);
//! let plan = plan_program(&ir, &mut types, GctdOptions::default());
//! let stats = plan.total_stats();
//! assert!(stats.static_subsumed > 0, "a, b, c share one 64x64 buffer");
//! ```

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod coloring;
pub mod fault;
pub mod interference;
pub mod isolate;
pub mod liveness;
pub mod metrics;
pub mod order;
pub mod plan;

pub use breaker::{BreakerConfig, BreakerDecision, BreakerMap, BreakerState};
pub use cache::{options_fingerprint, Artifact, ArtifactCache, CacheKey, CacheStats, Fragment};
pub use coloring::{Coloring, ColoringStrategy};
pub use fault::{fnv1a, splitmix64, FaultPlan, FaultSite, FAULTS_ENV};
pub use interference::{InterferenceGraph, InterferenceOptions};
pub use isolate::{isolate, lock_recover, par_map};
pub use liveness::Dataflow;
pub use metrics::{
    BatchReport, BudgetEvent, CacheOutcome, DegradationEvent, Phase, PhaseTimer, ShadowStats,
    UnitMetrics,
};
pub use order::{decompose_color_class, IndexGroup, SizeClass, Sizing};
pub use plan::{
    plan_function, plan_function_budgeted, plan_program, plan_program_with, GctdOptions, PlanStats,
    ProgramPlan, ResizeKind, SlotInfo, SlotKind, StoragePlan,
};

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::build_ssa;
    use matc_ir::ids::VarId;
    use matc_ir::{FuncIr, IrProgram};
    use matc_typeinf::{infer_program, ProgramTypes};

    fn pipeline(srcs: &[&str]) -> (IrProgram, ProgramTypes) {
        let ast = parse_program(srcs.iter().copied()).unwrap();
        let mut ir = build_ssa(&ast).unwrap();
        matc_passes::optimize_program(&mut ir);
        let types = infer_program(&ir);
        (ir, types)
    }

    fn var(f: &FuncIr, name: &str, version: u32) -> VarId {
        f.vars
            .iter()
            .find(|(_, i)| i.name.as_deref() == Some(name) && i.ssa_version == version)
            .map(|(v, _)| v)
            .unwrap_or_else(|| panic!("no {name}.{version} in\n{f}"))
    }

    #[test]
    fn example1_nonresized_symbolic_chain_shares_storage() {
        // Paper Example 1: t1 = t0 - 1.345; t2 = 2.788 .* t1; t3 = tan(t2)
        // with nothing known about t0 — all COMPLEX, same symbolic shape;
        // all bound to one heap slot with ∘ (no-resize) definitions.
        let (ir, mut types) = pipeline(&[
            "function t3 = f(t0)\nt1 = t0 - 1.345;\nt2 = 2.788 .* t1;\nt3 = tan(t2);\n",
        ]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(f, fid, &mut types, GctdOptions::default());

        let t0 = f.params[0];
        let t1 = var(f, "t1", 1);
        let t2 = var(f, "t2", 1);
        let t3 = var(f, "t3", 1);
        assert!(plan.share_storage(t0, t1), "{f}");
        assert!(plan.share_storage(t1, t2));
        assert!(plan.share_storage(t2, t3));
        let slot = plan.slot_of(t0).unwrap();
        assert_eq!(plan.slots[slot].kind, SlotKind::Heap);
        // Subsequent definitions need no resizing (identical sizes).
        assert_eq!(plan.resize_of(t1), ResizeKind::NoResize, "{plan:?}");
        assert_eq!(plan.resize_of(t2), ResizeKind::NoResize);
        assert_eq!(plan.resize_of(t3), ResizeKind::NoResize);
    }

    #[test]
    fn example2_expandable_array_grows_in_place() {
        // Paper Example 2: a = eye(x, y); b = subsasgn(a, 1, i1, i2).
        // a and b don't interfere and S(a) ⪯ S(b); b grows in a's slot.
        let (ir, mut types) =
            pipeline(&["function b = f(x, y, i1, i2)\na = eye(x, y);\nb = a;\nb(i1, i2) = 1;\n"]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(f, fid, &mut types, GctdOptions::default());
        // After copy propagation the subsasgn's array operand is a.1 and
        // its destination the SSA version of b.
        let a = var(f, "a", 1);
        let b = f.ssa_outs[0];
        assert!(plan.share_storage(a, b), "{f}\n{plan:?}");
        assert_eq!(plan.resize_of(b), ResizeKind::Grow, "`+` annotation");
    }

    #[test]
    fn example2_static_variant_stack_allocates_maximal() {
        // With known extents both are stack allocated in one maximal
        // buffer (here equal sizes).
        let (ir, mut types) =
            pipeline(&["function b = f()\na = eye(4, 4);\nb = a;\nb(2, 3) = 1;\ndisp(b);\n"]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(f, fid, &mut types, GctdOptions::default());
        let a = var(f, "a", 1);
        let slot = plan.slot_of(a).expect("a planned");
        match plan.slots[slot].kind {
            SlotKind::Stack { bytes } => assert_eq!(bytes, 16, "4x4 BOOLEAN"),
            k => panic!("expected stack slot, got {k:?}"),
        }
    }

    #[test]
    fn mixed_estimability_blocks_sharing() {
        // §3.2/Example 2 end: if only one of two non-interfering arrays
        // is statically estimable, they don't share.
        let (ir, mut types) = pipeline(&[
            "function f(n)\na = rand(4, 4);\ns = sum(sum(a));\nb = rand(n, n);\nt = sum(sum(b));\nfprintf('%g %g\\n', s, t);\n",
        ]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(f, fid, &mut types, GctdOptions::default());
        let a = var(f, "a", 1);
        let b = var(f, "b", 1);
        assert!(
            !plan.share_storage(a, b),
            "static a and dynamic b may not share\n{f}"
        );
    }

    #[test]
    fn equal_static_sizes_share_stack_slot() {
        let (ir, mut types) = pipeline(&[
            "function f()\na = rand(8, 8);\nfprintf('%g\\n', sum(sum(a)));\nb = rand(8, 8);\nfprintf('%g\\n', sum(sum(b)));\n",
        ]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(f, fid, &mut types, GctdOptions::default());
        let a = var(f, "a", 1);
        let b = var(f, "b", 1);
        assert!(plan.share_storage(a, b), "{f}");
        assert!(plan.stats.static_subsumed >= 1);
        assert!(plan.stats.stack_bytes_saved >= 8 * 8 * 8);
    }

    #[test]
    fn without_coalescing_every_var_is_alone() {
        let (ir, mut types) =
            pipeline(&["function f()\na = rand(8, 8);\nb = a + 1;\nc = b + 1;\ndisp(c(1));\n"]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(
            f,
            fid,
            &mut types,
            GctdOptions {
                coalesce: false,
                ..GctdOptions::default()
            },
        );
        for slot in &plan.slots {
            assert_eq!(slot.members.len(), 1);
        }
        assert_eq!(plan.stats.static_subsumed, 0);
        assert_eq!(plan.stats.stack_bytes_saved, 0);
    }

    #[test]
    fn loop_accumulator_lives_in_one_slot() {
        let (ir, mut types) =
            pipeline(&["function s = f(n)\ns = 0;\nfor i = 1:n\ns = s + i;\nend\n"]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(f, fid, &mut types, GctdOptions::default());
        // All non-literal SSA versions of s in the same slot
        // (φ-coalescing; `s = 0` itself is an immediate).
        let versions: Vec<VarId> = f
            .vars
            .iter()
            .filter(|(_, i)| i.name.as_deref() == Some("s") && i.ssa_version > 0)
            .map(|(v, _)| v)
            .filter(|v| plan.slot_of(*v).is_some())
            .collect();
        assert!(versions.len() >= 2);
        let s0 = plan.slot_of(versions[0]).unwrap();
        for v in versions {
            assert_eq!(plan.slot_of(v), Some(s0), "{f}");
        }
    }

    #[test]
    fn growing_loop_array_uses_grow_annotation() {
        let (ir, mut types) =
            pipeline(&["function a = f(n)\na = zeros(1, 1);\nfor i = 1:n\na(i) = i;\nend\n"]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(f, fid, &mut types, GctdOptions::default());
        // Find the subsasgn destination; it must grow in place.
        let mut found = false;
        for b in f.block_ids() {
            for instr in &f.block(b).instrs {
                if let matc_ir::InstrKind::Compute {
                    dst,
                    op: matc_ir::Op::Subsasgn,
                    args,
                } = &instr.kind
                {
                    if let Some(matc_ir::Operand::Var(src)) = args.first() {
                        if plan.share_storage(*dst, *src) {
                            assert_eq!(plan.resize_of(*dst), ResizeKind::Grow);
                            found = true;
                        }
                    }
                }
            }
        }
        assert!(found, "in-place growing subsasgn expected:\n{f}");
    }

    #[test]
    fn program_plan_covers_all_functions() {
        let (ir, mut types) = pipeline(&[
            "function driver()\nx = kernel(8);\ndisp(x(1));\nend\nfunction a = kernel(n)\na = rand(n, n);\nend\n",
        ]);
        let plan = plan_program(&ir, &mut types, GctdOptions::default());
        assert_eq!(plan.plans.len(), ir.functions.len());
        let t = plan.total_stats();
        assert!(t.original_vars > 0);
    }

    #[test]
    fn different_intrinsics_do_not_group() {
        // A complex array and a real array of identical static size must
        // not share a slot (Relation 1 requires identical intrinsics).
        let (ir, mut types) = pipeline(&[
            "function f()\na = sqrt(zeros(4, 4) - 1);\ns = sum(sum(abs(a)));\nb = rand(4, 4);\nt = sum(sum(b));\nfprintf('%g %g\\n', s, t);\n",
        ]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let plan = plan_function(f, fid, &mut types, GctdOptions::default());
        let a = var(f, "a", 1);
        let b = var(f, "b", 1);
        assert!(!plan.share_storage(a, b), "COMPLEX vs REAL\n{f}");
    }

    #[test]
    fn symbolic_criterion_ablation_splits_heap_groups() {
        let (ir, mut types) =
            pipeline(&["function t3 = f(t0)\nt1 = t0 - 1.0;\nt2 = t1 .* 2.0;\nt3 = tan(t2);\n"]);
        let fid = ir.entry.unwrap();
        let f = ir.entry_func();
        let with = plan_function(f, fid, &mut types, GctdOptions::default());
        let without = plan_function(
            f,
            fid,
            &mut types,
            GctdOptions {
                symbolic_criterion: false,
                ..GctdOptions::default()
            },
        );
        assert!(
            without.stats.slots >= with.stats.slots,
            "disabling the symbolic criterion cannot reduce slot count"
        );
        assert!(without.stats.dynamic_subsumed <= with.stats.dynamic_subsumed);
    }
}
