//! The plan auditor against real plans and deliberately corrupted ones.
//!
//! Production plans — for every benchsuite program, under every
//! ablation — must audit clean. Each corruption test then breaks one
//! invariant of a clean plan by hand and checks the auditor reports the
//! expected code, proving the checks actually bite.

use matc::analysis::{audit_program, lint_program, Diagnostics};
use matc::benchsuite::{self, Preset};
use matc::frontend::parser::parse_program;
use matc::gctd::{plan_program, GctdOptions, ProgramPlan, ResizeKind, SlotKind};
use matc::ir::{build_ssa, IrProgram, VarId};
use matc::typeinf::{infer_program, ProgramTypes};

/// Runs the full pipeline on `sources` and returns everything the
/// auditor needs.
fn pipeline(sources: &[String], options: GctdOptions) -> (IrProgram, ProgramTypes, ProgramPlan) {
    let ast = parse_program(sources.iter().map(|s| s.as_str())).unwrap();
    let mut ir = build_ssa(&ast).unwrap();
    matc::passes::optimize_program(&mut ir);
    let mut types = infer_program(&ir);
    let plans = plan_program(&ir, &mut types, options);
    (ir, types, plans)
}

fn audit_src(src: &str, options: GctdOptions) -> (IrProgram, ProgramTypes, ProgramPlan) {
    pipeline(&[src.to_string()], options)
}

fn codes(d: &Diagnostics) -> Vec<&'static str> {
    let mut c: Vec<&'static str> = d.iter().map(|x| x.code).collect();
    c.dedup();
    c
}

// ---------------------------------------------------------------------
// Clean plans audit clean
// ---------------------------------------------------------------------

#[test]
fn benchsuite_audits_clean_under_default_options() {
    for bench in benchsuite::all() {
        let (ir, types, plans) = pipeline(&bench.sources(Preset::Test), GctdOptions::default());
        let d = audit_program(&ir, &types, &plans);
        assert!(
            d.is_empty(),
            "{} produced findings:\n{}",
            bench.name,
            d.render()
        );
    }
}

#[test]
fn benchsuite_lints_match_known_findings() {
    // The corpus has exactly one lintable wart: `capr` accumulates an
    // error history (`hist`) it never reads — faithful to the original
    // benchmark. Everything else is clean, and lints never escalate to
    // errors.
    for bench in benchsuite::all() {
        let sources = bench.sources(Preset::Test);
        let ast = parse_program(sources.iter().map(|s| s.as_str())).unwrap();
        let d = lint_program(&ast);
        assert!(!d.has_errors(), "lints are warnings only: {}", d.render());
        if bench.name == "capr" {
            assert_eq!(codes(&d), vec!["L001"], "{}", d.render());
            assert!(
                d.iter().any(|x| x.message.contains("`hist`")),
                "{}",
                d.render()
            );
        } else {
            assert!(
                d.is_empty(),
                "{} produced lints:\n{}",
                bench.name,
                d.render()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Corrupted plans are caught, with the expected code
// ---------------------------------------------------------------------

/// The §2.1 overlapping-lifetime program: `a` and `b` interfere.
const OVERLAP: &str =
    "function f()\na = rand(2, 2);\nb = rand(2, 2);\nc = a(1);\nd = b + c;\ndisp(d);\n";

fn var_named(ir: &IrProgram, name: &str, version: u32) -> VarId {
    ir.entry_func()
        .vars
        .iter()
        .find(|(_, i)| i.name.as_deref() == Some(name) && i.ssa_version == version)
        .map(|(v, _)| v)
        .unwrap_or_else(|| panic!("no {name}.{version} in\n{}", ir.entry_func()))
}

/// Moves `v` into `target`'s slot, keeping the structure consistent so
/// only the semantic checks can object.
fn merge_into_slot(plans: &mut ProgramPlan, v: VarId, target: VarId) {
    let plan = &mut plans.plans[0];
    let old = plan.var_slot[&v];
    let new = plan.var_slot[&target];
    plan.slots[old].members.retain(|m| *m != v);
    plan.slots[new].members.push(v);
    plan.slots[new].members.sort();
    plan.var_slot.insert(v, new);
}

#[test]
fn corrupt_merging_live_vars_is_a101() {
    let (ir, types, mut plans) = audit_src(OVERLAP, GctdOptions::default());
    let a = var_named(&ir, "a", 1);
    let b = var_named(&ir, "b", 1);
    assert!(
        !plans.plans[0].share_storage(a, b),
        "planner keeps them apart"
    );
    merge_into_slot(&mut plans, b, a);
    let d = audit_program(&ir, &types, &plans);
    assert!(
        codes(&d).contains(&"A101"),
        "expected A101:\n{}",
        d.render()
    );
    assert!(d.has_errors());
}

#[test]
fn corrupt_inplace_matmul_is_a201() {
    // c = a * b cannot run in place in a (§2.3); force them to share.
    let src = "function f()\na = rand(3, 3);\nb = rand(3, 3);\nc = a * b;\ndisp(c);\n";
    let (ir, types, mut plans) = audit_src(src, GctdOptions::default());
    let a = var_named(&ir, "a", 1);
    let c = var_named(&ir, "c", 1);
    assert!(!plans.plans[0].share_storage(a, c));
    merge_into_slot(&mut plans, a, c);
    let d = audit_program(&ir, &types, &plans);
    assert!(
        codes(&d).contains(&"A201"),
        "expected A201:\n{}",
        d.render()
    );
}

#[test]
fn corrupt_noresize_annotation_is_a301() {
    // `a = rand(n, n)` lands in a heap slot with `±`; flipping it to `∘`
    // claims the slot is already the right size with no witness.
    let src = "function f(n)\na = rand(n, n);\ndisp(a);\n";
    let (ir, types, mut plans) = audit_src(src, GctdOptions::default());
    let a = var_named(&ir, "a", 1);
    let plan = &mut plans.plans[0];
    let slot = plan.var_slot[&a];
    assert!(matches!(plan.slots[slot].kind, SlotKind::Heap), "{plan:?}");
    plan.resize.insert(a, ResizeKind::NoResize);
    let d = audit_program(&ir, &types, &plans);
    assert_eq!(codes(&d), vec!["A301"], "{}", d.render());
}

#[test]
fn corrupt_grow_annotation_is_a302() {
    // `+` on a rand definition: nothing guarantees content-preserving
    // growth there.
    let src = "function f(n)\na = rand(n, n);\ndisp(a);\n";
    let (ir, types, mut plans) = audit_src(src, GctdOptions::default());
    let a = var_named(&ir, "a", 1);
    plans.plans[0].resize.insert(a, ResizeKind::Grow);
    let d = audit_program(&ir, &types, &plans);
    assert_eq!(codes(&d), vec!["A302"], "{}", d.render());
}

#[test]
fn corrupt_stack_bytes_is_a304() {
    // Shrink the 3x3 REAL stack slot (72 bytes) to 8: overflow.
    let src = "function f()\na = rand(3, 3);\ndisp(a);\n";
    let (ir, types, mut plans) = audit_src(src, GctdOptions::default());
    let a = var_named(&ir, "a", 1);
    let plan = &mut plans.plans[0];
    let slot = plan.var_slot[&a];
    match &mut plan.slots[slot].kind {
        SlotKind::Stack { bytes } => {
            assert_eq!(*bytes, 72);
            *bytes = 8;
        }
        k => panic!("expected stack slot, got {k:?}"),
    }
    let d = audit_program(&ir, &types, &plans);
    assert_eq!(codes(&d), vec!["A304"], "{}", d.render());
}

#[test]
fn corrupt_var_slot_table_is_a102() {
    let (ir, types, mut plans) = audit_src(OVERLAP, GctdOptions::default());
    let a = var_named(&ir, "a", 1);
    // Point `a` at a slot whose member list doesn't contain it.
    let plan = &mut plans.plans[0];
    let other = (plan.var_slot[&a] + 1) % plan.slots.len();
    plan.var_slot.insert(a, other);
    let d = audit_program(&ir, &types, &plans);
    assert!(
        codes(&d).contains(&"A102"),
        "expected A102:\n{}",
        d.render()
    );
}

#[test]
fn dead_resize_annotation_is_l004() {
    // `b = a + 1` coalesces into `a`'s heap slot annotated `∘` — the
    // planner found a same-size witness. Hand-flipping the annotation
    // to `±` claims a resize that the same witness proves can never
    // trigger: a dead annotation, reported as warning L004 (never an
    // error).
    let src = "function f(n)\na = rand(n, n);\nb = a + 1;\ndisp(b);\n";
    let (ir, types, mut plans) = audit_src(src, GctdOptions::default());
    let b = var_named(&ir, "b", 1);
    let plan = &mut plans.plans[0];
    let slot = plan.var_slot[&b];
    assert!(matches!(plan.slots[slot].kind, SlotKind::Heap), "{plan:?}");
    assert_eq!(plan.resize_of(b), ResizeKind::NoResize, "{plan:?}");
    assert!(
        plan.slots[slot].members.len() > 1,
        "b must share a slot for the witness to exist: {plan:?}"
    );
    plan.resize.insert(b, ResizeKind::Resize);
    let d = audit_program(&ir, &types, &plans);
    assert_eq!(codes(&d), vec!["L004"], "{}", d.render());
    assert!(!d.has_errors(), "L004 is a lint, not an error");
}

// ---------------------------------------------------------------------
// Parallel audits are deterministic
// ---------------------------------------------------------------------

/// Byte-identical findings for every `--jobs` value, on both clean
/// plans (the whole benchsuite) and a deliberately corrupted
/// multi-function program where finding *order* across functions is
/// what a parallel schedule could scramble.
#[test]
fn parallel_audit_is_byte_identical_across_jobs() {
    use matc::analysis::audit_program_jobs;

    for bench in benchsuite::all() {
        let (ir, types, plans) = pipeline(&bench.sources(Preset::Test), GctdOptions::default());
        let (serial, s_stats) = audit_program_jobs(&ir, &types, &plans, 1);
        for jobs in [2, 4, 8] {
            let (par, p_stats) = audit_program_jobs(&ir, &types, &plans, jobs);
            assert_eq!(serial, par, "{} diverged at jobs={jobs}", bench.name);
            assert_eq!(s_stats.cfg_edges, p_stats.cfg_edges, "{}", bench.name);
        }
    }
}

#[test]
fn parallel_audit_workers_running_dry_together_never_deadlock() {
    use matc::analysis::audit_program_jobs;
    use std::sync::mpsc;
    use std::time::Duration;

    // Tiny functions, so the workers run out of their own work at
    // nearly the same instant and all try to steal at once.
    let mut sources = vec!["function f()\ng1(2);\ng2(2);\ng3(2);\n".to_string()];
    for k in 1..=3 {
        sources.push(format!("function g{k}(n)\ndisp(n + {k});\n"));
    }
    let (ir, types, plans) = pipeline(&sources, GctdOptions::default());
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..500 {
            for jobs in 2..=4 {
                audit_program_jobs(&ir, &types, &plans, jobs);
            }
        }
        let _ = done.send(());
    });
    // A deadlocked worker pool fails here instead of hanging the suite.
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("parallel audit deadlocked");
}

#[test]
fn parallel_audit_orders_findings_like_serial() {
    use matc::analysis::audit_program_jobs;

    // A driver plus six helpers, then every helper's `r = rand(n, n)`
    // — a stack slot after constant specialization — gets a bogus
    // resize annotation: one A102 per function, so the merged report's
    // cross-function order matters.
    let mut sources =
        vec!["function f()\ng1(3);\ng2(3);\ng3(3);\ng4(3);\ng5(3);\ng6(3);\n".to_string()];
    for k in 1..=6 {
        sources.push(format!("function g{k}(n)\nr = rand(n, n);\ndisp(r);\n"));
    }
    let (ir, types, mut plans) = pipeline(&sources, GctdOptions::default());
    let mut corrupted = 0;
    for (fi, func) in ir.functions.iter().enumerate() {
        if let Some((v, _)) = func
            .vars
            .iter()
            .find(|(_, i)| i.name.as_deref() == Some("r") && i.ssa_version == 1)
        {
            plans.plans[fi].resize.insert(v, ResizeKind::NoResize);
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 6, "expected to corrupt every helper");

    let (serial, _) = audit_program_jobs(&ir, &types, &plans, 1);
    assert!(
        serial.iter().filter(|x| x.code == "A102").count() >= 6,
        "corruptions must all be caught:\n{}",
        serial.render()
    );
    for jobs in [2, 3, 8] {
        let (par, _) = audit_program_jobs(&ir, &types, &plans, jobs);
        assert_eq!(serial, par, "finding order diverged at jobs={jobs}");
    }
}

// ---------------------------------------------------------------------
// Cached artifacts carry clean audits
// ---------------------------------------------------------------------

/// Every benchsuite program through the batch driver with a warm
/// cache, under every ablation: the served artifacts must carry a
/// clean audit, and each option set must re-verify its *own* cached
/// artifact (a hit under the wrong options would mean the cache key
/// dropped an option flag — the audit embedded in the artifact is the
/// tripwire, since ablated plans differ observably).
#[test]
fn cached_plans_audit_clean_under_every_ablation() {
    use matc::batch::{bench_units, run_batch, BatchConfig};
    use matc::gctd::{ArtifactCache, CacheOutcome, ColoringStrategy, InterferenceOptions};

    let units = bench_units(Preset::Test);
    let cache = ArtifactCache::in_memory();
    let option_sets = [
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
        GctdOptions {
            coloring: ColoringStrategy::SizeOrderedGreedy,
            ..GctdOptions::default()
        },
    ];
    for options in option_sets {
        let cfg = BatchConfig {
            jobs: 4,
            options,
            ..BatchConfig::default()
        };
        let cold = run_batch(&units, &cfg, Some(&cache));
        assert_eq!(
            cold.report.cache_misses as usize,
            units.len(),
            "{options:?}: first run under a new option set must miss"
        );
        let warm = run_batch(&units, &cfg, Some(&cache));
        for (o, unit) in warm.outcomes.iter().zip(&units) {
            assert_eq!(o.metrics.cache, CacheOutcome::Hit, "{}", unit.name);
            let artifact = o.artifact.as_ref().unwrap();
            assert_eq!(
                artifact.audit_errors(),
                0,
                "{} under {options:?}: cached plan does not audit clean:\n{}",
                unit.name,
                artifact.audit_json
            );
            assert!(
                !artifact.audit_json.contains("\"severity\":\"error\""),
                "{} under {options:?}: {}",
                unit.name,
                artifact.audit_json
            );
            // The cached plan text must match a fresh compile under the
            // same options — the definitive aliasing check.
            let fresh = matc::batch::compile_unit(unit, options, None);
            assert_eq!(
                artifact.plan_text,
                fresh.artifact.unwrap().plan_text,
                "{} under {options:?}: cached plan differs from fresh plan",
                unit.name
            );
        }
    }
}

// ---------------------------------------------------------------------
// JSON output sanity
// ---------------------------------------------------------------------

#[test]
fn findings_render_as_json() {
    let (ir, types, mut plans) = audit_src(OVERLAP, GctdOptions::default());
    let a = var_named(&ir, "a", 1);
    let b = var_named(&ir, "b", 1);
    merge_into_slot(&mut plans, b, a);
    let d = audit_program(&ir, &types, &plans);
    let json = matc::stats::audit_json(&d);
    assert!(json.contains("\"code\":\"A101\""), "{json}");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
    assert!(json.contains("\"span\":"), "{json}");
}
