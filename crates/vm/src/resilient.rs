//! Fault-tolerant variant of the [`crate::compile()`] pipeline.
//!
//! [`compile_resilient`] produces exactly the same artifacts as
//! [`crate::compile::compile_audited`] when nothing goes wrong, but
//! survives three classes of failure by walking a *degradation ladder*
//! instead of crashing or emitting an unaudited plan:
//!
//! 1. **Planner panics.** Each function's GCTD plan is computed under
//!    [`isolate()`]; a panic becomes a per-function fallback to the
//!    conservative all-heap (mcc-style) plan, re-audited before use.
//! 2. **Phase budget trips** ([`BudgetError`]). A fuel or wall-clock
//!    trip inside planning degrades that function like a panic does; a
//!    trip inside the optimizer or type inference re-lowers the whole
//!    unit conservatively (fresh unoptimized SSA, wall-clock-only
//!    budget, all-heap plans).
//! 3. **Audit violations.** When the independent auditor rejects a
//!    GCTD plan — a real soundness bug, or one injected via
//!    [`FaultSite::AuditViolation`] — the function falls back to the
//!    all-heap plan and is audited again. Only a fallback plan that
//!    *still* fails its audit aborts the unit.
//!
//! Every rung taken is recorded as a [`DegradationEvent`] (and budget
//! trips additionally as [`BudgetEvent`]s) in the unit's
//! [`UnitMetrics`], so `--stats` makes degradations visible. The
//! all-heap fallback is always sound — it is precisely the plan the
//! mcc model uses, with no storage sharing to get wrong — which is why
//! it anchors the bottom of the ladder.

use crate::compile::Compiled;
use matc_analysis::{audit_function_budgeted, lint_program, Diagnostics, Severity};
use matc_frontend::ast::Program;
use matc_gctd::{
    isolate, plan_function_budgeted, BudgetEvent, DegradationEvent, FaultPlan, FaultSite,
    GctdOptions, Phase, ProgramPlan, StoragePlan, UnitMetrics,
};
use matc_ir::ids::FuncId;
use matc_ir::lower::LowerError;
use matc_ir::{build_ssa, ssa_destruct, Budget, BudgetError, IrProgram};
use matc_passes::{optimize_program_budgeted, OptStats};
use matc_typeinf::{infer_program_budgeted, ProgramTypes};
use std::fmt;
use std::time::Instant;

/// Why a unit could not be compiled even with every ladder rung taken.
#[derive(Debug)]
pub enum ResilientError {
    /// Lowering failed (undefined names, unsupported constructs) — no
    /// ladder applies, the program never reached SSA.
    Lower(LowerError),
    /// The wall-clock budget was exceeded even on the conservative
    /// path (fuel trips never reach here; they degrade instead).
    Budget(BudgetError),
    /// The conservative fallback plan itself panicked — nothing sound
    /// is left to emit.
    FallbackPanic {
        /// The function whose fallback planning panicked.
        func: String,
        /// The captured panic message.
        message: String,
    },
    /// The conservative fallback plan failed its audit — the unit has
    /// a soundness problem no plan can paper over.
    FallbackAudit {
        /// The function whose fallback plan was rejected.
        func: String,
        /// Summary of the rejecting findings.
        detail: String,
    },
}

impl fmt::Display for ResilientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilientError::Lower(e) => e.fmt(f),
            ResilientError::Budget(e) => e.fmt(f),
            ResilientError::FallbackPanic { func, message } => {
                write!(f, "fallback plan for `{func}` panicked: {message}")
            }
            ResilientError::FallbackAudit { func, detail } => {
                write!(f, "fallback plan for `{func}` failed its audit: {detail}")
            }
        }
    }
}

impl std::error::Error for ResilientError {}

impl From<LowerError> for ResilientError {
    fn from(e: LowerError) -> ResilientError {
        ResilientError::Lower(e)
    }
}

/// Panics when the seeded plan says this probe fires — the injection
/// point exercised by `FaultSite::PhasePanic`.
fn maybe_panic(faults: &FaultPlan, key: &str) {
    if faults.fires(FaultSite::PhasePanic, key) {
        panic!("injected fault: panic at `{key}`");
    }
}

/// One line summarizing the error findings of a rejected audit.
fn summarize_errors(d: &Diagnostics) -> String {
    let first = d
        .iter()
        .find(|f| f.severity == Severity::Error)
        .map(|f| f.to_string())
        .unwrap_or_default();
    format!("{} audit error(s); first: {first}", d.error_count())
}

fn note_budget(rec: &mut UnitMetrics, be: &BudgetError) {
    rec.budget_exceeded.push(BudgetEvent {
        phase: be.phase.to_string(),
        kind: be.kind.to_string(),
    });
}

fn degrade(rec: &mut UnitMetrics, func: &str, stage: &'static str, reason: String) {
    rec.degradations.push(DegradationEvent {
        unit: rec.unit.clone(),
        func: func.to_string(),
        stage,
        reason,
    });
}

/// The [`crate::compile::compile_audited`] pipeline with the
/// degradation ladder, phase budgets and fault-injection probes (see
/// the module docs). With an unlimited budget and a quiet fault plan
/// the output is byte-identical to the non-resilient pipeline.
///
/// Degradations and budget trips are recorded in `rec`; the returned
/// [`Diagnostics`] always describe the plans actually emitted (a
/// degraded function contributes its *fallback* plan's findings — the
/// rejected plan's findings live in the degradation event's reason).
///
/// # Errors
///
/// Returns a [`ResilientError`] only when no rung of the ladder can
/// produce a sound artifact: lowering failures, wall-clock exhaustion
/// on the conservative path, or a fallback plan that panics or fails
/// its own audit.
///
/// # Panics
///
/// Injected `PhasePanic` faults at the optimizer and type-inference
/// probes deliberately panic out of this function (the batch driver's
/// unit-level [`isolate()`] turns them into structured unit failures);
/// planner panics are caught here and degraded instead.
pub fn compile_resilient(
    ast: &Program,
    options: GctdOptions,
    budget: &Budget,
    faults: FaultPlan,
    rec: &mut UnitMetrics,
) -> Result<(Compiled, Diagnostics), ResilientError> {
    let mut front = compile_front(ast, options, budget, &faults, rec)?;
    let mut plans_vec: Vec<StoragePlan> = Vec::with_capacity(front.ir.functions.len());
    let mut audit_diags = Diagnostics::new();
    for i in 0..front.ir.functions.len() {
        let (plan, fd) = compile_function(&mut front, FuncId::new(i), budget, &faults, rec)?;
        audit_diags.merge(fd);
        plans_vec.push(plan);
    }
    Ok(assemble_compiled(ast, front, plans_vec, audit_diags, rec))
}

/// The unit-level half of the pipeline, everything that runs *before*
/// per-function planning: SSA build, the optimizer, and type inference,
/// with the unit-level rungs of the degradation ladder applied. The
/// incremental batch driver runs this half unconditionally (it is what
/// fragment cache keys are computed from), then compiles only the
/// functions whose fragments miss.
pub struct FrontHalf {
    /// The optimized (or, in conservative mode, freshly re-lowered)
    /// SSA program, before SSA destruction.
    pub ir: IrProgram,
    /// Inferred types. Planning one function only appends interned
    /// expressions to this context; it never rewrites another
    /// function's facts, which is what makes per-function caching
    /// sound.
    pub types: ProgramTypes,
    /// Optimizer statistics for the whole unit.
    pub opt_stats: OptStats,
    /// Whether a unit-level budget trip forced conservative mode
    /// (all-heap plans from unoptimized SSA).
    pub conservative: bool,
    /// The planning options actually in effect (the all-heap fallback
    /// configuration when [`FrontHalf::conservative`] is set).
    pub plan_options: GctdOptions,
    fallback_options: GctdOptions,
    unit: String,
}

/// Runs the front half of [`compile_resilient`] (see [`FrontHalf`]).
///
/// # Errors
///
/// Fails only for the unit-level reasons [`compile_resilient`] does:
/// lowering errors, expired deadlines, or budget exhaustion already on
/// the conservative path.
pub fn compile_front(
    ast: &Program,
    options: GctdOptions,
    budget: &Budget,
    faults: &FaultPlan,
    rec: &mut UnitMetrics,
) -> Result<FrontHalf, ResilientError> {
    // A request whose deadline already passed (queue wait under load)
    // fails fast before any phase runs: the ladder cannot buy time back.
    if budget.deadline_expired() {
        let be = BudgetError {
            phase: "start",
            kind: matc_ir::BudgetKind::Deadline,
        };
        note_budget(rec, &be);
        return Err(ResilientError::Budget(be));
    }

    let unit = rec.unit.clone();
    let s = ast.stats();
    rec.ast_functions = s.functions;
    rec.ast_statements = s.statements;
    rec.ast_expressions = s.expressions;

    let t = Instant::now();
    let mut ir = build_ssa(ast)?;
    rec.record(Phase::SsaBuild, t.elapsed());

    // Unit-level conservative mode: entered when the optimizer or type
    // inference trips its budget. The unit restarts from a fresh,
    // unoptimized lowering under a wall-clock-only budget (re-spending
    // the exhausted fuel on the cheaper path would trip instantly).
    let mut conservative = false;

    let t = Instant::now();
    maybe_panic(faults, &format!("{unit}/optimize"));
    let opt_stats = match optimize_program_budgeted(&mut ir, budget) {
        Ok(s) => s,
        Err(be) => {
            note_budget(rec, &be);
            if be.kind == matc_ir::BudgetKind::Deadline {
                // The request deadline has passed: no rung of the
                // ladder can finish in time, so fail fast instead of
                // burning more wall clock on the conservative path.
                return Err(ResilientError::Budget(be));
            }
            degrade(rec, "", "optimize_budget", be.to_string());
            conservative = true;
            OptStats::default()
        }
    };
    if conservative {
        // Discard the partially-optimized IR: the conservative path
        // compiles what the programmer wrote, not a half-transformed
        // intermediate state.
        ir = build_ssa(ast)?;
    }
    rec.record(Phase::Optimize, t.elapsed());
    rec.opt_removed = opt_stats.total();
    rec.ir_functions = ir.functions.len();
    rec.ir_blocks = ir.functions.iter().map(|f| f.blocks.len()).sum();
    rec.ir_instrs = ir
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter())
        .map(|b| b.instrs.len())
        .sum();
    rec.ir_vars = ir.functions.iter().map(|f| f.vars.len()).sum();

    let relaxed = budget.without_fuel();

    let t = Instant::now();
    maybe_panic(faults, &format!("{unit}/type_infer"));
    let infer_budget = if conservative { &relaxed } else { budget };
    let types = match infer_program_budgeted(&ir, infer_budget) {
        Ok(ty) => ty,
        Err(be) => {
            note_budget(rec, &be);
            if conservative || be.kind == matc_ir::BudgetKind::Deadline {
                // Already on the cheapest path (or out of request
                // deadline); the unit genuinely cannot be compiled in
                // time.
                return Err(ResilientError::Budget(be));
            }
            degrade(rec, "", "type_infer_budget", be.to_string());
            conservative = true;
            ir = build_ssa(ast)?;
            infer_program_budgeted(&ir, &relaxed).map_err(ResilientError::Budget)?
        }
    };
    rec.record(Phase::TypeInfer, t.elapsed());
    let ts = types.summary();
    rec.typeinf_facts = ts.facts;
    rec.typeinf_scalars = ts.scalars;

    // `fallback_options` is the mcc-style all-heap configuration —
    // [`plan_function_budgeted`] short-circuits to
    // `plan_without_coalescing` when `coalesce` is off, so the fallback
    // never runs the coloring machinery that failed.
    let fallback_options = GctdOptions {
        coalesce: false,
        ..options
    };
    let plan_options = if conservative {
        fallback_options
    } else {
        options
    };
    Ok(FrontHalf {
        ir,
        types,
        opt_stats,
        conservative,
        plan_options,
        fallback_options,
        unit,
    })
}

/// Plans and audits one function through the per-function rungs of the
/// degradation ladder (configured plan → audit → all-heap fallback).
/// Returns the emitted plan together with that function's audit
/// findings; the caller merges the findings across functions.
///
/// # Errors
///
/// Fails only when no rung can produce a sound plan for this function
/// — budget exhaustion on the conservative path, or a fallback plan
/// that panics or fails its own audit.
pub fn compile_function(
    front: &mut FrontHalf,
    fid: FuncId,
    budget: &Budget,
    faults: &FaultPlan,
    rec: &mut UnitMetrics,
) -> Result<(StoragePlan, Diagnostics), ResilientError> {
    let FrontHalf {
        ir,
        types,
        conservative,
        plan_options,
        fallback_options,
        unit,
        ..
    } = front;
    let (conservative, plan_options, fallback_options) =
        (*conservative, *plan_options, *fallback_options);
    let relaxed = budget.without_fuel();
    let fname = ir.func(fid).name.clone();
    let plan_budget = if conservative { &relaxed } else { budget };

    // Rung 1: the configured plan, isolated and budgeted.
    let attempt = isolate(|| {
        maybe_panic(faults, &format!("{unit}/{fname}/plan"));
        plan_function_budgeted(
            ir.func(fid),
            fid,
            types,
            plan_options,
            plan_budget,
            Some(rec),
        )
    });
    let mut failure: Option<(&'static str, String)> = None;
    let mut plan = match attempt {
        Ok(Ok(p)) => Some(p),
        Ok(Err(be)) => {
            note_budget(rec, &be);
            if (be.kind == matc_ir::BudgetKind::WallClock && conservative)
                || be.kind == matc_ir::BudgetKind::Deadline
            {
                return Err(ResilientError::Budget(be));
            }
            failure = Some(("plan_budget", be.to_string()));
            None
        }
        Err(msg) => {
            failure = Some(("plan_panic", msg));
            None
        }
    };

    // Rung 2: audit the configured plan under the same budget the
    // plan ran on; a violation (real or injected) demotes the
    // function to the fallback, and so does a budget trip — the
    // audit's partial findings are discarded with it.
    let preds = ir.func(fid).predecessors();
    let mut audit_diags = Diagnostics::new();
    if let Some(p) = &plan {
        let t = Instant::now();
        let mut fd = Diagnostics::new();
        let audited = audit_function_budgeted(
            ir.func(fid),
            fid,
            types,
            p,
            plan_options,
            &preds,
            plan_budget,
            &mut fd,
        );
        rec.record(Phase::Audit, t.elapsed());
        match audited {
            Err(be) => {
                note_budget(rec, &be);
                if (be.kind == matc_ir::BudgetKind::WallClock && conservative)
                    || be.kind == matc_ir::BudgetKind::Deadline
                {
                    return Err(ResilientError::Budget(be));
                }
                failure = Some(("audit_budget", be.to_string()));
                plan = None;
            }
            Ok(stats) => {
                let injected = plan_options.coalesce
                    && faults.fires(FaultSite::AuditViolation, &format!("{unit}/{fname}"));
                if fd.has_errors() || injected {
                    failure = Some((
                        "audit",
                        if fd.has_errors() {
                            summarize_errors(&fd)
                        } else {
                            "injected audit violation".to_string()
                        },
                    ));
                    plan = None;
                } else {
                    rec.audit_edges += stats.cfg_edges;
                    audit_diags.merge(fd);
                }
            }
        }
    }

    // Rung 3: the all-heap fallback, re-audited before use.
    let plan = match plan {
        Some(p) => p,
        None => {
            let (stage, reason) = failure.expect("missing plan implies a recorded failure");
            degrade(rec, &fname, stage, reason);
            let fb = isolate(|| {
                plan_function_budgeted(ir.func(fid), fid, types, fallback_options, &relaxed, None)
            });
            let fb = match fb {
                Ok(Ok(p)) => p,
                Ok(Err(be)) => return Err(ResilientError::Budget(be)),
                Err(message) => {
                    return Err(ResilientError::FallbackPanic {
                        func: fname,
                        message,
                    })
                }
            };
            let t = Instant::now();
            let mut fd = Diagnostics::new();
            let audited = audit_function_budgeted(
                ir.func(fid),
                fid,
                types,
                &fb,
                fallback_options,
                &preds,
                &relaxed,
                &mut fd,
            );
            rec.record(Phase::Audit, t.elapsed());
            let stats = audited.map_err(ResilientError::Budget)?;
            if fd.has_errors() {
                return Err(ResilientError::FallbackAudit {
                    func: fname,
                    detail: summarize_errors(&fd),
                });
            }
            rec.audit_edges += stats.cfg_edges;
            audit_diags.merge(fd);
            fb
        }
    };
    Ok((plan, audit_diags))
}

/// The back half of [`compile_resilient`]: lints, merges the
/// per-function audit findings, records the plan totals, destroys SSA
/// form under the plans' sharing relation, and packages the
/// [`Compiled`] unit. The incremental batch driver only reaches this
/// point on full recompiles; composed partial hits stitch cached
/// fragments instead.
pub fn assemble_compiled(
    ast: &Program,
    front: FrontHalf,
    plans_vec: Vec<StoragePlan>,
    audit_diags: Diagnostics,
    rec: &mut UnitMetrics,
) -> (Compiled, Diagnostics) {
    let FrontHalf {
        mut ir,
        types,
        opt_stats,
        plan_options,
        ..
    } = front;
    let plans = ProgramPlan {
        plans: plans_vec,
        options: plan_options,
    };
    rec.plan = plans.total_stats();

    let t = Instant::now();
    let mut diags = lint_program(ast);
    diags.merge(audit_diags);
    rec.record(Phase::Audit, t.elapsed());
    rec.audit_errors = diags.error_count();
    rec.audit_warnings = diags.warning_count();

    let t = Instant::now();
    for (i, f) in ir.functions.iter_mut().enumerate() {
        let plan = &plans.plans[i];
        ssa_destruct(f, |dst, src| plan.share_storage(dst, src));
    }
    rec.record(Phase::SsaInvert, t.elapsed());

    (
        Compiled {
            ir,
            plans,
            types,
            opt_stats,
        },
        diags,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_audited;
    use matc_frontend::parser::parse_program;
    use std::time::Duration;

    fn sample() -> Program {
        parse_program([
            "function f()\ns = 0;\nfor i = 1:10\ns = s + i;\nend\nfprintf('%d\\n', s);\n",
        ])
        .unwrap()
    }

    fn run(
        ast: &Program,
        budget: &Budget,
        faults: FaultPlan,
    ) -> (Result<(Compiled, Diagnostics), ResilientError>, UnitMetrics) {
        let mut m = UnitMetrics::new("t");
        let r = compile_resilient(ast, GctdOptions::default(), budget, faults, &mut m);
        (r, m)
    }

    #[test]
    fn clean_run_matches_compile_audited() {
        let ast = sample();
        let mut m_ref = UnitMetrics::new("t");
        let (reference, ref_diags) =
            compile_audited(&ast, GctdOptions::default(), Some(&mut m_ref)).unwrap();
        let (res, m) = run(&ast, &Budget::unlimited(), FaultPlan::quiet(0));
        let (compiled, diags) = res.unwrap();
        assert_eq!(diags, ref_diags);
        assert!(m.degradations.is_empty());
        assert!(m.budget_exceeded.is_empty());
        // Identical plans ⇒ identical slots text and stats.
        assert_eq!(compiled.plans.total_stats(), reference.plans.total_stats());
        assert_eq!(m.plan, m_ref.plan);
        assert_eq!(m.ir_instrs, m_ref.ir_instrs);
    }

    #[test]
    fn injected_audit_violation_degrades_to_all_heap() {
        let ast = sample();
        let (res, m) = run(
            &ast,
            &Budget::unlimited(),
            FaultPlan::quiet(5).audit_violations(100),
        );
        let (compiled, diags) = res.unwrap();
        assert_eq!(diags.error_count(), 0, "fallback plans audit clean");
        assert_eq!(m.degradations.len(), 1);
        assert_eq!(m.degradations[0].stage, "audit");
        assert!(m.degradations[0].reason.contains("injected"));
        // The emitted plan really is the all-heap one: no stack slots.
        for p in &compiled.plans.plans {
            assert!(p
                .slots
                .iter()
                .all(|s| matches!(s.kind, matc_gctd::SlotKind::Heap)));
        }
    }

    #[test]
    fn planner_panic_degrades_to_all_heap() {
        let ast = sample();
        // A seed whose 50% panic rate hits the planner probe for `f`
        // but misses the unit-level optimize/type_infer probes — panic
        // decisions are keyed, so such seeds are dense.
        let seed = (0..10_000u64)
            .find(|s| {
                let p = FaultPlan::quiet(*s).panics(50);
                p.fires(FaultSite::PhasePanic, "t/f/plan")
                    && !p.fires(FaultSite::PhasePanic, "t/optimize")
                    && !p.fires(FaultSite::PhasePanic, "t/type_infer")
            })
            .expect("a plan-only panic seed exists");
        let (res, m) = run(
            &ast,
            &Budget::unlimited(),
            FaultPlan::quiet(seed).panics(50),
        );
        let (_compiled, diags) = res.unwrap();
        assert_eq!(diags.error_count(), 0, "fallback plan audits clean");
        assert_eq!(m.degradations.len(), 1);
        assert_eq!(m.degradations[0].stage, "plan_panic");
        assert!(m.degradations[0].reason.contains("injected fault"));
    }

    #[test]
    fn unit_level_panic_probes_propagate_for_the_driver_to_isolate() {
        let ast = sample();
        let caught = isolate(|| run(&ast, &Budget::unlimited(), FaultPlan::quiet(5).panics(100)));
        let msg = caught.expect_err("100% panic rate fires at optimize");
        assert!(msg.contains("injected fault"), "{msg}");
    }

    #[test]
    fn expired_request_deadline_fails_fast_without_degrading() {
        let ast = sample();
        let budget = Budget::new(None, None)
            .with_deadline(std::time::Instant::now() - Duration::from_millis(1));
        let (res, m) = run(&ast, &budget, FaultPlan::quiet(0));
        match res {
            Err(ResilientError::Budget(be)) => {
                assert_eq!(be.kind, matc_ir::BudgetKind::Deadline);
            }
            other => panic!("expected a deadline budget error, got {other:?}"),
        }
        assert!(
            m.degradations.is_empty(),
            "an out-of-time request must not burn time on the conservative path"
        );
        assert_eq!(m.budget_exceeded.len(), 1);
        assert_eq!(m.budget_exceeded[0].kind, "deadline");
    }

    #[test]
    fn generous_deadline_compiles_identically_to_unlimited() {
        let ast = sample();
        let budget = Budget::new(None, None)
            .with_deadline(std::time::Instant::now() + Duration::from_secs(3600));
        let (res, m) = run(&ast, &budget, FaultPlan::quiet(0));
        let (compiled, diags) = res.unwrap();
        assert_eq!(diags.error_count(), 0);
        assert!(m.degradations.is_empty() && m.budget_exceeded.is_empty());
        let (reference, _) = run(&ast, &Budget::unlimited(), FaultPlan::quiet(0))
            .0
            .unwrap();
        assert_eq!(compiled.plans.total_stats(), reference.plans.total_stats());
    }

    #[test]
    fn tiny_fuel_degrades_but_still_compiles() {
        let ast = sample();
        let budget = Budget::new(None, Some(1));
        let (res, m) = run(&ast, &budget, FaultPlan::quiet(0));
        let (_compiled, diags) = res.unwrap();
        assert_eq!(diags.error_count(), 0);
        assert!(
            !m.budget_exceeded.is_empty(),
            "one-unit fuel must trip somewhere"
        );
        assert!(!m.degradations.is_empty());
    }
}
