//! The traced layer replay: one unit driven single-threaded through the
//! public call of every layer, in the order and with the arguments
//! `matc::batch::compile_unit` uses, with a span around each call.
//!
//! Besides the production calls, each function also gets the GCTD
//! split — a standalone [`Dataflow`], [`InterferenceGraph`] and
//! [`Coloring`] on the same input `plan_function` sees — and a
//! standalone [`AuditFlow`], so the per-layer numbers can say where
//! planning and auditing spend their time. These extra spans are work
//! the production pipeline does not do; [`Replay::split_ns`] reports
//! their total so the tracing overhead can be computed without them.
//!
//! The equivalence tests in `tests/replay_equivalence.rs` hold the
//! replay to the production pipeline: byte-identical C for every
//! compile-batch unit, and the same optimized IR as `optimize_program`.

use crate::trace::{Tracer, NO_FUNC};
use matc::analysis::{audit_function_budgeted, lint_program, AuditFlow};
use matc::batch::{render_func_plan, Unit};
use matc::codegen::{emit_function_unit, emit_unit_epilogue, emit_unit_prologue};
use matc::frontend::parse_program;
use matc::gctd::{
    options_fingerprint, plan_function, CacheKey, Coloring, ColoringStrategy, Dataflow,
    GctdOptions, InterferenceGraph,
};
use matc::ir::{build_ssa, ssa_destruct, Budget, FuncId, IrProgram};
use matc::passes::{
    copy_propagate, eliminate_common_subexpressions, eliminate_dead_code, fold_branches,
    fold_constants,
};
use matc::typeinf::infer_program;

/// Which functions get the back half (plan → audit → invert → emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope<'a> {
    /// A cold batch compile: every function.
    Batch,
    /// A warm-store recompile after a one-function edit: fragment keys
    /// for every function, the back half only for `recompile` (every
    /// other function is a fragment hit in production).
    Incremental {
        /// The edited function.
        recompile: &'a str,
    },
}

/// Deterministic counts gathered along the replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// AST statements plus expressions.
    pub ast_nodes: u64,
    /// IR instructions after optimization.
    pub instrs: u64,
    /// Rewrites applied by the five passes.
    pub rewrites: u64,
    /// Worklist visits of the standalone dataflow fixpoints.
    pub dataflow_iters: u64,
    /// Interference-graph edges.
    pub interference_edges: u64,
    /// Storage slots planned.
    pub slots: u64,
    /// Bytes of C emitted.
    pub c_bytes: u64,
    /// Error-severity lint and audit findings.
    pub audit_errors: u64,
}

/// What one unit's replay produced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The emitted C translation unit (complete only under
    /// [`Scope::Batch`]).
    pub c_code: String,
    /// Deterministic counts.
    pub counts: Counts,
    /// Nanoseconds spent in the standalone split spans, which the
    /// production pipeline does not run.
    pub split_ns: u64,
}

/// Runs the optimizer's exact per-function schedule — up to four
/// rounds of fold-constants, fold-branches, CSE, copy propagation and
/// DCE, stopping at the first round that rewrites nothing — with one
/// span per pass call. Returns the rewrites applied.
pub fn replay_optimize(ir: &mut IrProgram, tr: &mut Tracer, unit: u32) -> u64 {
    let mut total = 0usize;
    for (i, f) in ir.functions.iter_mut().enumerate() {
        let fi = i as u32;
        for _ in 0..4 {
            let mut round = 0;
            round += tr.time("passes.fold_constants", unit, fi, || fold_constants(f));
            round += tr.time("passes.fold_branches", unit, fi, || fold_branches(f));
            round += tr.time("passes.cse", unit, fi, || {
                eliminate_common_subexpressions(f)
            });
            round += tr.time("passes.copy_prop", unit, fi, || copy_propagate(f));
            round += tr.time("passes.dce", unit, fi, || eliminate_dead_code(f));
            total += round;
            if round == 0 {
                break;
            }
        }
    }
    total as u64
}

/// Replays one unit under `tr` (see the module docs).
///
/// # Errors
///
/// Returns the parse or lowering error that stops the unit.
pub fn replay_unit(unit: &Unit, tr: &mut Tracer, scope: Scope<'_>) -> Result<Replay, String> {
    let options = GctdOptions::default();
    let u = tr.unit(&unit.name);
    let root = tr.begin("batch.unit", u, NO_FUNC);
    let mut counts = Counts::default();

    let ast = tr
        .time("frontend.parse", u, NO_FUNC, || {
            parse_program(unit.sources.iter().map(String::as_str))
        })
        .map_err(|e| format!("{}: parse error: {}", unit.name, e.render(&unit.sources[0])))?;
    let stats = ast.stats();
    counts.ast_nodes = (stats.statements + stats.expressions) as u64;

    let mut ir = tr
        .time("ir.ssa_build", u, NO_FUNC, || build_ssa(&ast))
        .map_err(|e| format!("{}: {e}", unit.name))?;
    tr.set_funcs(u, ir.functions.iter().map(|f| f.name.clone()).collect());
    counts.rewrites = replay_optimize(&mut ir, tr, u);
    counts.instrs = ir
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter())
        .map(|b| b.instrs.len() as u64)
        .sum();
    let mut types = tr.time("typeinf.infer", u, NO_FUNC, || infer_program(&ir));

    if let Scope::Incremental { .. } = scope {
        // The fragment key of every function, as the warm store
        // computes it before it can look a fragment up.
        let fingerprint = options_fingerprint(&options);
        for i in 0..ir.functions.len() {
            let fid = FuncId::new(i);
            tr.time("cache.frag_key", u, i as u32, || {
                let ir_text = format!("{:?}", ir.func(fid));
                let facts = types.canonical_func_facts(fid);
                std::hint::black_box(CacheKey::compute_parts(
                    "matc-frag-v1",
                    [
                        fingerprint.as_str(),
                        "probes=0",
                        ir_text.as_str(),
                        facts.as_str(),
                    ],
                ))
            });
        }
    }

    let mut diags = tr.time("analysis.lint", u, NO_FUNC, || lint_program(&ast));
    let mut bodies = String::new();
    let mut plan_text = String::new();
    let mut split_ns = 0u64;
    for i in 0..ir.functions.len() {
        if let Scope::Incremental { recompile } = scope {
            if ir.functions[i].name != recompile {
                continue;
            }
        }
        let fid = FuncId::new(i);
        let fi = i as u32;

        // The split, before `plan_function` interns anything into the
        // inference context, so it sees exactly the planner's input.
        let split_start = tr.now_ns();
        let func = ir.func(fid);
        let (preds, flow) = tr.time("gctd.dataflow", u, fi, || {
            let preds = func.predecessors();
            let flow = Dataflow::compute_with_preds(func, &preds);
            (preds, flow)
        });
        counts.dataflow_iters += flow.worklist_iterations();
        let graph = tr.time("gctd.interference", u, fi, || {
            InterferenceGraph::build(func, &flow, &types.funcs[i], &types, options.interference)
        });
        counts.interference_edges += graph.edge_count() as u64;
        // Lexical greedy coloring (the default) never consults node sizes.
        debug_assert_eq!(options.coloring, ColoringStrategy::LexicalGreedy);
        tr.time("gctd.coloring", u, fi, || {
            std::hint::black_box(Coloring::with_strategy(
                func,
                &graph,
                options.coloring,
                &|_| 0,
            ))
        });
        tr.time("analysis.auditflow", u, fi, || {
            std::hint::black_box(AuditFlow::compute_with_preds(func, &preds))
        });
        split_ns += tr.now_ns() - split_start;

        let plan = tr.time("gctd.plan", u, fi, || {
            plan_function(ir.func(fid), fid, &mut types, options)
        });
        counts.slots += plan.stats.slots as u64;
        let fd = tr.time("analysis.audit", u, fi, || {
            let func = ir.func(fid);
            let preds = func.predecessors();
            let mut fd = matc::analysis::Diagnostics::new();
            audit_function_budgeted(
                func,
                fid,
                &mut types,
                &plan,
                options,
                &preds,
                &Budget::unlimited(),
                &mut fd,
            )
            .map(|_| fd)
        });
        let fd = fd.map_err(|e| format!("{}: audit budget: {e}", unit.name))?;
        let func = &mut ir.functions[i];
        tr.time("ir.ssa_invert", u, fi, || {
            ssa_destruct(func, |dst, src| plan.share_storage(dst, src));
        });
        let body = tr.time("codegen.emit", u, fi, || {
            emit_function_unit(func, &plan, None)
        });
        tr.time("batch.assemble", u, fi, || {
            plan_text.push_str(&render_func_plan(func, &plan));
            bodies.push_str(&body);
            diags.merge(fd);
        });
    }

    let c_code = tr.time("codegen.emit", u, NO_FUNC, || {
        let mut c = emit_unit_prologue(&ir.functions);
        c.push_str(&bodies);
        c.push_str(&emit_unit_epilogue(&ir.entry_func().name, false));
        c
    });
    tr.time("batch.assemble", u, NO_FUNC, || {
        counts.audit_errors = diags.error_count() as u64;
        std::hint::black_box(diags.to_json());
    });
    counts.c_bytes = c_code.len() as u64;
    tr.end(root);
    Ok(Replay {
        c_code,
        counts,
        split_ns,
    })
}
