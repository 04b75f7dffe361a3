//! The storage-plan auditor.
//!
//! Given an SSA program, its inferred types and a [`StoragePlan`] for
//! every function, the auditor re-derives the soundness obligations a
//! plan must honour and reports every violation through
//! [`Diagnostics`]. It trusts **nothing** the planner computed: liveness
//! and availability come from this crate's own [`AuditFlow`], static
//! byte sizes from an independent walk over the inferred facts, and the
//! §2.3 in-place operator table is re-encoded here from the paper
//! rather than shared with Phase 1.
//!
//! Since PR 6 the audit also *compares* engines: the production
//! dataflow is computed once per function (shared between the A401
//! φ-coalescing check and the A5xx group instead of being re-derived
//! per check group) and every block-level fact is cross-validated
//! word-for-word against the auditor's independent recomputation — an
//! engine-vs-engine divergence is an instant bug report on whichever
//! side is wrong.
//!
//! ## Checks
//!
//! | code | severity | obligation |
//! |------|----------|------------|
//! | A101 | error    | no definition may clobber a slot-mate that is still live (Chaitin interference, §2) |
//! | A102 | error    | `var_slot`, `slots[..].members` and `resize` are structurally consistent |
//! | A103 | error    | φ parallel copies on one edge never write a slot another φ still reads (§2.2.1) |
//! | A201 | error    | a result sharing its dying operand's slot is an operation the §2.3 table allows in place |
//! | A301 | error    | `∘` only on definitions provably matching a same-slot predecessor's size (§3.2.2) |
//! | A302 | error    | `+` only on `subsasgn` into the same slot (§2.3.3.1) |
//! | A303 | error    | every stack-slot member is statically sizable (§3.2.1) |
//! | A304 | error    | a stack slot's byte size is exactly its maximal member's (§3.3, Lemma 1) |
//! | A305 | error    | a slot's intrinsic covers every member's inferred intrinsic (Relation 1) |
//! | A401 | warning  | φ arguments are coalesced with their destination unless a conflict was recorded (§2.2.1) |
//! | A501 | error    | auditor and production engines agree on block liveness (cross-validation) |
//! | A502 | error    | auditor and production engines agree on block availability (cross-validation) |
//! | A503 | error    | auditor and production engines agree on CFG reachability (cross-validation) |
//! | L004 | warning  | a `±` resize annotation the auditor proves can never trigger (dead resize) |
//!
//! ## Parallel audits
//!
//! [`audit_program_jobs`] fans per-function audits across worker
//! threads that share one cursor over the functions
//! ([`matc_gctd::par_map`]; auditing is read-only over the program and
//! the plan, so functions are embarrassingly parallel). The determinism
//! contract: diagnostics land in per-function slots and are merged in
//! `FuncId` order, and every verdict is a pure function of the
//! function, its types and its plan — so the output is byte-identical
//! across `--jobs 1` and `--jobs N` and across interleavings.

use crate::dataflow::AuditFlow;
use crate::diagnostics::Diagnostics;
use matc_frontend::ast::{BinOp, UnOp};
use matc_gctd::{
    par_map, Dataflow, GctdOptions, InterferenceGraph, ProgramPlan, ResizeKind, SlotKind,
    StoragePlan,
};
use matc_ir::ids::{BlockId, FuncId, VarId};
use matc_ir::instr::{InstrKind, Op, Operand};
use matc_ir::{Budget, BudgetError, Builtin, FuncIr, IrProgram};
use matc_typeinf::{ExprId, Intrinsic, ProgramTypes};
use std::collections::BTreeMap;

/// Work counters one function's audit produced (the `audit.edges`
/// figure of the batch stats document).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// CFG edges the audited functions contain — the unit of audit
    /// throughput (every dataflow fixpoint and per-instruction check is
    /// linear in edges for a fixed program shape).
    pub cfg_edges: u64,
}

impl AuditStats {
    fn absorb(&mut self, other: AuditStats) {
        self.cfg_edges += other.cfg_edges;
    }
}

/// Audits every function's plan; returns all findings.
pub fn audit_program(prog: &IrProgram, types: &ProgramTypes, plans: &ProgramPlan) -> Diagnostics {
    audit_program_jobs(prog, types, plans, 1).0
}

/// Audits every function's plan on `jobs` worker threads, each taking
/// the next unaudited function from a shared cursor (the batch driver's
/// [`par_map`]), and returns the findings with the work counters.
///
/// Diagnostics are collected into per-function slots and merged in
/// `FuncId` order, so the output is byte-identical for every `jobs`
/// value and every schedule. Each worker audits against its own clone
/// of `types` (symbolic size comparisons intern new expressions, a
/// cache rather than an input), so the caller's context is untouched.
pub fn audit_program_jobs(
    prog: &IrProgram,
    types: &ProgramTypes,
    plans: &ProgramPlan,
    jobs: usize,
) -> (Diagnostics, AuditStats) {
    let n = prog.functions.len();
    let jobs = jobs.clamp(1, n.max(1));
    let states = (0..jobs).map(|_| types.clone()).collect();
    let audited = par_map(n, states, |local_types, i| {
        let fid = FuncId::new(i);
        let func = prog.func(fid);
        let preds = func.predecessors();
        let budget = Budget::unlimited();
        let mut d = Diagnostics::new();
        let s = audit_function_budgeted(
            func,
            fid,
            local_types,
            plans.plan(fid),
            plans.options,
            &preds,
            &budget,
            &mut d,
        )
        .expect("unlimited budget cannot trip");
        Some((d, s))
    });

    let mut diags = Diagnostics::new();
    let mut stats = AuditStats::default();
    for slot in audited {
        let (d, s) = slot.expect("every function was audited");
        diags.merge(d);
        stats.absorb(s);
    }
    (diags, stats)
}

/// Audits one function's plan, appending findings to `diags`. The
/// predecessor lists are supplied by the caller (computed once per
/// function, shared by every analysis the audit runs — the audit
/// dataflow, the production engine behind A401/A5xx — instead of once
/// per check group), and the [`Budget`] is charged with the same shape
/// as the production pipeline's analysis phases.
///
/// Returns the work counters on success; on a budget trip the partial
/// findings appended so far must be discarded by the caller along with
/// the audit (the degradation ladder does exactly that).
///
/// # Errors
///
/// Returns the [`BudgetError`] that tripped one of the dataflow
/// fixpoints.
///
/// # Panics
///
/// Panics if `func` is not in SSA form.
#[allow(clippy::too_many_arguments)]
pub fn audit_function_budgeted(
    func: &FuncIr,
    fid: FuncId,
    types: &mut ProgramTypes,
    plan: &StoragePlan,
    options: GctdOptions,
    preds: &[Vec<BlockId>],
    budget: &Budget,
    diags: &mut Diagnostics,
) -> Result<AuditStats, BudgetError> {
    assert!(func.in_ssa, "plan audits run on SSA form");
    let flow = AuditFlow::compute_budgeted_with_preds(func, preds, budget)?;
    // The production engine's facts, computed once and shared between
    // the A5xx cross-validation and the A401 φ-coalescing check.
    let prod = Dataflow::compute_budgeted_with_preds(func, preds, budget)?;
    let sizes = AuditSizes::compute(func, fid, types);

    check_structure(func, plan, diags);
    check_slot_sizing(func, &sizes, plan, diags);
    check_liveness_conflicts(func, &flow, plan, diags);
    check_phi_parallel_copies(func, plan, diags);
    if options.interference.operator_semantics {
        check_inplace_pairings(func, fid, &flow, types, plan, diags);
    }
    check_resize_annotations(func, fid, &flow, types, &sizes, options, plan, diags);
    check_engine_agreement(func, &flow, &prod, plan, diags);
    if options.coalesce && options.interference.phi_coalescing {
        check_phi_coalescing(func, fid, types, options, plan, &prod, diags);
    }

    let cfg_edges = func
        .block_ids()
        .map(|b| func.block(b).term.successors().len() as u64)
        .sum();
    Ok(AuditStats { cfg_edges })
}

// ---------------------------------------------------------------------
// Independent static sizing
// ---------------------------------------------------------------------

/// What the auditor can say about one variable's storage needs, derived
/// directly from the inferred facts (never from the planner's `Sizing`).
enum AuditSize {
    /// Compile-time size: total bytes and element count.
    Static { bytes: u64, numel: i64 },
    /// Run-time size: the interned symbolic element count.
    Dyn(ExprId),
}

struct AuditSizes {
    size: BTreeMap<VarId, AuditSize>,
    intrinsic: BTreeMap<VarId, Intrinsic>,
}

impl AuditSizes {
    fn compute(func: &FuncIr, fid: FuncId, types: &mut ProgramTypes) -> AuditSizes {
        let mut size: BTreeMap<VarId, AuditSize> = BTreeMap::new();
        let mut intrinsic: BTreeMap<VarId, Intrinsic> = BTreeMap::new();
        let mut phis: Vec<(VarId, Vec<VarId>)> = Vec::new();

        let mut vars: Vec<VarId> = func.params.clone();
        for b in func.block_ids() {
            for instr in &func.block(b).instrs {
                vars.extend(instr.defs());
                if let InstrKind::Phi { dst, args } = &instr.kind {
                    phis.push((*dst, args.iter().map(|(_, v)| *v).collect()));
                }
            }
        }
        for v in vars {
            if size.contains_key(&v) {
                continue;
            }
            let Some(facts) = types.facts(fid, v).cloned() else {
                continue;
            };
            intrinsic.insert(v, facts.intrinsic);
            let elem = facts.intrinsic.byte_size();
            match facts.shape.known_dims(&types.ctx) {
                Some(dims) => {
                    let numel = dims.iter().product::<i64>().max(0);
                    size.insert(
                        v,
                        AuditSize::Static {
                            bytes: numel as u64 * elem,
                            numel,
                        },
                    );
                }
                None => {
                    let n = facts.shape.numel(&mut types.ctx);
                    size.insert(v, AuditSize::Dyn(n));
                }
            }
        }

        // §3.2.1 case 2: a φ whose inputs are all statically sizable is
        // itself static at the inputs' maximum — including φs whose own
        // inferred shape looked dynamic. Iterate for φ-chains.
        loop {
            let mut changed = false;
            for (dst, args) in &phis {
                if matches!(size.get(dst), Some(AuditSize::Static { .. })) {
                    continue;
                }
                let mut best: Option<(u64, i64)> = None;
                let mut all_static = !args.is_empty();
                for a in args {
                    match size.get(a) {
                        Some(AuditSize::Static { bytes, numel }) => {
                            if best.is_none_or(|(b, _)| *bytes > b) {
                                best = Some((*bytes, *numel));
                            }
                        }
                        _ => {
                            all_static = false;
                            break;
                        }
                    }
                }
                if all_static {
                    let (bytes, numel) = best.expect("non-empty φ");
                    size.insert(*dst, AuditSize::Static { bytes, numel });
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        AuditSizes { size, intrinsic }
    }

    fn static_bytes(&self, v: VarId) -> Option<u64> {
        match self.size.get(&v) {
            Some(AuditSize::Static { bytes, .. }) => Some(*bytes),
            _ => None,
        }
    }

    /// The element count, when it is a compile-time constant.
    fn const_numel(&self, v: VarId, types: &ProgramTypes) -> Option<i64> {
        match self.size.get(&v) {
            Some(AuditSize::Static { numel, .. }) => Some(*numel),
            Some(AuditSize::Dyn(n)) => types.ctx.as_const(*n),
            None => None,
        }
    }
}

// ---------------------------------------------------------------------
// A102 — structural consistency
// ---------------------------------------------------------------------

fn check_structure(func: &FuncIr, plan: &StoragePlan, diags: &mut Diagnostics) {
    let fname = &plan.func_name;
    for (v, si) in &plan.var_slot {
        if *si >= plan.slots.len() {
            diags.error(
                "A102",
                fname,
                format!(
                    "`{}` is bound to slot {si}, but the plan has only {} slots",
                    func.vars.display_name(*v),
                    plan.slots.len()
                ),
                None,
            );
            continue;
        }
        if !plan.slots[*si].members.contains(v) {
            diags.error(
                "A102",
                fname,
                format!(
                    "`{}` maps to slot {si} but is missing from that slot's member list",
                    func.vars.display_name(*v)
                ),
                None,
            );
        }
    }
    for (si, slot) in plan.slots.iter().enumerate() {
        for m in &slot.members {
            if plan.slot_of(*m) != Some(si) {
                diags.error(
                    "A102",
                    fname,
                    format!(
                        "slot {si} lists `{}` as a member, but `var_slot` disagrees",
                        func.vars.display_name(*m)
                    ),
                    None,
                );
            }
        }
    }
    for v in plan.resize.keys() {
        let heap = plan
            .slot_of(*v)
            .map(|si| matches!(plan.slots[si].kind, SlotKind::Heap));
        if heap != Some(true) {
            diags.error(
                "A102",
                fname,
                format!(
                    "resize annotation on `{}`, which is not bound to a heap slot",
                    func.vars.display_name(*v)
                ),
                None,
            );
        }
    }
}

// ---------------------------------------------------------------------
// A303 / A304 / A305 — slot sizing
// ---------------------------------------------------------------------

fn check_slot_sizing(
    func: &FuncIr,
    sizes: &AuditSizes,
    plan: &StoragePlan,
    diags: &mut Diagnostics,
) {
    let fname = &plan.func_name;
    for (si, slot) in plan.slots.iter().enumerate() {
        // A305: the slot's intrinsic must cover every member's inferred
        // intrinsic, or values widen silently when they land in the slot.
        for m in &slot.members {
            if let Some(it) = sizes.intrinsic.get(m) {
                if slot.intrinsic < *it {
                    diags.error(
                        "A305",
                        fname,
                        format!(
                            "slot {si} has intrinsic {:?}, below member `{}`'s inferred {:?}",
                            slot.intrinsic,
                            func.vars.display_name(*m),
                            it
                        ),
                        None,
                    );
                }
            }
        }
        let SlotKind::Stack { bytes } = slot.kind else {
            continue;
        };
        // A303: stack placement requires static estimability (§3.2.1).
        let mut max_bytes: Option<u64> = Some(0);
        for m in &slot.members {
            match sizes.static_bytes(*m) {
                Some(b) => max_bytes = max_bytes.map(|x| x.max(b)),
                None => {
                    diags.error(
                        "A303",
                        fname,
                        format!(
                            "stack slot {si} ({bytes} bytes) contains `{}`, whose size is not statically estimable",
                            func.vars.display_name(*m)
                        ),
                        None,
                    );
                    max_bytes = None;
                }
            }
        }
        // A304: the buffer must fit exactly the maximal member (Lemma 1:
        // a group's root is a maximal element; anything else either
        // overflows or wastes the paper's claimed savings).
        if let Some(need) = max_bytes {
            if need != bytes {
                diags.error(
                    "A304",
                    fname,
                    format!(
                        "stack slot {si} reserves {bytes} bytes but its maximal member needs {need}"
                    ),
                    None,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// A101 — liveness conflicts
// ---------------------------------------------------------------------

fn check_liveness_conflicts(
    func: &FuncIr,
    flow: &AuditFlow,
    plan: &StoragePlan,
    diags: &mut Diagnostics,
) {
    let fname = &plan.func_name;
    // Parameters materialise simultaneously at entry: two parameters in
    // one slot clobber each other if either is ever read.
    for (i, p) in func.params.iter().enumerate() {
        for q in &func.params[i + 1..] {
            if plan.share_storage(*p, *q)
                && (flow.live_in_contains(func.entry, *p) || flow.live_in_contains(func.entry, *q))
            {
                diags.error(
                    "A101",
                    fname,
                    format!(
                        "parameters `{}` and `{}` share slot {} at function entry",
                        func.vars.display_name(*p),
                        func.vars.display_name(*q),
                        plan.slot_of(*p).unwrap()
                    ),
                    None,
                );
            }
        }
    }
    for b in func.block_ids() {
        for (i, instr) in func.block(b).instrs.iter().enumerate() {
            let defs = instr.defs();
            // Simultaneously defined outputs must land in distinct slots.
            for (di, d1) in defs.iter().enumerate() {
                for d2 in &defs[di + 1..] {
                    if plan.share_storage(*d1, *d2) {
                        diags.error(
                            "A101",
                            fname,
                            format!(
                                "`{}` and `{}` are defined by the same instruction yet share slot {}",
                                func.vars.display_name(*d1),
                                func.vars.display_name(*d2),
                                plan.slot_of(*d1).unwrap()
                            ),
                            Some(instr.span),
                        );
                    }
                }
            }
            // Writing `d` must not destroy a slot-mate that some later
            // (or concurrent terminator) read still needs. The candidate
            // set — live after ∧ available before — is a word-wise AND
            // over the two snapshot rows.
            for d in &defs {
                let Some(sd) = plan.slot_of(*d) else { continue };
                for w in flow.live_and_avail_at(b, i) {
                    if w != *d && plan.slot_of(w) == Some(sd) {
                        diags.error(
                            "A101",
                            fname,
                            format!(
                                "defining `{}` overwrites slot {sd} while slot-mate `{}` is live and available",
                                func.vars.display_name(*d),
                                func.vars.display_name(w)
                            ),
                            Some(instr.span),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// A103 — φ parallel-copy conflicts
// ---------------------------------------------------------------------

fn check_phi_parallel_copies(func: &FuncIr, plan: &StoragePlan, diags: &mut Diagnostics) {
    type PhiRef<'a> = (
        &'a matc_ir::instr::Instr,
        VarId,
        &'a [(matc_ir::BlockId, VarId)],
    );
    let fname = &plan.func_name;
    for b in func.block_ids() {
        let phis: Vec<PhiRef> = func
            .block(b)
            .phis()
            .filter_map(|instr| match &instr.kind {
                InstrKind::Phi { dst, args } => Some((instr, *dst, args.as_slice())),
                _ => None,
            })
            .collect();
        for (pi, (instr, dst_i, args_i)) in phis.iter().enumerate() {
            let Some(sd) = plan.slot_of(*dst_i) else {
                continue;
            };
            for (pj, (_, _, args_j)) in phis.iter().enumerate() {
                if pi == pj {
                    continue;
                }
                for (pred, arg_j) in args_j.iter() {
                    if *arg_j == *dst_i {
                        continue;
                    }
                    // Copies on the same incoming edge run in parallel;
                    // reading the very same source value is harmless.
                    let own_arg = args_i.iter().find(|(p, _)| p == pred).map(|(_, a)| *a);
                    if own_arg == Some(*arg_j) {
                        continue;
                    }
                    if plan.slot_of(*arg_j) == Some(sd) {
                        diags.error(
                            "A103",
                            fname,
                            format!(
                                "φ writes `{}` into slot {sd} on edge from {pred} while a sibling φ still reads `{}` from it",
                                func.vars.display_name(*dst_i),
                                func.vars.display_name(*arg_j)
                            ),
                            Some(instr.span),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// A201 — in-place operator pairings (§2.3, independent table)
// ---------------------------------------------------------------------

fn check_inplace_pairings(
    func: &FuncIr,
    fid: FuncId,
    flow: &AuditFlow,
    types: &ProgramTypes,
    plan: &StoragePlan,
    diags: &mut Diagnostics,
) {
    let fname = &plan.func_name;
    for b in func.block_ids() {
        for (i, instr) in func.block(b).instrs.iter().enumerate() {
            let InstrKind::Compute { dst, op, args } = &instr.kind else {
                continue;
            };
            let Some(sd) = plan.slot_of(*dst) else {
                continue;
            };
            for (k, a) in args.iter().enumerate() {
                let Some(x) = a.as_var() else { continue };
                if x == *dst || plan.slot_of(x) != Some(sd) {
                    continue;
                }
                if flow.live_after_contains(b, i, x) {
                    continue; // a live slot-mate is A101's finding, not A201's
                }
                if !permits_in_place(op, k, args, fid, types) {
                    diags.error(
                        "A201",
                        fname,
                        format!(
                            "`{}` is computed by `{}` into slot {sd} over its operand `{}`, but §2.3 forbids running {} in place in operand {k}",
                            func.vars.display_name(*dst),
                            op.mnemonic(),
                            func.vars.display_name(x),
                            op.mnemonic()
                        ),
                        Some(instr.span),
                    );
                }
            }
        }
    }
}

/// The §2.3 operator table, re-derived from the paper: may `op`'s result
/// overwrite operand `k` while it is being produced? Returns `false`
/// whenever the answer is unclear.
fn permits_in_place(
    op: &Op,
    k: usize,
    args: &[Operand],
    fid: FuncId,
    types: &ProgramTypes,
) -> bool {
    let scalar = |v: VarId| {
        types
            .facts(fid, v)
            .map(|f| f.shape.is_scalar(&types.ctx))
            .unwrap_or(false)
    };
    let vector_or_scalar = |v: VarId| {
        types
            .facts(fid, v)
            .map(|f| f.shape.is_scalar(&types.ctx) || f.shape.is_vector(&types.ctx))
            .unwrap_or(false)
    };
    match op {
        // True matrix operations combine elements from arbitrary
        // positions; only a proven-scalar operand degrades them to a
        // positionally-aligned (hence in-place safe) map.
        Op::Bin(BinOp::MatMul | BinOp::MatDiv | BinOp::MatLeftDiv | BinOp::MatPow) => {
            args.iter().filter_map(|a| a.as_var()).any(scalar)
        }
        // Every other binary form — elementwise arithmetic, comparisons,
        // logicals, short-circuits — reads element i no later than it
        // writes element i.
        Op::Bin(_) => true,
        // Transposition permutes addresses; safe only when the layout
        // makes the permutation trivial (scalars and vectors).
        Op::Un(UnOp::Transpose | UnOp::CTranspose) => args
            .first()
            .and_then(|a| a.as_var())
            .is_some_and(vector_or_scalar),
        Op::Un(_) => true,
        // a(subs…): a monotone gather when every subscript is `:` or a
        // scalar; an array subscript may read positions already written
        // (the paper's `4:-1:1` flip). Subscript operands themselves are
        // consumed before any write.
        Op::Subsref => {
            k != 0
                || args[1..].iter().all(|s| match s {
                    Operand::ColonAll => true,
                    Operand::Var(v) => scalar(*v),
                })
        }
        // a(subs…) = r: §2.3.3.1's backwards fill makes the array
        // operand safe and nothing else.
        Op::Subsasgn => k == 0,
        Op::Range2 | Op::Range3 => true,
        // Concatenation relocates every operand; overlap is fatal.
        Op::MatrixBuild { .. } => false,
        Op::Builtin(bi) => {
            bi.is_elementwise_map()
                || bi.is_scalar_valued()
                || matches!(
                    bi,
                    Builtin::Zeros | Builtin::Ones | Builtin::Eye | Builtin::Rand
                )
                || (matches!(bi, Builtin::Max | Builtin::Min) && args.len() == 2)
        }
        // A user call computes in the callee's frame and stores last.
        Op::Call(_) => true,
    }
}

// ---------------------------------------------------------------------
// A301 / A302 / L004 — resize annotations (§3.2.2)
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn check_resize_annotations(
    func: &FuncIr,
    _fid: FuncId,
    flow: &AuditFlow,
    types: &mut ProgramTypes,
    sizes: &AuditSizes,
    options: GctdOptions,
    plan: &StoragePlan,
    diags: &mut Diagnostics,
) {
    let fname = &plan.func_name;
    for b in func.block_ids() {
        for instr in &func.block(b).instrs {
            for d in instr.defs() {
                let Some(sd) = plan.slot_of(d) else { continue };
                if !matches!(plan.slots[sd].kind, SlotKind::Heap) {
                    continue;
                }
                match plan.resize_of(d) {
                    // `±` re-fits the slot to the definition: always
                    // sound — but dead weight if the auditor can prove
                    // the slot is already exactly the right size, by the
                    // very witness rule A301 demands of `∘` (L004,
                    // precision headroom the planner left on the table).
                    // Gated on the plan's own options, like A201/A401: a
                    // `symbolic_criterion: false` plan deliberately
                    // forgoes size witnesses, so its `±` annotations are
                    // ablation policy, not dead weight.
                    ResizeKind::Resize => {
                        if instr.is_phi() || !options.symbolic_criterion {
                            continue;
                        }
                        let witnessed = plan.slots[sd].members.iter().any(|u| {
                            *u != d
                                && flow.available_at_def(*u, d)
                                && provably_same_numel(*u, d, sizes, types)
                        });
                        if witnessed {
                            diags.warning(
                                "L004",
                                fname,
                                format!(
                                    "`{}` is annotated `±` (resize) but an earlier slot-{sd} value provably has the same size — the resize can never trigger",
                                    func.vars.display_name(d)
                                ),
                                Some(instr.span),
                            );
                        }
                    }
                    // `+` relies on the §2.3.3 growth guarantee, which
                    // only subsasgn into the *same* storage provides.
                    // (No L004 here: the planner annotates *every*
                    // self-slot subsasgn `+` by design — the growth
                    // guard doubles as the bounds check — so a
                    // provably-in-bounds `+` is planner policy, not a
                    // dead annotation.)
                    ResizeKind::Grow => {
                        let ok = matches!(
                            &instr.kind,
                            InstrKind::Compute { op: Op::Subsasgn, args, .. }
                                if matches!(args.first(), Some(Operand::Var(a))
                                    if plan.slot_of(*a) == Some(sd))
                        );
                        if !ok {
                            diags.error(
                                "A302",
                                fname,
                                format!(
                                    "`{}` is annotated `+` (grow) but is not a subsasgn into its own slot {sd}",
                                    func.vars.display_name(d)
                                ),
                                Some(instr.span),
                            );
                        }
                    }
                    // `∘` claims the slot already holds exactly the right
                    // size. A φ merges values already resident; anything
                    // else needs a same-slot predecessor of provably
                    // identical element count.
                    ResizeKind::NoResize => {
                        if instr.is_phi() {
                            continue;
                        }
                        let witnessed = plan.slots[sd].members.iter().any(|u| {
                            *u != d
                                && flow.available_at_def(*u, d)
                                && provably_same_numel(*u, d, sizes, types)
                        });
                        if !witnessed {
                            diags.error(
                                "A301",
                                fname,
                                format!(
                                    "`{}` is annotated `∘` (no resize) but no earlier slot-{sd} value provably has the same size",
                                    func.vars.display_name(d)
                                ),
                                Some(instr.span),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Whether `u` and `d` provably hold the same number of elements.
fn provably_same_numel(u: VarId, d: VarId, sizes: &AuditSizes, types: &mut ProgramTypes) -> bool {
    match (sizes.size.get(&u), sizes.size.get(&d)) {
        (Some(AuditSize::Dyn(nu)), Some(AuditSize::Dyn(nd))) => {
            if nu == nd {
                return true;
            }
            let (nu, nd) = (*nu, *nd);
            if types.ctx.provably_ge(nu, nd) && types.ctx.provably_ge(nd, nu) {
                return true;
            }
            matches!(
                (types.ctx.as_const(nu), types.ctx.as_const(nd)),
                (Some(a), Some(b)) if a == b
            )
        }
        (Some(_), Some(_)) => {
            matches!(
                (sizes.const_numel(u, types), sizes.const_numel(d, types)),
                (Some(a), Some(b)) if a == b
            )
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// A5xx — engine-vs-engine cross-validation
// ---------------------------------------------------------------------

/// Compares the auditor's recomputed block facts against the production
/// engine's, word for word. The two engines share nothing but the IR:
/// the auditor's worklist transfer functions, summaries and snapshot
/// peeling all live in this crate. Agreement is therefore strong
/// evidence both are right; any divergence is an instant bug report on
/// whichever side is wrong (A501 liveness, A502 availability, A503
/// reachability).
fn check_engine_agreement(
    func: &FuncIr,
    flow: &AuditFlow,
    prod: &Dataflow,
    plan: &StoragePlan,
    diags: &mut Diagnostics,
) {
    let fname = &plan.func_name;
    let popcount = |row: &[u64]| row.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    for b in func.block_ids() {
        let bi = b.index();
        if flow.live_out_row(b) != prod.live_out_bits().row(bi) {
            diags.error(
                "A501",
                fname,
                format!("live-out of {b} diverges between the audit and production engines"),
                None,
            );
        }
        // Production live-in is an ordered-free set; compare by
        // membership plus cardinality.
        if prod.live_in[bi].len() != popcount(flow.live_in_row(b))
            || prod.live_in[bi]
                .iter()
                .any(|v| !flow.live_in_contains(b, *v))
        {
            diags.error(
                "A501",
                fname,
                format!("live-in of {b} diverges between the audit and production engines"),
                None,
            );
        }
        if flow.avail_out_row(b) != prod.avail_out_bits().row(bi) {
            diags.error(
                "A502",
                fname,
                format!("avail-out of {b} diverges between the audit and production engines"),
                None,
            );
        }
        for c in func.block_ids() {
            if flow.block_reaches(b, c) != prod.block_reaches(b, c) {
                diags.error(
                    "A503",
                    fname,
                    format!(
                        "reachability {b} → {c} diverges between the audit and production engines"
                    ),
                    None,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// A401 — φ-coalescing completeness (warning)
// ---------------------------------------------------------------------

fn check_phi_coalescing(
    func: &FuncIr,
    fid: FuncId,
    types: &mut ProgramTypes,
    options: GctdOptions,
    plan: &StoragePlan,
    flow: &Dataflow,
    diags: &mut Diagnostics,
) {
    // This check deliberately consults the production interference graph:
    // the question is not "is the plan unsound" but "did the planner
    // leave an SSA-inversion copy on the table without recording a
    // conflict that justifies it". The production dataflow behind the
    // graph is the same instance A5xx already cross-validated.
    let graph = {
        let ftypes = &types.funcs[fid.index()];
        InterferenceGraph::build(func, flow, ftypes, types, options.interference)
    };
    let fname = &plan.func_name;
    for b in func.block_ids() {
        for instr in func.block(b).phis() {
            let InstrKind::Phi { dst, args } = &instr.kind else {
                continue;
            };
            for (_, x) in args {
                if graph.is_immediate(*x) || graph.is_immediate(*dst) {
                    continue;
                }
                if !plan.share_storage(*dst, *x) && !graph.interferes(*dst, *x) {
                    diags.warning(
                        "A401",
                        fname,
                        format!(
                            "φ argument `{}` was not coalesced with `{}` and no interference justifies the copy",
                            func.vars.display_name(*x),
                            func.vars.display_name(*dst)
                        ),
                        Some(instr.span),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::build_ssa;
    use matc_typeinf::infer_program;

    fn prep(src: &str) -> (IrProgram, ProgramTypes, ProgramPlan) {
        let ast = parse_program([src]).unwrap();
        let ir = build_ssa(&ast).unwrap();
        let mut types = infer_program(&ir);
        let plans = matc_gctd::plan_program(&ir, &mut types, GctdOptions::default());
        (ir, types, plans)
    }

    #[test]
    fn engine_agreement_flags_foreign_facts() {
        // Cross-validate facts computed from two *different* functions:
        // the straight-line function's facts cannot match the branchy
        // function's, so every A5xx sub-check must have teeth.
        let (ir_a, _, plans_a) =
            prep("function y = f(x)\nif x > 0\ny = x + 1;\nelse\ny = x - 1;\nend\n");
        let (ir_b, _, _) = prep("function y = f(x)\ny = x + 1;\nz = y * 2;\ny = z;\n");
        let fa = ir_a.entry_func();
        let fb = ir_b.entry_func();
        let flow = AuditFlow::compute(fa);
        let foreign = Dataflow::compute(fb);
        // Only meaningful when the block universes line up enough to
        // compare; the branchy function has strictly more blocks, so
        // compare the entry block's facts at minimum.
        let mut d = Diagnostics::new();
        if fa.vars.len() == fb.vars.len() && fa.blocks.len() == fb.blocks.len() {
            check_engine_agreement(fa, &flow, &foreign, plans_a.plan(FuncId::new(0)), &mut d);
            assert!(d.has_errors(), "foreign facts must diverge");
        } else {
            // Same function, same facts: agreement holds.
            let own = Dataflow::compute(fa);
            check_engine_agreement(fa, &flow, &own, plans_a.plan(FuncId::new(0)), &mut d);
            assert!(d.is_empty(), "{}", d.render());
        }
    }

    #[test]
    fn engine_agreement_holds_on_matching_engines() {
        let (ir, _, plans) = prep("function s = f(n)\ns = 0;\nfor i = 1:n\ns = s + i;\nend\n");
        let f = ir.entry_func();
        let flow = AuditFlow::compute(f);
        let prod = Dataflow::compute(f);
        let mut d = Diagnostics::new();
        check_engine_agreement(f, &flow, &prod, plans.plan(FuncId::new(0)), &mut d);
        assert!(d.is_empty(), "{}", d.render());
    }

    #[test]
    fn budget_trip_in_audit_surfaces_as_error() {
        let src = "function s = f(n)\ns = 0;\nfor i = 1:n\ns = s + i;\nend\n";
        let (ir, mut types, plans) = prep(src);
        let fid = FuncId::new(0);
        let func = ir.func(fid);
        let preds = func.predecessors();
        let budget = Budget::new(None, Some(1));
        budget.enter_phase("audit");
        let mut d = Diagnostics::new();
        let err = audit_function_budgeted(
            func,
            fid,
            &mut types,
            plans.plan(fid),
            plans.options,
            &preds,
            &budget,
            &mut d,
        )
        .expect_err("one unit of fuel cannot audit a loop");
        assert_eq!(err.phase, "audit");
    }
}
