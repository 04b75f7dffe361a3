//! Storage-plan assembly: GCTD end to end.
//!
//! Runs Phase 1 (interference + coloring) and Phase 2 (storage-size
//! partial order + decomposition) over each function, then binds every
//! variable to a **slot** — one storage area per group. Statically
//! estimable groups become fixed-size **stack** slots (§3.2.1); the rest
//! become **heap** slots resized on the fly (§3.2.2), with each
//! definition annotated `∘` (no resize), `+` (grow, preserving
//! contents — `subsasgn`) or `±` (resize to the definition's needs).
//!
//! The plan also carries the coalescing statistics behind the paper's
//! Table 2.

use crate::coloring::{Coloring, ColoringStrategy};
use crate::interference::{InterferenceGraph, InterferenceOptions};
use crate::liveness::Dataflow;
use crate::metrics::{Phase, UnitMetrics};
use crate::order::{decompose_color_class, SizeClass, Sizing};
use matc_ir::ids::{FuncId, VarId};
use matc_ir::instr::{InstrKind, Op, Operand};
use matc_ir::{Budget, BudgetError, FuncIr, IrProgram};
use matc_typeinf::{ExprId, Intrinsic, ProgramTypes};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Options for a GCTD run (ablations and the Figure 6 baseline).
#[derive(Debug, Clone, Copy)]
pub struct GctdOptions {
    /// Master switch: `false` reproduces "mat2c without GCTD" — every
    /// variable gets its own storage (Figure 6).
    pub coalesce: bool,
    /// Phase 1 options.
    pub interference: InterferenceOptions,
    /// Enable Relation 1's second (symbolic) criterion; disabling it is
    /// the "clump nothing dynamic" ablation the paper argues against.
    pub symbolic_criterion: bool,
    /// Coloring strategy (§2.4's lexical greedy by default; see
    /// [`ColoringStrategy`] for the §5-motivated alternatives).
    pub coloring: ColoringStrategy,
}

impl Default for GctdOptions {
    fn default() -> Self {
        GctdOptions {
            coalesce: true,
            interference: InterferenceOptions::default(),
            symbolic_criterion: true,
            coloring: ColoringStrategy::LexicalGreedy,
        }
    }
}

/// Where a slot lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Fixed-size stack storage (statically estimable group).
    Stack {
        /// The group's byte size (the maximal element's).
        bytes: u64,
    },
    /// Heap storage, resized on the fly.
    Heap,
}

/// One storage area shared by a group of variables.
#[derive(Debug, Clone)]
pub struct SlotInfo {
    /// Stack or heap.
    pub kind: SlotKind,
    /// The group's (joined) intrinsic type.
    pub intrinsic: Intrinsic,
    /// All variables bound to this slot.
    pub members: Vec<VarId>,
}

/// Per-definition resize annotation (§3.2.2, Examples 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeKind {
    /// `∘` — the slot already has exactly this size.
    NoResize,
    /// `+` — grow only, preserving contents (subsasgn).
    Grow,
    /// `±` — resize to this definition's needs.
    Resize,
}

/// Coalescing statistics (Table 2 inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Variables in the CFG on entry to GCTD ("Original Variable Count").
    pub original_vars: usize,
    /// Statically-estimable variables subsumed into another's storage
    /// (the `s` of Table 2's `s/d`).
    pub static_subsumed: usize,
    /// Dynamically-allocated variables statically subsumed within
    /// another dynamic variable (`d`).
    pub dynamic_subsumed: usize,
    /// Bytes of stack storage saved by coalescing (Table 2's "Storage
    /// Reduction", conservative: heap savings not counted).
    pub stack_bytes_saved: u64,
    /// Total bytes of the coalesced stack frame.
    pub stack_bytes_total: u64,
    /// Colors used by the greedy heuristic.
    pub colors: u32,
    /// φ-coalescings performed.
    pub coalesced_phis: usize,
    /// Operator-semantics conflicts inserted.
    pub op_conflicts: usize,
    /// Number of storage slots in the plan.
    pub slots: usize,
}

impl PlanStats {
    /// Adds `s` into `self` field by field (Table 2 rows sum
    /// functions).
    pub fn absorb(&mut self, s: &PlanStats) {
        self.original_vars += s.original_vars;
        self.static_subsumed += s.static_subsumed;
        self.dynamic_subsumed += s.dynamic_subsumed;
        self.stack_bytes_saved += s.stack_bytes_saved;
        self.stack_bytes_total += s.stack_bytes_total;
        self.colors += s.colors;
        self.coalesced_phis += s.coalesced_phis;
        self.op_conflicts += s.op_conflicts;
        self.slots += s.slots;
    }
}

/// The storage plan of one function.
#[derive(Debug, Clone)]
pub struct StoragePlan {
    /// The planned function's name.
    pub func_name: String,
    /// All slots.
    pub slots: Vec<SlotInfo>,
    /// Slot index per variable.
    pub var_slot: BTreeMap<VarId, usize>,
    /// Resize annotation per (SSA) definition of heap-slot variables.
    pub resize: BTreeMap<VarId, ResizeKind>,
    /// Members of real (not complex) stack slots whose intrinsic is
    /// real, integer or boolean and whose every value is exactly 1×1
    /// (`FuncTypes::is_exact_scalar`). The C backend computes them as
    /// plain `double`s in element 0 of their slot.
    pub scalars: BTreeSet<VarId>,
    /// Statistics.
    pub stats: PlanStats,
}

impl StoragePlan {
    /// The slot of variable `v`, if planned.
    pub fn slot_of(&self, v: VarId) -> Option<usize> {
        self.var_slot.get(&v).copied()
    }

    /// Whether `a` and `b` share storage.
    pub fn share_storage(&self, a: VarId, b: VarId) -> bool {
        match (self.slot_of(a), self.slot_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The resize annotation of a definition (defaults to `±` for heap,
    /// `∘` for stack members).
    pub fn resize_of(&self, v: VarId) -> ResizeKind {
        if let Some(r) = self.resize.get(&v) {
            return *r;
        }
        match self.slot_of(v).map(|s| self.slots[s].kind) {
            Some(SlotKind::Heap) => ResizeKind::Resize,
            _ => ResizeKind::NoResize,
        }
    }
}

/// Plans of every function in a program, indexed by [`FuncId`].
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    /// Per-function plans.
    pub plans: Vec<StoragePlan>,
    /// Options used.
    pub options: GctdOptions,
}

impl ProgramPlan {
    /// The plan of function `f`.
    pub fn plan(&self, f: FuncId) -> &StoragePlan {
        &self.plans[f.index()]
    }

    /// Program-wide aggregated statistics (Table 2 rows sum functions).
    pub fn total_stats(&self) -> PlanStats {
        let mut t = PlanStats::default();
        for p in &self.plans {
            t.absorb(&p.stats);
        }
        t
    }
}

/// Runs GCTD over every function of an SSA program.
pub fn plan_program(
    prog: &IrProgram,
    types: &mut ProgramTypes,
    options: GctdOptions,
) -> ProgramPlan {
    let plans = (0..prog.functions.len())
        .map(|i| plan_function(prog.func(FuncId::new(i)), FuncId::new(i), types, options))
        .collect();
    ProgramPlan { plans, options }
}

/// Node-level sizing facts for a coalesced interference class.
struct NodeFacts {
    members: Vec<VarId>,
    intrinsic: Intrinsic,
    size: Option<NodeSize>,
}

enum NodeSize {
    Static(u64),
    Dynamic(ExprId),
}

/// Runs GCTD over one function.
pub fn plan_function(
    func: &FuncIr,
    fid: FuncId,
    types: &mut ProgramTypes,
    options: GctdOptions,
) -> StoragePlan {
    let budget = Budget::unlimited();
    plan_function_budgeted(func, fid, types, options, &budget, None)
        .expect("unlimited budget cannot trip")
}

/// [`plan_function`] under a [`Budget`] with optional phase recording:
/// per-phase wall times (interference build, coloring, decomposition)
/// and interference-graph node/edge totals accumulate into `rec`, and
/// the plan is the same either way. The budget's fuel charges cover the dataflow fixpoints,
/// the interference-graph backward scan, and the coloring search — the
/// three input-dependent parts of GCTD — under the phase names
/// `"interference"`, `"coloring"` and `"decompose"`.
///
/// # Errors
///
/// Returns the [`BudgetError`] that tripped; no partial plan is
/// produced, so the caller can re-plan the same function with the
/// conservative all-heap options instead.
///
/// # Panics
///
/// Panics if `func` is not in SSA form.
pub fn plan_function_budgeted(
    func: &FuncIr,
    fid: FuncId,
    types: &mut ProgramTypes,
    options: GctdOptions,
    budget: &Budget,
    mut rec: Option<&mut UnitMetrics>,
) -> Result<StoragePlan, BudgetError> {
    assert!(func.in_ssa, "GCTD runs on SSA");
    let t = Instant::now();
    budget.enter_phase("interference");
    let flow = Dataflow::compute_budgeted(func, budget)?;
    let dataflow_elapsed = t.elapsed();
    let graph = {
        let ftypes = &types.funcs[fid.index()];
        InterferenceGraph::build_budgeted(func, &flow, ftypes, types, options.interference, budget)?
    };
    if let Some(r) = rec.as_deref_mut() {
        r.record(Phase::Interference, t.elapsed());
        r.interference_nodes += graph.node_count();
        r.interference_edges += graph.edge_count();
        r.dataflow_nanos += dataflow_elapsed.as_nanos() as u64;
        r.dataflow_iters += flow.worklist_iterations();
        r.peak_live_words = r.peak_live_words.max(flow.live_set_words() as u64);
    }
    let t = Instant::now();
    let sizing = Sizing::compute(func, fid, types);

    if !options.coalesce {
        let plan = plan_without_coalescing(func, &graph, &sizing);
        if let Some(r) = rec.as_deref_mut() {
            r.record(Phase::Decompose, t.elapsed());
        }
        return Ok(plan);
    }
    if let Some(r) = rec.as_deref_mut() {
        r.record(Phase::Decompose, t.elapsed());
    }

    let node_bytes = |rep: matc_ir::ids::VarId| -> u64 {
        graph
            .members(rep)
            .iter()
            .map(|m| match sizing.class[m.index()] {
                Some(SizeClass::Static(b)) => b,
                // Dynamic sizes are unknown; rank them above every
                // static so size-aware strategies color them first.
                Some(SizeClass::Dynamic(_)) => 1 << 40,
                None => 0,
            })
            .max()
            .unwrap_or(0)
    };
    let t = Instant::now();
    budget.enter_phase("coloring");
    let coloring =
        Coloring::with_strategy_budgeted(func, &graph, options.coloring, &node_bytes, budget)?;
    debug_assert!(coloring.validate(&graph), "improper coloring");
    if let Some(r) = rec.as_deref_mut() {
        r.record(Phase::Coloring, t.elapsed());
    }
    let t = Instant::now();
    budget.enter_phase("decompose");

    // ------------------------------------------------------------------
    // Build node-level facts per class representative.
    // ------------------------------------------------------------------
    let mut node_facts: HashMap<VarId, NodeFacts> = HashMap::new();
    for rep in graph.representatives() {
        let members = graph.members(rep);
        let mut intrinsic = Intrinsic::Bool;
        let mut first = true;
        for m in &members {
            let it = sizing.intrinsic[m.index()];
            intrinsic = if first { it } else { intrinsic.join(it) };
            first = false;
        }
        // All-static nodes take the max byte size; any dynamic member
        // makes the node dynamic with a Max element-count expression.
        let mut static_max: u64 = 0;
        let mut all_static = true;
        let mut dyn_numel: Option<ExprId> = None;
        let mut missing = false;
        for m in &members {
            match sizing.class[m.index()] {
                Some(SizeClass::Static(b)) => {
                    static_max = static_max.max(b);
                    let numel_elems = b / sizing.intrinsic[m.index()].byte_size().max(1);
                    let c = types.ctx.constant(numel_elems as i64);
                    dyn_numel = Some(match dyn_numel {
                        None => c,
                        Some(acc) => types.ctx.max(acc, c),
                    });
                }
                Some(SizeClass::Dynamic(n)) => {
                    all_static = false;
                    dyn_numel = Some(match dyn_numel {
                        None => n,
                        Some(acc) => types.ctx.max(acc, n),
                    });
                }
                None => missing = true,
            }
        }
        let size = match (missing, dyn_numel) {
            (true, _) | (_, None) => None,
            _ if all_static => Some(NodeSize::Static(static_max)),
            (_, Some(n)) => Some(NodeSize::Dynamic(n)),
        };
        node_facts.insert(
            rep,
            NodeFacts {
                members,
                intrinsic,
                size,
            },
        );
    }

    // ------------------------------------------------------------------
    // Decompose every color class into groups (Phase 2).
    // ------------------------------------------------------------------
    let mut slots: Vec<SlotInfo> = Vec::new();
    let mut var_slot: BTreeMap<VarId, usize> = BTreeMap::new();
    let mut static_subsumed = 0usize;
    let mut dynamic_subsumed = 0usize;
    let mut stack_bytes_saved = 0u64;
    let mut stack_bytes_total = 0u64;

    for class in coloring.classes() {
        let n = class.len();
        // Decomposition compares class nodes pairwise; charge quadratic
        // work so a fuel limit also bounds Phase 2.
        budget.spend((n as u64).saturating_mul(n as u64) + 1)?;
        let le = |i: usize, j: usize| -> bool {
            if i == j {
                return true;
            }
            let (a, b) = (&node_facts[&class[i]], &node_facts[&class[j]]);
            if a.intrinsic != b.intrinsic {
                return false;
            }
            match (&a.size, &b.size) {
                (Some(NodeSize::Static(x)), Some(NodeSize::Static(y))) => x <= y,
                (Some(NodeSize::Dynamic(x)), Some(NodeSize::Dynamic(y))) => {
                    if !options.symbolic_criterion {
                        return false;
                    }
                    // Availability between nodes: some member of `a`
                    // available at some member-def of `b`.
                    let avail = a
                        .members
                        .iter()
                        .any(|u| b.members.iter().any(|v| flow.available_at_def(*u, *v)));
                    if !avail {
                        return false;
                    }
                    if *x == *y || types.ctx.provably_ge(*y, *x) {
                        return true;
                    }
                    // subsasgn growth chains between the nodes.
                    b.members.iter().any(|v| {
                        let mut cur = *v;
                        let mut hops = 0;
                        while let Some(p) = sizing.grows_from.get(&cur) {
                            if a.members.contains(p) {
                                return true;
                            }
                            cur = *p;
                            hops += 1;
                            if hops > 64 {
                                break;
                            }
                        }
                        false
                    })
                }
                _ => false,
            }
        };
        let groups = decompose_color_class(n, le);
        for g in groups {
            let slot_idx = slots.len();
            let root_rep = class[g.root];
            let root = &node_facts[&root_rep];
            let kind = match root.size {
                Some(NodeSize::Static(bytes)) => SlotKind::Stack { bytes },
                _ => SlotKind::Heap,
            };
            let mut members: Vec<VarId> = Vec::new();
            let mut intrinsic = root.intrinsic;
            for &mi in &g.members {
                let nf = &node_facts[&class[mi]];
                intrinsic = intrinsic.join(nf.intrinsic);
                members.extend(nf.members.iter().copied());
            }
            members.sort();
            // Statistics: every member beyond the first is subsumed.
            let subsumed = members.len().saturating_sub(1);
            match kind {
                SlotKind::Stack { bytes } => {
                    static_subsumed += subsumed;
                    stack_bytes_total += bytes;
                    let sum: u64 = members
                        .iter()
                        .map(|m| match sizing.class[m.index()] {
                            Some(SizeClass::Static(b)) => b,
                            _ => 0,
                        })
                        .sum();
                    stack_bytes_saved += sum.saturating_sub(bytes);
                }
                SlotKind::Heap => dynamic_subsumed += subsumed,
            }
            for m in &members {
                var_slot.insert(*m, slot_idx);
            }
            slots.push(SlotInfo {
                kind,
                intrinsic,
                members,
            });
        }
    }

    // ------------------------------------------------------------------
    // Resize annotations for heap-slot definitions.
    // ------------------------------------------------------------------
    let mut resize: BTreeMap<VarId, ResizeKind> = BTreeMap::new();
    for b in func.block_ids() {
        for instr in &func.block(b).instrs {
            for d in instr.defs() {
                let Some(si) = var_slot.get(&d) else { continue };
                if !matches!(slots[*si].kind, SlotKind::Heap) {
                    continue;
                }
                let kind = match &instr.kind {
                    // A φ merges values already resident in the slot.
                    InstrKind::Phi { .. } => ResizeKind::NoResize,
                    InstrKind::Compute {
                        op: Op::Subsasgn,
                        args,
                        ..
                    } => match args.first() {
                        Some(Operand::Var(a)) if var_slot.get(a) == Some(si) => ResizeKind::Grow,
                        _ => ResizeKind::Resize,
                    },
                    _ => {
                        // `∘` when a same-slot predecessor provably has
                        // the same element count.
                        let my_numel = match sizing.class[d.index()] {
                            Some(SizeClass::Dynamic(n)) => Some(n),
                            _ => None,
                        };
                        let same = my_numel.is_some()
                            && slots[*si].members.iter().any(|u| {
                                *u != d
                                    && flow.available_at_def(*u, d)
                                    && match sizing.class[u.index()] {
                                        Some(SizeClass::Dynamic(n)) => Some(n) == my_numel,
                                        _ => false,
                                    }
                            });
                        if same {
                            ResizeKind::NoResize
                        } else {
                            ResizeKind::Resize
                        }
                    }
                };
                resize.insert(d, kind);
            }
        }
    }

    let ftypes = &types.funcs[fid.index()];
    let scalars = slots
        .iter()
        .filter(|s| matches!(s.kind, SlotKind::Stack { .. }) && !s.intrinsic.is_complex())
        .flat_map(|s| &s.members)
        .copied()
        .filter(|v| {
            ftypes.is_exact_scalar(*v) && ftypes.get(*v).is_some_and(|f| !f.intrinsic.is_complex())
        })
        .collect();

    let stats = PlanStats {
        original_vars: graph.occurring_count(),
        static_subsumed,
        dynamic_subsumed,
        stack_bytes_saved,
        stack_bytes_total,
        colors: coloring.num_colors,
        coalesced_phis: graph.coalesced,
        op_conflicts: graph.op_conflicts,
        slots: slots.len(),
    };
    if let Some(r) = rec {
        r.record(Phase::Decompose, t.elapsed());
    }
    Ok(StoragePlan {
        func_name: func.name.clone(),
        slots,
        var_slot,
        resize,
        scalars,
        stats,
    })
}

/// The Figure 6 baseline, "mat2c without GCTD": one heap slot per
/// variable, no sharing. Stack placement and in-place execution are both
/// Phase 2 products, so the baseline allocates every array dynamically at
/// each definition (scalars stay in registers/immediates as the backend
/// would keep them).
fn plan_without_coalescing(
    func: &FuncIr,
    graph: &InterferenceGraph,
    sizing: &Sizing,
) -> StoragePlan {
    let mut slots = Vec::new();
    let mut var_slot = BTreeMap::new();
    let mut vars: Vec<VarId> = Vec::new();
    for p in &func.params {
        vars.push(*p);
    }
    for b in func.block_ids() {
        for instr in &func.block(b).instrs {
            vars.extend(instr.defs().into_iter().filter(|d| !graph.is_immediate(*d)));
        }
    }
    vars.sort();
    vars.dedup();
    for v in vars {
        let idx = slots.len();
        var_slot.insert(v, idx);
        slots.push(SlotInfo {
            kind: SlotKind::Heap,
            intrinsic: sizing.intrinsic[v.index()],
            members: vec![v],
        });
    }
    let stats = PlanStats {
        original_vars: graph.occurring_count(),
        colors: slots.len() as u32,
        slots: slots.len(),
        stack_bytes_total: 0,
        ..PlanStats::default()
    };
    StoragePlan {
        func_name: func.name.clone(),
        slots,
        var_slot,
        resize: BTreeMap::new(),
        scalars: BTreeSet::new(),
        stats,
    }
}
