//! The plan-validating shadow layer: observed storage behaviour vs the
//! static [`StoragePlan`].
//!
//! The GCTD plan makes *claims* about run time — a `∘`-annotated
//! definition never resizes its slot (§3.2.2), a `Stack { bytes }` slot
//! is large enough for every member (§3.2.1), a slot is only touched
//! where the auditor's liveness facts say a member is live. The planned
//! VM (and, optionally, the probed C runtime) records what storage
//! *actually does* into a [`ShadowLog`]; [`replay`] diffs the log
//! against the plan and classifies every divergence:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | S101 | error    | a `∘` definition was observed resizing its heap slot |
//! | S102 | error    | observed bytes exceeded a `Stack { bytes }` slot |
//! | S103 | warning  | a `±` definition never resized across the run (precision headroom) |
//! | S104 | error    | a slot read outside the auditor's liveness facts |
//! | S105 | error    | Equation 2 recomputed from the log disagrees with the recorder |
//!
//! S101/S102 are soundness bugs — the generated C would write out of
//! bounds. S103 is the precision headroom "Compiling with Arrays"-style
//! destination passing would reclaim. S104 cross-checks the dynamic
//! trace against [`AuditFlow`]'s static liveness, and S105 closes the
//! loop on the paper's Equation 2 memory accounting: the time-weighted
//! average heap recomputed from the logged piecewise-constant heap
//! levels must agree with `matc_runtime::mem::MemRecorder`'s own
//! integral (the log carries `(clock, level)` after every heap event,
//! so the reconstruction is exact in integer arithmetic).
//!
//! [`StoragePlan`]: matc_gctd::StoragePlan

use crate::dataflow::AuditFlow;
use crate::diagnostics::Diagnostics;
use matc_gctd::{ProgramPlan, ResizeKind, SlotKind};
use matc_ir::ids::{BlockId, VarId};
use matc_ir::IrProgram;
use std::collections::{BTreeMap, BTreeSet};

/// What a definition did to its slot's storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefAction {
    /// Wrote a fixed stack slot (no heap traffic).
    Stack,
    /// First allocation of the slot's heap block.
    Alloc,
    /// The heap block was reallocated to fit this definition.
    Realloc,
    /// The existing heap block was reused as-is.
    Reuse,
}

/// Aggregated observations for one `(function, variable)` definition
/// site across the whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefStats {
    /// Definitions executed.
    pub defs: u64,
    /// First allocations performed.
    pub allocs: u64,
    /// Reallocations performed.
    pub reallocs: u64,
    /// Peak bytes any single definition needed.
    pub max_needed: u64,
}

/// Aggregated observations for one `(function, slot)` pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotStats {
    /// Definitions landing in the slot.
    pub defs: u64,
    /// Peak bytes any definition needed.
    pub peak_needed: u64,
    /// Peak bytes charged to the heap for the slot's block.
    pub peak_charged: u64,
}

/// The in-memory probe log: slot allocs, resizes, peak bytes and reads,
/// per slot per function, plus the heap-level timeline for Equation 2.
///
/// Keys are raw indices (`FuncId::index()`, `VarId::index()`,
/// `BlockId::index()`, slot index) so the recording side needs no
/// analysis types.
#[derive(Debug, Clone, Default)]
pub struct ShadowLog {
    /// Per-`(function, variable)` definition statistics.
    pub defs: BTreeMap<(usize, usize), DefStats>,
    /// Per-`(function, slot)` statistics.
    pub slots: BTreeMap<(usize, usize), SlotStats>,
    /// Observed slot reads: `(function, block, variable)`.
    pub reads: BTreeSet<(usize, usize, usize)>,
    /// `(clock, live heap bytes)` sampled immediately after every heap
    /// alloc / realloc / free — the piecewise-constant heap level.
    pub heap_events: Vec<(u64, u64)>,
    /// Function activations observed.
    pub frames: u64,
}

impl ShadowLog {
    /// An empty log.
    pub fn new() -> ShadowLog {
        ShadowLog::default()
    }

    /// Records a function activation.
    pub fn record_frame(&mut self) {
        self.frames += 1;
    }

    /// Records a definition of variable `var` into `slot` of function
    /// `func`, needing `needed` bytes with `charged` bytes now held.
    pub fn record_def(
        &mut self,
        func: usize,
        var: usize,
        slot: usize,
        needed: u64,
        charged: u64,
        action: DefAction,
    ) {
        let d = self.defs.entry((func, var)).or_default();
        d.defs += 1;
        d.max_needed = d.max_needed.max(needed);
        match action {
            DefAction::Alloc => d.allocs += 1,
            DefAction::Realloc => d.reallocs += 1,
            DefAction::Stack | DefAction::Reuse => {}
        }
        let s = self.slots.entry((func, slot)).or_default();
        s.defs += 1;
        s.peak_needed = s.peak_needed.max(needed);
        s.peak_charged = s.peak_charged.max(charged);
    }

    /// Records a read of slot-resident variable `var` in `block` of
    /// function `func`.
    pub fn record_read(&mut self, func: usize, block: usize, var: usize) {
        self.reads.insert((func, block, var));
    }

    /// Records the heap level right after an alloc / realloc / free.
    pub fn record_heap_event(&mut self, clock: u64, level: u64) {
        self.heap_events.push((clock, level));
    }

    /// Total definition events recorded.
    pub fn def_events(&self) -> u64 {
        self.defs.values().map(|d| d.defs).sum()
    }

    /// Equation 2's time-weighted average heap level, reconstructed
    /// from the logged piecewise-constant `(clock, level)` samples over
    /// `elapsed` logical ticks. Exact integer integration, mirroring
    /// `matc_runtime::mem::MemRecorder::avg_heap`.
    pub fn avg_heap(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return self.heap_events.last().map_or(0.0, |&(_, l)| l as f64);
        }
        let mut weight = 0u128;
        let (mut prev_t, mut prev_level) = (0u64, 0u64);
        for &(t, level) in &self.heap_events {
            weight += u128::from(t.saturating_sub(prev_t)) * u128::from(prev_level);
            prev_t = t;
            prev_level = level;
        }
        weight += u128::from(elapsed.saturating_sub(prev_t)) * u128::from(prev_level);
        weight as f64 / elapsed as f64
    }
}

/// Per-code finding counts of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowCounts {
    /// `∘` definitions observed resizing.
    pub s101: usize,
    /// Stack slots observed overflowing.
    pub s102: usize,
    /// `±` definitions that never resized.
    pub s103: usize,
    /// Slot reads outside the liveness facts.
    pub s104: usize,
    /// Equation 2 disagreements.
    pub s105: usize,
}

/// The outcome of diffing one run's [`ShadowLog`] against the plan.
#[derive(Debug, Clone)]
pub struct ShadowReport {
    /// S-code findings, in deterministic order.
    pub diags: Diagnostics,
    /// Finding counts by code.
    pub counts: ShadowCounts,
    /// Function activations observed.
    pub frames: u64,
    /// Definition events observed.
    pub defs: u64,
    /// Distinct `(function, block, variable)` reads observed.
    pub reads: u64,
    /// Heap alloc / realloc / free events observed.
    pub heap_events: u64,
    /// The VM's plan-violation counter for the run.
    pub plan_violations: u64,
    /// Equation 2 average heap recomputed from the log.
    pub avg_heap_observed: f64,
    /// Equation 2 average heap per the memory recorder.
    pub avg_heap_recorded: f64,
}

/// Replays a [`ShadowLog`] against the storage plan and the auditor's
/// dataflow facts, classifying every plan-vs-reality divergence.
///
/// `ssa` must be the optimized SSA program the plan was computed for —
/// the form *before* SSA inversion (see `compile_traced` in the VM
/// crate). Blocks and variables introduced by the inversion (split-edge
/// blocks, copy temporaries) fall outside it and are skipped by the
/// liveness cross-check.
#[must_use]
pub fn replay(
    ssa: &IrProgram,
    plans: &ProgramPlan,
    log: &ShadowLog,
    plan_violations: u64,
    avg_heap_recorded: f64,
    elapsed: u64,
) -> ShadowReport {
    let mut diags = Diagnostics::new();
    let mut counts = ShadowCounts::default();

    let name_of = |fi: usize, var: usize| -> String {
        let f = &ssa.functions[fi];
        if var < f.vars.len() {
            f.vars.display_name(VarId::new(var))
        } else {
            format!("v{var}")
        }
    };

    // S101 / S103: per-definition annotation vs observed resizes.
    for (&(fi, var), d) in &log.defs {
        let plan = &plans.plans[fi];
        let v = VarId::new(var);
        let Some(si) = plan.slot_of(v) else { continue };
        if !matches!(plan.slots[si].kind, SlotKind::Heap) {
            continue;
        }
        match plan.resize_of(v) {
            ResizeKind::NoResize if d.reallocs > 0 => {
                counts.s101 += 1;
                diags.error(
                    "S101",
                    &plan.func_name,
                    format!(
                        "`∘` definition of `{}` (slot {si}) observed resizing {} time(s) \
                         to {} bytes",
                        name_of(fi, var),
                        d.reallocs,
                        d.max_needed
                    ),
                    None,
                );
            }
            ResizeKind::Resize if d.defs > 0 && d.reallocs == 0 => {
                counts.s103 += 1;
                diags.warning(
                    "S103",
                    &plan.func_name,
                    format!(
                        "`±` definition of `{}` (slot {si}) never resized across the run \
                         ({} def(s), peak {} bytes) — precision headroom",
                        name_of(fi, var),
                        d.defs,
                        d.max_needed
                    ),
                    None,
                );
            }
            _ => {}
        }
    }

    // S102: observed peak bytes vs declared stack-slot capacity.
    for (&(fi, si), s) in &log.slots {
        let plan = &plans.plans[fi];
        if let SlotKind::Stack { bytes } = plan.slots[si].kind {
            if s.peak_needed > bytes {
                counts.s102 += 1;
                diags.error(
                    "S102",
                    &plan.func_name,
                    format!(
                        "stack slot {si} sized {bytes} bytes observed holding {} bytes",
                        s.peak_needed
                    ),
                    None,
                );
            }
        }
    }

    // S104: observed slot reads vs the auditor's liveness facts. A read
    // of `v` in block `b` is justified iff `v` is live into `b` or `b`
    // defines `v`; anything else means storage was touched outside the
    // live range the plan was audited against.
    let mut flows: BTreeMap<usize, AuditFlow> = BTreeMap::new();
    for &(fi, block, var) in &log.reads {
        let f = &ssa.functions[fi];
        if block >= f.blocks.len() || var >= f.vars.len() {
            continue; // introduced by SSA inversion; not in the audited CFG
        }
        let flow = flows
            .entry(fi)
            .or_insert_with(|| AuditFlow::compute(&ssa.functions[fi]));
        let b = BlockId::new(block);
        let v = VarId::new(var);
        let justified =
            flow.live_in_contains(b, v) || flow.def_site(v).is_some_and(|(db, _)| db == b);
        if !justified {
            counts.s104 += 1;
            diags.error(
                "S104",
                &ssa.functions[fi].name,
                format!(
                    "read of `{}` (slot {}) in {b} is outside the auditor's liveness facts",
                    name_of(fi, var),
                    plans.plans[fi].slot_of(v).unwrap_or(usize::MAX),
                ),
                None,
            );
        }
    }

    // S105: Equation 2 recomputed from the log vs the recorder.
    let avg_heap_observed = log.avg_heap(elapsed);
    let diff = (avg_heap_observed - avg_heap_recorded).abs();
    let scale = avg_heap_recorded.abs().max(1.0);
    if diff / scale > 1e-9 {
        counts.s105 += 1;
        diags.error(
            "S105",
            ssa.entry_func().name.clone(),
            format!(
                "Equation 2 average heap from the log is {avg_heap_observed:.3} bytes \
                 but the recorder integrated {avg_heap_recorded:.3} bytes"
            ),
            None,
        );
    }

    ShadowReport {
        diags,
        counts,
        frames: log.frames,
        defs: log.def_events(),
        reads: log.reads.len() as u64,
        heap_events: log.heap_events.len() as u64,
        plan_violations,
        avg_heap_observed,
        avg_heap_recorded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_gctd::{plan_program, GctdOptions};
    use matc_ir::build_ssa;
    use matc_typeinf::infer_program;

    fn planned(src: &str) -> (IrProgram, ProgramPlan) {
        let ast = parse_program([src]).unwrap();
        let ir = build_ssa(&ast).unwrap();
        let mut types = infer_program(&ir);
        let plans = plan_program(&ir, &mut types, GctdOptions::default());
        (ir, plans)
    }

    #[test]
    fn empty_log_is_clean() {
        let (ir, plans) = planned("function f()\nfprintf('%d\\n', 1);\n");
        let log = ShadowLog::new();
        let r = replay(&ir, &plans, &log, 0, 0.0, 0);
        assert!(r.diags.is_empty(), "{}", r.diags.render());
        assert_eq!(r.counts, ShadowCounts::default());
    }

    #[test]
    fn eq2_reconstruction_integrates_piecewise() {
        let mut log = ShadowLog::new();
        // level 100 over [10, 30), level 40 over [30, 50): (20*100 +
        // 20*40) / 50 = 56.
        log.record_heap_event(10, 100);
        log.record_heap_event(30, 40);
        log.record_heap_event(50, 0);
        assert!((log.avg_heap(50) - 56.0).abs() < 1e-12);
        // A disagreement is S105.
        let (ir, plans) = planned("function f()\nfprintf('%d\\n', 1);\n");
        let r = replay(&ir, &plans, &log, 0, 99.0, 50);
        assert_eq!(r.counts.s105, 1);
        assert!(r.diags.has_errors());
    }

    #[test]
    fn observed_resize_of_noresize_def_is_s101() {
        // `a = rand(3, 3)` gets a statically-estimable (`∘`-style)
        // definition; claim it realloc'd.
        let (ir, plans) = planned("function f()\na = rand(3, 3);\ndisp(a(1));\n");
        let (fi, v, si) = plans
            .plans
            .iter()
            .enumerate()
            .flat_map(|(fi, p)| {
                p.var_slot.iter().filter_map(move |(v, si)| {
                    (p.resize_of(*v) == ResizeKind::NoResize
                        && matches!(p.slots[*si].kind, SlotKind::Heap))
                    .then_some((fi, *v, *si))
                })
            })
            .next()
            // All-stack plan: force one heap slot for the test.
            .unwrap_or((0, VarId::new(0), 0));
        let mut plans = plans;
        // Ensure the variable is a heap `∘` definition regardless of
        // what the planner chose.
        plans.plans[fi].slots[si].kind = SlotKind::Heap;
        plans.plans[fi].resize.insert(v, ResizeKind::NoResize);
        plans.plans[fi].var_slot.insert(v, si);
        let mut log = ShadowLog::new();
        log.record_def(fi, v.index(), si, 72, 88, DefAction::Alloc);
        log.record_def(fi, v.index(), si, 144, 160, DefAction::Realloc);
        let r = replay(&ir, &plans, &log, 1, 0.0, 0);
        assert_eq!(r.counts.s101, 1, "{}", r.diags.render());
        assert!(r.diags.has_errors());
    }

    #[test]
    fn never_resizing_pm_def_is_s103() {
        let (ir, mut plans) = planned("function f()\na = rand(3, 3);\ndisp(a(1));\n");
        let (fi, v, si) = (0usize, VarId::new(0), 0usize);
        plans.plans[fi].slots[si].kind = SlotKind::Heap;
        plans.plans[fi].resize.insert(v, ResizeKind::Resize);
        plans.plans[fi].var_slot.insert(v, si);
        let mut log = ShadowLog::new();
        log.record_def(fi, v.index(), si, 72, 88, DefAction::Alloc);
        let r = replay(&ir, &plans, &log, 0, 0.0, 0);
        assert_eq!(r.counts.s103, 1, "{}", r.diags.render());
        assert!(!r.diags.has_errors(), "S103 is lint-level");
    }

    #[test]
    fn stack_overflow_is_s102_and_bogus_read_is_s104() {
        let (ir, plans) = planned("function f()\na = rand(3, 3);\ndisp(a(1));\n");
        let Some((fi, si, bytes)) = plans.plans.iter().enumerate().find_map(|(fi, p)| {
            p.slots.iter().enumerate().find_map(|(si, s)| match s.kind {
                SlotKind::Stack { bytes } => Some((fi, si, bytes)),
                SlotKind::Heap => None,
            })
        }) else {
            panic!("expected a stack slot for rand(3, 3)");
        };
        let member = plans.plans[fi].slots[si].members[0];
        let mut log = ShadowLog::new();
        log.record_def(fi, member.index(), si, bytes + 8, 0, DefAction::Stack);
        // Read in a block that cannot justify it: the function has one
        // or two blocks; a var read where it is neither live-in nor
        // defined. Use the entry block with a variable defined later —
        // or simply a read of `member` in a block where it is dead.
        // Find a block where `member` is not live-in and not defined.
        let flow = AuditFlow::compute(&ir.functions[fi]);
        let dead_block = ir.functions[fi]
            .block_ids()
            .find(|b| {
                !flow.live_in_contains(*b, member)
                    && flow.def_site(member).is_none_or(|(db, _)| db != *b)
            })
            .expect("some block must not contain the live range");
        log.record_read(fi, dead_block.index(), member.index());
        let r = replay(&ir, &plans, &log, 1, 0.0, 0);
        assert_eq!(r.counts.s102, 1, "{}", r.diags.render());
        assert_eq!(r.counts.s104, 1, "{}", r.diags.render());
        assert!(r.diags.has_errors());
    }
}
