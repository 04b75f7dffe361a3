//! The GCTD-planned VM — the `mat2c` execution model.
//!
//! Storage follows the [`StoragePlan`]: each function activation carries
//! a fixed **stack frame** holding every stack slot at its maximal group
//! size (§3.2.1), plus **heap slots** resized on the fly per the `∘`/`+`/
//! `±` definition annotations (§3.2.2). Variables bound to the same slot
//! genuinely share one buffer: elementwise updates whose destination
//! shares its operand's slot mutate the buffer in place (Figure 1's
//! specialization), and `subsasgn` grows within the slot.
//!
//! Execution is table-driven: [`PlannedVm::new`] resolves, once per
//! function, every variable to a dense cell index (planned slots first,
//! then one cell per unplanned immediate or temporary), every definition
//! to its resize annotation and every call site to its callee.
//!
//! It also decodes **typed steps**, as the C backend emits `double`
//! expressions: an instruction whose destination is a proven scalar
//! ([`StoragePlan::scalars`]) and whose operands are proven scalars or
//! numeric literals runs as a pre-decoded step over cell indices, with
//! its literals baked in and its scalar kernel chosen once
//! (`dispatch::ScalarKernel`). A step reads and writes element 0 of
//! its cells' values, so the generic ops, shadow probes and Equation 2
//! see one storage. A run of typed steps charges its clock ticks in one
//! [`MemRecorder::advance`] (the integration is linear, so Equation 2 is
//! bit-identical), and a literal's `Const` that only typed steps read is
//! a tick only. A step that misses at run time (an unset cell, a power
//! that would go complex, an out-of-range or fractional subscript)
//! leaves its instruction to the generic path, which owns every error.
//!
//! On the generic path, results that are real scalars, scalar-subscript
//! `subsasgn`s, copies and array indexing are written into the
//! destination cell's existing buffer, and Figure 1's in-place update
//! picks its elementwise kernel once per op; everything else goes
//! through [`dispatch::eval_op`] (DESIGN.md §16, §17).
//!
//! Soundness telemetry: if a definition ever needs more bytes than a
//! `∘`-annotated slot holds (which a correct plan rules out), the VM
//! grows the slot anyway, counts a **plan violation**, and fails the
//! run with a hard error once output is collected. Under
//! [`PlannedVm::with_shadow`] the VM instead *observes*: every slot
//! definition, read and heap event is appended to a
//! [`ShadowLog`] for the plan-vs-reality
//! replay (`matc shadow`), and violations are reported, not fatal.

use crate::compile::Compiled;
use crate::dispatch::{self, Arg, ScalarKernel, Shared};
use matc_analysis::shadow::{DefAction, ShadowLog};
use matc_frontend::ast::BinOp;
use matc_gctd::{ResizeKind, SlotKind, StoragePlan};
use matc_ir::ids::{FuncId, VarId};
use matc_ir::instr::{Const, InstrKind, Op, Operand, Terminator};
use matc_ir::{Builtin, FuncIr, Instr, IrProgram};
use matc_runtime::error::{err, Result};
use matc_runtime::format;
use matc_runtime::mem::{ImageModel, MemRecorder};
use matc_runtime::ops::{arith, index};
use matc_runtime::value::{Class, Value};

/// Operands the allocation-free path gathers at most (a 3-D
/// `subsasgn` takes five).
const FAST_ARGS: usize = 5;

/// A call site's callee, resolved once per executor.
#[derive(Debug, Clone, Copy)]
enum Callee {
    /// A user function.
    User(FuncId),
    /// A builtin (multi-output call sites only).
    Builtin(Builtin),
    /// Not a call, or a call to nothing the program defines.
    Undefined,
}

/// One function's dense tables, indexed by [`VarId`] or by instruction.
#[derive(Debug)]
struct FuncTable {
    /// Each variable's cell: its planned slot (cells `0..plan.slots.len()`),
    /// or a cell of its own past the slots for an unplanned immediate or
    /// temporary.
    cell: Vec<usize>,
    /// Each variable's resize annotation (meaningful for heap slots).
    resize: Vec<ResizeKind>,
    /// Cells per activation.
    cells: usize,
    /// Bytes one activation pushes on the stack.
    frame_bytes: u64,
    /// Index of each block's first instruction in `callees` and `steps`.
    block_base: Vec<usize>,
    /// The callee of every instruction (`Undefined` for non-calls).
    callees: Vec<Callee>,
    /// Every instruction's decoded step.
    steps: Vec<Step>,
    /// Each block's branch condition when it is typed.
    branch: Vec<Option<Src>>,
    /// The value of each literal whose `Const` only ticks: a typed step
    /// that misses writes it into its cell before the generic path runs.
    elided: Vec<Option<(f64, Class)>>,
}

impl FuncTable {
    fn new(func: &FuncIr, plan: &StoragePlan, ir: &IrProgram) -> FuncTable {
        let vars = || (0..func.vars.len()).map(VarId::new);
        let mut cells = plan.slots.len();
        let cell: Vec<usize> = vars()
            .map(|v| {
                plan.slot_of(v).unwrap_or_else(|| {
                    cells += 1;
                    cells - 1
                })
            })
            .collect();
        let resize = vars().map(|v| plan.resize_of(v)).collect();
        let frame_bytes = plan
            .slots
            .iter()
            .map(|s| match s.kind {
                SlotKind::Stack { bytes } => bytes,
                SlotKind::Heap => 0,
            })
            .sum::<u64>()
            + 96; // saved registers, return address, locals
        let user = |name: &str| ir.by_name.get(name).map(|f| Callee::User(*f));
        let mut block_base = Vec::with_capacity(func.blocks.len());
        let mut callees = Vec::new();
        for b in &func.blocks {
            block_base.push(callees.len());
            callees.extend(b.instrs.iter().map(|i| {
                match &i.kind {
                    InstrKind::Compute {
                        op: Op::Call(name), ..
                    } => user(name),
                    InstrKind::CallMulti { func: name, .. } => {
                        user(name).or_else(|| Builtin::from_name(name).map(Callee::Builtin))
                    }
                    _ => None,
                }
                .unwrap_or(Callee::Undefined)
            }));
        }
        let decoded = Decoder::new(func, plan, &cell).decode();
        FuncTable {
            cell,
            resize,
            cells,
            frame_bytes,
            block_base,
            callees,
            steps: decoded.steps,
            branch: decoded.branch,
            elided: decoded.elided,
        }
    }
}

/// An operand of a typed step: a typed scalar's cell, or a numeric
/// literal baked into the step.
#[derive(Debug, Clone, Copy)]
enum Src {
    Cell(usize),
    Lit(f64, Class),
}

/// The operand slot a step does not read.
const NONE: Src = Src::Lit(0.0, Class::Double);

/// The real scalar an operand holds and its class; `None` when its cell
/// is unset or holds anything but a real 1×1.
#[inline]
fn read(cells: &[Cell], s: Src) -> Option<(f64, Class)> {
    match s {
        Src::Lit(x, class) => Some((x, class)),
        Src::Cell(c) => {
            let v = cells[c].value.as_ref()?;
            Some((v.as_scalar()?, v.class()))
        }
    }
}

/// Up to three scalar subscripts as reals; `None` when one misses or is
/// logical (a mask, not a position).
#[inline]
fn subscripts(cells: &[Cell], subs: &[Src]) -> Option<[f64; 3]> {
    let mut xs = [0.0; 3];
    for (x, s) in xs.iter_mut().zip(subs) {
        match read(cells, *s)? {
            (_, Class::Logical) => return None,
            (v, _) => *x = v,
        }
    }
    Some(xs)
}

/// One instruction as [`FuncTable::new`] decoded it. A typed step reads
/// and writes element 0 of its cells' values over variables the plan
/// proves to be real 1×1 scalars in stack slots
/// ([`StoragePlan::scalars`]) and numeric literals, the instructions the
/// C backend writes as `double` expressions; anything it cannot finish
/// at run time goes to the generic path.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Runs on the generic path.
    Generic,
    /// The `Const` of a literal that only typed steps read: one tick.
    Tick,
    /// `dst = k(xs)` over typed scalars and literals. A numeric `Const`
    /// into a typed scalar or a literal's cell, and a copy into a typed
    /// scalar, are `ScalarKernel::Same` of one operand.
    Scalar {
        dst: usize,
        var: VarId,
        k: ScalarKernel,
        xs: [Src; 3],
    },
    /// `dst = a(subs)`: scalar subscripts into a real array.
    Get {
        dst: usize,
        var: VarId,
        array: usize,
        subs: [Src; 3],
        n: usize,
    },
    /// `a(subs) = x` in place: the destination shares the array's slot.
    Set {
        dst: usize,
        var: VarId,
        x: Src,
        subs: [Src; 3],
        n: usize,
    },
}

/// The steps [`Decoder::decode`] produces for one function.
struct Decoded {
    steps: Vec<Step>,
    branch: Vec<Option<Src>>,
    elided: Vec<Option<(f64, Class)>>,
}

/// Decodes one function's typed steps.
struct Decoder<'a> {
    func: &'a FuncIr,
    cell: &'a [usize],
    /// Planned slots (cells below this index).
    slots: usize,
    /// Per variable: whether it is a typed scalar.
    typed: Vec<bool>,
    /// Per variable: its value when it is a numeric literal (an
    /// unplanned variable whose one definition is a numeric `Const`).
    lits: Vec<Option<(f64, Class)>>,
}

/// The value and class of a numeric or logical constant.
fn numeric(c: &Const) -> Option<(f64, Class)> {
    match c {
        Const::Num(x) => Some((*x, Class::Double)),
        Const::Bool(b) => Some((f64::from(u8::from(*b)), Class::Logical)),
        _ => None,
    }
}

impl<'a> Decoder<'a> {
    fn new(func: &'a FuncIr, plan: &StoragePlan, cell: &'a [usize]) -> Self {
        let n = func.vars.len();
        let mut typed = vec![false; n];
        for v in plan.scalars.iter().filter(|v| v.index() < n) {
            // A stack slot that holds one element of its type: the
            // generic path's size check can never fire.
            typed[v.index()] = plan.slot_of(*v).is_some_and(|s| {
                let slot = &plan.slots[s];
                matches!(slot.kind, SlotKind::Stack { bytes } if bytes >= slot.intrinsic.byte_size())
            });
        }
        let mut defs = vec![0u32; n];
        let mut lits = vec![None; n];
        for instr in func.blocks.iter().flat_map(|b| &b.instrs) {
            for d in instr.defs() {
                defs[d.index()] += 1;
            }
            if let InstrKind::Const { dst, value } = &instr.kind {
                if plan.slot_of(*dst).is_none() {
                    lits[dst.index()] = numeric(value);
                }
            }
        }
        for (lit, d) in lits.iter_mut().zip(&defs) {
            if *d != 1 {
                *lit = None;
            }
        }
        Decoder {
            func,
            cell,
            slots: plan.slots.len(),
            typed,
            lits,
        }
    }

    /// A typed scalar or literal operand.
    fn src(&self, o: &Operand) -> Option<Src> {
        let v = o.as_var()?;
        if self.typed[v.index()] {
            Some(Src::Cell(self.cell[v.index()]))
        } else {
            self.lits[v.index()].map(|(x, class)| Src::Lit(x, class))
        }
    }

    /// One to three scalar subscripts.
    fn subs(&self, subs: &[Operand]) -> Option<([Src; 3], usize)> {
        if !(1..=3).contains(&subs.len()) {
            return None;
        }
        let mut out = [NONE; 3];
        for (o, s) in out.iter_mut().zip(subs) {
            *o = self.src(s)?;
        }
        Some((out, subs.len()))
    }

    fn step(&self, instr: &Instr) -> Step {
        let same = |var: VarId, x: Src| Step::Scalar {
            dst: self.cell[var.index()],
            var,
            k: ScalarKernel::Same,
            xs: [x, NONE, NONE],
        };
        let step = match &instr.kind {
            InstrKind::Const { dst, value }
                if self.typed[dst.index()] || self.lits[dst.index()].is_some() =>
            {
                numeric(value).map(|(x, class)| same(*dst, Src::Lit(x, class)))
            }
            InstrKind::Copy { dst, src } if self.typed[dst.index()] => {
                self.src(&Operand::Var(*src)).map(|x| same(*dst, x))
            }
            InstrKind::Compute { dst, op, args } => self.compute(*dst, op, args),
            _ => None,
        };
        step.unwrap_or(Step::Generic)
    }

    fn compute(&self, dst: VarId, op: &Op, args: &[Operand]) -> Option<Step> {
        let (var, cell) = (dst, self.cell[dst.index()]);
        match (op, args) {
            (Op::Subsasgn, [Operand::Var(base), x, subs @ ..])
                if cell < self.slots && self.cell[base.index()] == cell =>
            {
                let (subs, n) = self.subs(subs)?;
                Some(Step::Set {
                    dst: cell,
                    var,
                    x: self.src(x)?,
                    subs,
                    n,
                })
            }
            (Op::Subsref, [Operand::Var(array), subs @ ..]) if self.typed[dst.index()] => {
                let (subs, n) = self.subs(subs)?;
                Some(Step::Get {
                    dst: cell,
                    var,
                    array: self.cell[array.index()],
                    subs,
                    n,
                })
            }
            _ if self.typed[dst.index()] => {
                let (k, reads) = ScalarKernel::of(op, args.len())?;
                let mut xs = [NONE; 3];
                for (x, &i) in xs.iter_mut().zip(reads) {
                    *x = self.src(&args[i])?;
                }
                Some(Step::Scalar {
                    dst: cell,
                    var,
                    k,
                    xs,
                })
            }
            _ => None,
        }
    }

    fn decode(self) -> Decoded {
        let func = self.func;
        // Literals whose cell some generic read needs.
        let mut needed = vec![false; func.vars.len()];
        let mut steps = Vec::new();
        for instr in func.blocks.iter().flat_map(|b| &b.instrs) {
            let step = self.step(instr);
            match (step, &instr.kind) {
                (Step::Generic, _) => instr.uses().iter().for_each(|v| needed[v.index()] = true),
                // The array operand is read from its cell.
                (Step::Get { .. }, InstrKind::Compute { args, .. }) => {
                    if let Some(v) = args[0].as_var() {
                        needed[v.index()] = true;
                    }
                }
                _ => {}
            }
            steps.push(step);
        }
        let outs = if func.ssa_outs.is_empty() {
            &func.outs
        } else {
            &func.ssa_outs
        };
        outs.iter().for_each(|v| needed[v.index()] = true);
        let branch = (func.blocks.iter())
            .map(|b| {
                let cond = b.term.used_var()?;
                let src = self.src(&Operand::Var(cond));
                needed[cond.index()] |= src.is_none();
                src
            })
            .collect();
        let mut elided = vec![None; func.vars.len()];
        for step in &mut steps {
            if let Step::Scalar {
                var,
                xs: [Src::Lit(x, class), ..],
                ..
            } = *step
            {
                if self.lits[var.index()].is_some() && !needed[var.index()] {
                    elided[var.index()] = Some((x, class));
                    *step = Step::Tick;
                }
            }
        }
        Decoded {
            steps,
            branch,
            elided,
        }
    }
}

/// One storage cell of an activation.
#[derive(Debug, Default)]
struct Cell {
    /// The current value; `None` until a definition writes the cell.
    value: Option<Value>,
    /// Bytes charged to the heap for this cell (0 for stack slots,
    /// unallocated heap slots and unplanned cells).
    charged: u64,
}

/// What an activation executes: its function, plan and tables, plus
/// every function's tables for calls.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    func: &'a FuncIr,
    plan: &'a StoragePlan,
    table: &'a FuncTable,
    tables: &'a [FuncTable],
}

/// Borrows the current value of `v` from its cell — the zero-copy read
/// path.
fn value<'c>(cells: &'c [Cell], t: &FuncTable, v: VarId) -> Result<&'c Value> {
    match &cells[t.cell[v.index()]].value {
        Some(val) => Ok(val),
        None => err(format!("read of unset variable v{} (planned vm)", v.0)),
    }
}

/// Writes a real scalar into a cell, reusing its buffer.
fn put_scalar(cell: &mut Cell, x: f64, class: Class) {
    match &mut cell.value {
        Some(v) => v.set_scalar(x, class),
        None => cell.value = Some(Value::scalar(x).with_class(class)),
    }
}

/// Writes the value of `v`, when it is a literal whose `Const` only
/// ticked, into its cell for the generic path to read.
fn materialize(t: &FuncTable, cells: &mut [Cell], v: VarId) {
    if let Some((x, class)) = t.elided[v.index()] {
        put_scalar(&mut cells[t.cell[v.index()]], x, class);
    }
}

/// Copies cell `src`'s value into cell `dst`, reusing `dst`'s buffers.
fn copy_cell(cells: &mut [Cell], dst: usize, src: usize) {
    let mut out = cells[dst].value.take();
    out.clone_from(&cells[src].value);
    cells[dst].value = out;
}

/// Figure 1's in-place update `dst = dst b rhs` for `+ - .* ./` (and
/// `*`, `/` against a scalar), with the kernel chosen once per op so
/// the element loop is inlined with it; `false` when
/// [`arith::ew_assign`] declines.
fn ew_in_place(b: BinOp, dst: &mut Value, rhs: &Value) -> bool {
    match b {
        BinOp::Add => arith::ew_assign(dst, rhs, |x, y| x + y),
        BinOp::Sub => arith::ew_assign(dst, rhs, |x, y| x - y),
        BinOp::ElemMul | BinOp::MatMul => arith::ew_assign(dst, rhs, |x, y| x * y),
        BinOp::ElemDiv | BinOp::MatDiv => arith::ew_assign(dst, rhs, |x, y| x / y),
        _ => false,
    }
}

/// The result of the allocation-free path.
enum Fast {
    /// A real scalar and its class.
    Scalar(f64, Class),
    /// `subsasgn` storing one real element at a linear index of an
    /// array of `numel` elements.
    Assign { index: usize, x: f64, numel: usize },
}

/// The planned executor.
pub struct PlannedVm<'p> {
    compiled: &'p Compiled,
    /// Per-function dense tables, indexed by [`FuncId`].
    tables: Vec<FuncTable>,
    /// Shared RNG + output.
    pub shared: Shared,
    /// Memory accounting under the mat2c image model.
    pub mem: MemRecorder,
    /// Definitions that outgrew a `∘` annotation or a stack slot —
    /// zero for a sound plan.
    pub plan_violations: u64,
    call_depth: usize,
    /// When observing, the probe log (`None` disables all recording).
    shadow: Option<ShadowLog>,
    /// Index of the currently-executing function (for probe events).
    cur_func: usize,
    /// Index of the currently-executing block (for probe events).
    cur_block: usize,
    /// Cell vectors of returned activations, reused by later calls.
    spare: Vec<Vec<Cell>>,
}

impl<'p> PlannedVm<'p> {
    /// Creates an executor over a compiled program.
    pub fn new(compiled: &'p Compiled) -> PlannedVm<'p> {
        let ir = &compiled.ir;
        let tables = ir
            .functions
            .iter()
            .zip(&compiled.plans.plans)
            .map(|(f, p)| FuncTable::new(f, p, ir))
            .collect();
        PlannedVm {
            compiled,
            tables,
            shared: Shared::new(),
            mem: MemRecorder::new(ImageModel::mat2c()),
            plan_violations: 0,
            call_depth: 0,
            shadow: None,
            cur_func: 0,
            cur_block: 0,
            spare: Vec::new(),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.shared = Shared::with_seed(seed);
        self
    }

    /// Enables shadow observation: slot definitions, reads and heap
    /// events are recorded into a [`ShadowLog`], and plan violations
    /// are counted instead of failing the run.
    pub fn with_shadow(mut self) -> Self {
        self.shadow = Some(ShadowLog::new());
        self
    }

    /// The typed steps [`PlannedVm::new`] decoded for function `f`:
    /// `(block index, Some(instruction index))` per instruction and
    /// `(block index, None)` per typed branch test, the form of
    /// `matc_codegen::typed_sites`.
    #[doc(hidden)]
    pub fn typed_sites(&self, f: FuncId) -> Vec<(usize, Option<usize>)> {
        let t = &self.tables[f.index()];
        let mut sites = Vec::new();
        for (b, &base) in t.block_base.iter().enumerate() {
            let end = t.block_base.get(b + 1).copied().unwrap_or(t.steps.len());
            let typed = (base..end).filter(|&at| !matches!(t.steps[at], Step::Generic));
            sites.extend(typed.map(|at| (b, Some(at - base))));
            if t.branch[b].is_some() {
                sites.push((b, None));
            }
        }
        sites
    }

    /// Takes the probe log recorded by a [`PlannedVm::with_shadow`]
    /// run (`None` if observation was never enabled).
    pub fn take_shadow(&mut self) -> Option<ShadowLog> {
        self.shadow.take()
    }

    /// Runs the entry function; returns the collected output.
    ///
    /// # Errors
    ///
    /// Propagates run-time errors — including, outside shadow mode, a
    /// hard error when any definition violated the storage plan (a `∘`
    /// slot resized or a stack slot overflowed): a violated plan means
    /// the generated C would have corrupted memory, so the run cannot
    /// be trusted in any build profile.
    pub fn run(&mut self) -> Result<String> {
        let entry = self.compiled.entry();
        // The tables are read while `self` is mutated: hold them aside.
        let tables = std::mem::take(&mut self.tables);
        let result = self.call(&tables, entry, vec![]);
        self.tables = tables;
        result?;
        let out = std::mem::take(&mut self.shared.out);
        if self.plan_violations > 0 && self.shadow.is_none() {
            return err(format!(
                "storage plan violated {} time(s) at run time (a `∘` slot resized or a \
                 stack slot overflowed); the plan is unsound for this execution",
                self.plan_violations
            ));
        }
        Ok(out)
    }

    fn call(&mut self, tables: &[FuncTable], fid: FuncId, args: Vec<Value>) -> Result<Vec<Value>> {
        self.call_depth += 1;
        // MATLAB's default RecursionLimit is 100; enforcing it also
        // bounds the host stack in debug builds.
        if self.call_depth > 100 {
            self.call_depth -= 1;
            return err("maximum recursion depth exceeded");
        }
        let func = self.compiled.ir.func(fid);
        let cx = Ctx {
            func,
            plan: self.compiled.plans.plan(fid),
            table: &tables[fid.index()],
            tables,
        };
        let (saved_func, saved_block) = (self.cur_func, self.cur_block);
        self.cur_func = fid.index();
        self.cur_block = func.entry.index();
        if let Some(log) = self.shadow.as_mut() {
            log.record_frame();
        }

        // Build the activation: one fixed stack frame for all stack
        // slots, heap slots start unallocated.
        self.mem.stack_push(cx.table.frame_bytes);
        let mut cells = self.spare.pop().unwrap_or_default();
        cells.resize_with(cx.table.cells, Cell::default);
        // Bind parameters.
        for (p, v) in func.params.iter().zip(args) {
            self.store(cx, &mut cells, *p, v);
        }

        let result = self.exec(cx, &mut cells);

        // Tear down: free heap slots, pop the stack frame.
        for c in &cells[..cx.plan.slots.len()] {
            if c.charged > 0 {
                self.mem.heap_free(c.charged);
                let (t, level) = (self.mem.elapsed(), self.mem.live_heap());
                if let Some(log) = self.shadow.as_mut() {
                    log.record_heap_event(t, level);
                }
            }
        }
        self.mem.stack_pop(cx.table.frame_bytes);
        cells.clear();
        self.spare.push(cells);
        self.call_depth -= 1;
        self.cur_func = saved_func;
        self.cur_block = saved_block;
        result
    }

    fn exec(&mut self, cx: Ctx<'_>, cells: &mut [Cell]) -> Result<Vec<Value>> {
        let (func, t) = (cx.func, cx.table);
        let mut block = func.entry;
        let mut guard = 0u64;
        // Clock ticks not yet charged: a run of typed steps is one
        // `advance`, which is exact because the Equation 2 integration is
        // linear in time. Flushed before anything that reads the clock.
        let mut ticks = 0u64;
        loop {
            guard += 1;
            if guard > 500_000_000 {
                self.flush(&mut ticks);
                return err("execution exceeded the instruction guard");
            }
            self.cur_block = block.index();
            let base = t.block_base[block.index()];
            for (i, instr) in func.block(block).instrs.iter().enumerate() {
                let step = t.steps[base + i];
                if !self.typed(cx, cells, step, instr, &mut ticks) {
                    self.flush(&mut ticks);
                    if !matches!(step, Step::Generic) {
                        instr.uses().iter().for_each(|v| materialize(t, cells, *v));
                    }
                    self.instr(cx, cells, instr, base + i)?;
                }
            }
            match &func.block(block).term {
                Terminator::Jump(b) => block = *b,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    // A literal test never misses, so its cell is never
                    // read here.
                    let truth = match t.branch[block.index()].and_then(|s| read(cells, s)) {
                        Some((x, _)) => x != 0.0,
                        None => {
                            self.flush(&mut ticks);
                            value(cells, t, *cond)?.is_true()
                        }
                    };
                    self.note_read(cx, *cond);
                    ticks += 1;
                    block = if truth { *then_bb } else { *else_bb };
                }
                Terminator::Return => {
                    self.flush(&mut ticks);
                    let outs = if func.ssa_outs.is_empty() {
                        &func.outs
                    } else {
                        &func.ssa_outs
                    };
                    let mut vals = Vec::with_capacity(outs.len());
                    for (k, o) in outs.iter().enumerate() {
                        let c = t.cell[o.index()];
                        if cells[c].value.is_some() {
                            self.note_read(cx, *o);
                        }
                        // The frame dies here: move each result out,
                        // unless a later output reads the same cell.
                        let later = outs[k + 1..].iter().any(|p| t.cell[p.index()] == c);
                        let v = if later {
                            cells[c].value.clone()
                        } else {
                            cells[c].value.take()
                        };
                        vals.push(v.unwrap_or_else(Value::empty));
                    }
                    return Ok(vals);
                }
            }
        }
    }

    /// Charges the pending clock ticks.
    fn flush(&mut self, ticks: &mut u64) {
        if *ticks > 0 {
            self.mem.advance(*ticks);
            *ticks = 0;
        }
    }

    /// Runs a typed step, adding its clock ticks to `ticks`. Returns
    /// `false`, having changed nothing, when the generic path must run
    /// the instruction: it is not typed, or its operands miss at run
    /// time (an unset cell, a power that would go complex, a subscript
    /// out of range or fractional). Under shadow observation it records
    /// the events the generic path records.
    #[inline]
    fn typed(
        &mut self,
        cx: Ctx<'_>,
        cells: &mut [Cell],
        step: Step,
        instr: &Instr,
        ticks: &mut u64,
    ) -> bool {
        let (dst, var, (x, class)) = match step {
            Step::Generic => return false,
            Step::Tick => {
                *ticks += 1;
                return true;
            }
            Step::Scalar { dst, var, k, xs } => {
                let [a, b, c] = xs.map(|s| read(cells, s));
                let (Some((a, class0)), Some((b, _)), Some((c, _))) = (a, b, c) else {
                    return false;
                };
                match k.apply([a, b, c], class0) {
                    Some(r) => (dst, var, r),
                    None => return false,
                }
            }
            Step::Get {
                dst,
                var,
                array,
                subs,
                n,
            } => {
                let (Some(a), Some(xs)) = (&cells[array].value, subscripts(cells, &subs[..n]))
                else {
                    return false;
                };
                match dispatch::linear_index(a, &xs[..n]) {
                    Some(i) if !a.is_complex() => (dst, var, (a.re()[i], a.class())),
                    _ => return false,
                }
            }
            Step::Set {
                dst,
                var,
                x,
                subs,
                n,
            } => {
                let (Some((x, _)), Some(xs)) = (read(cells, x), subscripts(cells, &subs[..n]))
                else {
                    return false;
                };
                let Some(a) = cells[dst].value.as_mut().filter(|a| !a.is_complex()) else {
                    return false;
                };
                let Some(i) = dispatch::linear_index(a, &xs[..n]) else {
                    return false;
                };
                a.re_mut()[i] = x;
                let numel = a.numel();
                if let (Some(_), InstrKind::Compute { args, .. }) = (&self.shadow, &instr.kind) {
                    args[1..]
                        .iter()
                        .filter_map(|a| a.as_var())
                        .for_each(|v| self.note_read(cx, v));
                }
                *ticks += numel as u64;
                // A heap slot's definition reads the clock.
                if matches!(cx.plan.slots[dst].kind, SlotKind::Heap) {
                    self.flush(ticks);
                }
                self.define(cx, cells, var, numel, None);
                return true;
            }
        };
        *ticks += 1;
        if self.shadow.is_some() {
            if let InstrKind::Copy { src, .. } = &instr.kind {
                self.note_read(cx, *src);
            }
            self.define(cx, cells, var, 1, None);
        }
        put_scalar(&mut cells[dst], x, class);
        true
    }

    /// Charges a definition of `v` — `numel` elements, plus its payload
    /// bytes when complex — to `v`'s slot under the slot discipline and
    /// resize annotation, records it for the shadow log, and returns the
    /// cell the value goes to. The caller writes the value.
    fn define(
        &mut self,
        cx: Ctx<'_>,
        cells: &mut [Cell],
        v: VarId,
        numel: usize,
        complex_bytes: Option<u64>,
    ) -> usize {
        let si = cx.table.cell[v.index()];
        if si >= cx.plan.slots.len() {
            return si;
        }
        // Size under the *planned* element type — the C backend declares
        // BOOLEAN arrays as 1-byte, INTEGER as 4-byte, etc. (§3.2). A
        // complex value landing in a non-complex slot is a plan bug.
        let info = &cx.plan.slots[si];
        let needed = match complex_bytes {
            Some(bytes) if !info.intrinsic.is_complex() => {
                self.plan_violations += 1;
                bytes
            }
            _ => numel as u64 * info.intrinsic.byte_size(),
        };
        let slot = &mut cells[si];
        let action = match info.kind {
            SlotKind::Stack { bytes } => {
                if needed > bytes {
                    self.plan_violations += 1;
                }
                DefAction::Stack
            }
            SlotKind::Heap => match cx.table.resize[v.index()] {
                _ if slot.charged == 0 => {
                    slot.charged = self.mem.heap_alloc(needed);
                    DefAction::Alloc
                }
                ResizeKind::NoResize if needed > slot.charged => {
                    self.plan_violations += 1;
                    slot.charged = self.mem.heap_realloc(slot.charged, needed);
                    DefAction::Realloc
                }
                ResizeKind::Grow if needed + matc_runtime::mem::BLOCK_OVERHEAD > slot.charged => {
                    slot.charged = self.mem.heap_realloc(slot.charged, needed);
                    DefAction::Realloc
                }
                ResizeKind::Resize
                    if slot.charged != needed + matc_runtime::mem::BLOCK_OVERHEAD =>
                {
                    slot.charged = self.mem.heap_realloc(slot.charged, needed);
                    DefAction::Realloc
                }
                _ => DefAction::Reuse,
            },
        };
        let fi = self.cur_func;
        let charged = slot.charged;
        let (t, level) = (self.mem.elapsed(), self.mem.live_heap());
        if let Some(log) = self.shadow.as_mut() {
            log.record_def(fi, v.index(), si, needed, charged, action);
            if matches!(action, DefAction::Alloc | DefAction::Realloc) {
                log.record_heap_event(t, level);
            }
        }
        si
    }

    /// Stores `value` as the new definition of `v`, applying the slot
    /// discipline and resize annotations.
    fn store(&mut self, cx: Ctx<'_>, cells: &mut [Cell], v: VarId, value: Value) {
        let complex_bytes = value.is_complex().then(|| value.payload_bytes());
        let c = self.define(cx, cells, v, value.numel(), complex_bytes);
        cells[c].value = Some(value);
    }

    /// Records a read of `v` for the shadow log (planned variables only).
    fn note_read(&mut self, cx: Ctx<'_>, v: VarId) {
        if let Some(log) = self.shadow.as_mut() {
            if cx.table.cell[v.index()] < cx.plan.slots.len() {
                log.record_read(self.cur_func, self.cur_block, v.index());
            }
        }
    }

    fn instr(&mut self, cx: Ctx<'_>, cells: &mut [Cell], instr: &Instr, at: usize) -> Result<()> {
        match &instr.kind {
            InstrKind::Const { dst, value } => {
                self.mem.advance(1);
                let scalar = match value {
                    Const::Num(x) => Some((*x, Class::Double)),
                    Const::Bool(b) => Some((f64::from(u8::from(*b)), Class::Logical)),
                    _ => None,
                };
                match scalar {
                    Some((x, class)) => {
                        let c = self.define(cx, cells, *dst, 1, None);
                        put_scalar(&mut cells[c], x, class);
                    }
                    None => self.store(cx, cells, *dst, crate::mcc::value_of_const(value)),
                }
            }
            InstrKind::Copy { dst, src } => {
                // Copies between distinct slots materialize into the
                // destination's buffer; same-slot copies were removed by
                // the plan-aware SSA inversion.
                let v = value(cells, cx.table, *src)?;
                let (numel, complex_bytes) = (v.numel(), v.is_complex().then(|| v.payload_bytes()));
                self.note_read(cx, *src);
                self.mem.advance(numel as u64);
                let dc = self.define(cx, cells, *dst, numel, complex_bytes);
                let sc = cx.table.cell[src.index()];
                if dc != sc {
                    copy_cell(cells, dc, sc);
                }
            }
            InstrKind::Compute { dst, op, args } => {
                if !self.compute_fast(cx, cells, *dst, op, args)
                    && !self.compute_into(cx, cells, *dst, op, args)?
                {
                    let result = self.compute(cx, cells, *dst, op, args, at)?;
                    self.mem.advance(result.numel() as u64);
                    self.store(cx, cells, *dst, result);
                }
            }
            InstrKind::Phi { .. } => {
                return err("planned vm executes non-SSA code; φ encountered");
            }
            InstrKind::CallMulti {
                dsts,
                func: name,
                args,
            } => match cx.table.callees[at] {
                Callee::User(fid) => {
                    let vals = self.gather(cx, cells, args)?;
                    let vals = vals.into_iter().cloned().collect();
                    let outs = self.call(cx.tables, fid, vals)?;
                    for (d, o) in dsts.iter().zip(outs) {
                        self.store(cx, cells, *d, o);
                    }
                }
                Callee::Builtin(b) => {
                    let vals = self.gather(cx, cells, args)?;
                    let outs = dispatch::eval_builtin_multi(
                        b,
                        dsts.len().max(1),
                        &vals,
                        &mut self.shared,
                    )?;
                    self.mem.advance(4);
                    for (d, o) in dsts.iter().zip(outs) {
                        self.store(cx, cells, *d, o);
                    }
                }
                Callee::Undefined => {
                    self.gather(cx, cells, args)?;
                    return err(format!("undefined function `{name}`"));
                }
            },
            InstrKind::Display { value: v, label } => {
                let val = value(cells, cx.table, *v)?;
                self.note_read(cx, *v);
                self.shared.out.push_str(&format::echo(label, val));
                self.mem.advance(4);
            }
            InstrKind::Effect { builtin, args } => {
                let vals = self.gather(cx, cells, args)?;
                dispatch::eval_builtin(*builtin, &vals, &mut self.shared)?;
                self.mem.advance(4);
            }
        }
        Ok(())
    }

    /// Borrows call arguments, recording each read.
    fn gather<'c>(
        &mut self,
        cx: Ctx<'_>,
        cells: &'c [Cell],
        args: &[Operand],
    ) -> Result<Vec<&'c Value>> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            match a {
                Operand::Var(v) => {
                    vals.push(value(cells, cx.table, *v)?);
                    self.note_read(cx, *v);
                }
                Operand::ColonAll => return err("unexpected `:` outside subscripts"),
            }
        }
        Ok(vals)
    }

    /// The allocation-free path: a real-scalar result written into the
    /// destination cell's buffer, or a scalar-subscript `subsasgn`
    /// storing one element in place (or into the destination's buffer).
    /// Returns `false`, having done nothing, when the general path must
    /// run — that path also owns every error message.
    fn compute_fast(
        &mut self,
        cx: Ctx<'_>,
        cells: &mut [Cell],
        dst: VarId,
        op: &Op,
        args: &[Operand],
    ) -> bool {
        if args.len() > FAST_ARGS || matches!(op, Op::Call(_)) {
            return false;
        }
        let mut argv = [Arg::Colon; FAST_ARGS];
        for (slot, a) in argv.iter_mut().zip(args) {
            if let Operand::Var(v) = a {
                match &cells[cx.table.cell[v.index()]].value {
                    Some(val) => *slot = Arg::Val(val),
                    None => return false,
                }
            }
        }
        let argv = &argv[..args.len()];
        let fast = match (op, argv) {
            (Op::Subsasgn, [Arg::Val(a), Arg::Val(r), subs @ ..]) if !a.is_complex() => {
                match (r.as_scalar(), dispatch::scalar_index(a, subs)) {
                    (Some(x), Some(index)) => Fast::Assign {
                        index,
                        x,
                        numel: a.numel(),
                    },
                    _ => return false,
                }
            }
            _ => match dispatch::eval_scalar(op, argv) {
                Some((x, class)) => Fast::Scalar(x, class),
                None => return false,
            },
        };
        match fast {
            Fast::Scalar(x, class) => {
                self.mem.advance(1);
                let c = self.define(cx, cells, dst, 1, None);
                put_scalar(&mut cells[c], x, class);
            }
            Fast::Assign { index, x, numel } => {
                let ac = cx.table.cell[args[0].as_var().expect("array operand").index()];
                let dc = cx.table.cell[dst.index()];
                if ac == dc && dc < cx.plan.slots.len() {
                    // In place, like the general in-place path: the value
                    // and subscripts are read, the array stays put.
                    for a in &args[1..] {
                        if let Operand::Var(v) = a {
                            self.note_read(cx, *v);
                        }
                    }
                } else {
                    copy_cell(cells, dc, ac);
                }
                cells[dc].value.as_mut().expect("written above").re_mut()[index] = x;
                self.mem.advance(numel as u64);
                self.define(cx, cells, dst, numel, None);
            }
        }
        true
    }

    /// The buffer-reusing path for array indexing: a `subsref`, or a
    /// `subsasgn` whose array lives in another cell, is written into the
    /// destination cell's existing buffer. Returns `false`, having done
    /// nothing, when the destination shares a cell with an operand (the
    /// general and in-place paths handle those).
    fn compute_into(
        &mut self,
        cx: Ctx<'_>,
        cells: &mut [Cell],
        dst: VarId,
        op: &Op,
        args: &[Operand],
    ) -> Result<bool> {
        let t = cx.table;
        let dc = t.cell[dst.index()];
        if !matches!(op, Op::Subsref | Op::Subsasgn)
            || args.len() > FAST_ARGS
            || args
                .iter()
                .any(|a| a.as_var().is_some_and(|v| t.cell[v.index()] == dc))
        {
            return Ok(false);
        }
        let mut out = cells[dc].value.take().unwrap_or_else(Value::empty);
        let mut argv = [Arg::Colon; FAST_ARGS];
        for (slot, a) in argv.iter_mut().zip(args) {
            if let Operand::Var(v) = a {
                *slot = Arg::Val(value(cells, t, *v)?);
            }
        }
        let argv = &argv[..args.len()];
        if let Op::Subsasgn = op {
            out.clone_from(argv[0].value()?);
            out = dispatch::subsasgn_onto(out, argv)?;
        } else {
            dispatch::subsref_into(&mut out, argv)?;
        }
        let (numel, complex_bytes) = (out.numel(), out.is_complex().then(|| out.payload_bytes()));
        self.mem.advance(numel as u64);
        let c = self.define(cx, cells, dst, numel, complex_bytes);
        cells[c].value = Some(out);
        Ok(true)
    }

    /// Computes an operation, taking the allocation-free in-place path
    /// when the destination shares its array operand's slot.
    fn compute(
        &mut self,
        cx: Ctx<'_>,
        cells: &mut [Cell],
        dst: VarId,
        op: &Op,
        args: &[Operand],
        at: usize,
    ) -> Result<Value> {
        let t = cx.table;
        let dc = t.cell[dst.index()];
        let planned = dc < cx.plan.slots.len() && cells[dc].value.is_some();
        // In-place elementwise: dst and first-or-second operand in the
        // same slot, real data (Figure 1's generated-C specialization).
        if let (Op::Bin(b), true) = (op, planned) {
            // (commutative, other-must-be-scalar): `*` and `/` are
            // elementwise — hence in-place — only against a scalar
            // operand (§2.3's dual semantics of `*`).
            let shape = match b {
                BinOp::Add | BinOp::ElemMul => Some((true, false)),
                BinOp::Sub | BinOp::ElemDiv => Some((false, false)),
                BinOp::MatMul => Some((true, true)),
                BinOp::MatDiv => Some((false, true)),
                _ => None,
            };
            if let Some((commutative, need_scalar)) = shape {
                let v0 = args[0].as_var().expect("binary operand");
                let v1 = args[1].as_var().expect("binary operand");
                // Operand order: the one sharing dst's slot is updated.
                let other = if t.cell[v0.index()] == dc {
                    Some(v1)
                } else if commutative && t.cell[v1.index()] == dc {
                    Some(v0)
                } else {
                    None
                };
                // A true matrix product allocates.
                let other = match other {
                    Some(o) if need_scalar && !value(cells, t, o)?.is_scalar() => None,
                    o => o,
                };
                if let Some(other) = other {
                    let mut buf = cells[dc].value.take().expect("planned above");
                    // `c = a op a`: the operand is the taken buffer.
                    let done = if t.cell[other.index()] == dc {
                        let rhs = buf.clone();
                        ew_in_place(*b, &mut buf, &rhs)
                    } else {
                        ew_in_place(*b, &mut buf, value(cells, t, other)?)
                    };
                    if done {
                        return Ok(buf);
                    }
                    cells[dc].value = Some(buf);
                }
            }
        }
        // In-place subsasgn: move the array out of the shared slot and
        // let the growth logic reuse its buffer.
        if let (Op::Subsasgn, true, Some(Operand::Var(a))) = (op, planned, args.first()) {
            if t.cell[a.index()] == dc {
                let rv = args[1].as_var().expect("subsasgn value");
                value(cells, t, rv)?;
                self.note_read(cx, rv);
                let mut subs = Vec::with_capacity(args.len() - 2);
                for s in &args[2..] {
                    subs.push(match s {
                        Operand::ColonAll => index::Sub::Colon,
                        Operand::Var(v) => {
                            let sv = value(cells, t, *v)?;
                            self.note_read(cx, *v);
                            index::Sub::from_value(sv)?
                        }
                    });
                }
                let arr = cells[dc].value.take().expect("planned above");
                return match &cells[t.cell[rv.index()]].value {
                    Some(r) => index::subsasgn(arr, r, &subs),
                    // The value shares the array's slot.
                    None => {
                        let r = arr.clone();
                        index::subsasgn(arr, &r, &subs)
                    }
                };
            }
        }
        if let Op::Call(name) = op {
            let vals = self.gather(cx, cells, args)?;
            let Callee::User(fid) = t.callees[at] else {
                return err(format!("undefined `{name}`"));
            };
            let vals = vals.into_iter().cloned().collect();
            return self
                .call(cx.tables, fid, vals)?
                .into_iter()
                .next()
                .ok_or_else(|| matc_runtime::RtError::new(format!("`{name}` returned nothing")));
        }
        // General path: operands are borrowed straight from their cells.
        let mut arg_refs: Vec<Arg<'_>> = Vec::with_capacity(args.len());
        for a in args {
            arg_refs.push(match a {
                Operand::Var(v) => Arg::Val(value(cells, t, *v)?),
                Operand::ColonAll => Arg::Colon,
            });
        }
        dispatch::eval_op(op, &arg_refs, &mut self.shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::interp::Interp;
    use matc_frontend::parser::parse_program;
    use matc_gctd::GctdOptions;

    fn run_both(srcs: &[&str]) -> (String, String, u64) {
        let ast = parse_program(srcs.iter().copied()).unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        let got = vm.run().unwrap_or_else(|e| panic!("planned vm error: {e}"));
        let mut interp = Interp::new(&ast);
        let want = interp.run().unwrap_or_else(|e| panic!("interp error: {e}"));
        (got, want, vm.plan_violations)
    }

    #[test]
    fn matches_interpreter_on_loops() {
        let (got, want, violations) = run_both(&[
            "function f()\ns = 0;\nfor i = 1:100\ns = s + i * i;\nend\nfprintf('%d\\n', s);\n",
        ]);
        assert_eq!(got, want);
        assert_eq!(violations, 0);
    }

    #[test]
    fn matches_interpreter_on_arrays() {
        let (got, want, violations) = run_both(&[
            "function f()\na = rand(8, 8);\nb = a + 1;\nc = b .* b;\nd = c * c;\nfprintf('%.10f\\n', sum(sum(d)));\n",
        ]);
        assert_eq!(got, want);
        assert_eq!(violations, 0);
    }

    #[test]
    fn size_of_a_value_grown_to_three_dims() {
        // `a.2`'s rank is unknown to inference, so `size(a)` has a
        // symbolic extent and is planned on the heap, not as a 1x2
        // stack slot.
        let (got, want, violations) =
            run_both(&["function f()\na = zeros(2,2);\na(:,:,2) = ones(2,2);\ns = size(a)\n"]);
        assert_eq!(got, want);
        assert!(got.contains("2          2          2"), "{got}");
        assert_eq!(violations, 0);
    }

    #[test]
    fn matches_interpreter_on_growth() {
        let (got, want, violations) = run_both(&[
            "function f()\na = [];\nfor i = 1:20\na(i) = i * 2;\nend\nfprintf('%d ', a);\nfprintf('\\n');\n",
        ]);
        assert_eq!(got, want);
        assert_eq!(violations, 0);
    }

    #[test]
    fn matches_interpreter_on_calls_and_branches() {
        let (got, want, violations) = run_both(&[
            "function f()\nfor i = 1:10\nfprintf('%d ', collatz(i));\nend\nfprintf('\\n');\nend\nfunction n = collatz(x)\nn = 0;\nwhile x ~= 1\nif mod(x, 2) == 0\nx = x / 2;\nelse\nx = 3 * x + 1;\nend\nn = n + 1;\nend\nend\n",
        ]);
        assert_eq!(got, want);
        assert_eq!(violations, 0);
    }

    #[test]
    fn matches_on_matrix_ops() {
        let (got, want, violations) = run_both(&[
            "function f()\na = [2 1; 1 3];\nb = [3; 5];\nx = a \\ b;\nfprintf('%.8f %.8f\\n', x(1), x(2));\ny = a';\nfprintf('%g\\n', sum(sum(y)));\n",
        ]);
        assert_eq!(got, want);
        assert_eq!(violations, 0);
    }

    #[test]
    fn stack_frame_accounting() {
        let ast =
            parse_program(["function f()\na = rand(16, 16);\nfprintf('%.6f\\n', sum(sum(a)));\n"])
                .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        vm.run().unwrap();
        // The 16x16 double lives on the stack: segment grew past a page.
        assert!(
            vm.mem.stack_segment() >= 16 * 16 * 8,
            "stack segment {}",
            vm.mem.stack_segment()
        );
        assert_eq!(vm.mem.live_heap(), 0, "nothing left on the heap");
    }

    #[test]
    fn heap_slots_for_symbolic_sizes() {
        let ast = parse_program([
            "function driver()\nkernel(rand(1, 1) * 10 + 5);\nend\nfunction kernel(x)\nn = floor(x);\na = rand(n, n);\nfprintf('%.6f\\n', sum(sum(a)));\nend\n",
        ])
        .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        vm.run().unwrap();
        assert_eq!(vm.mem.live_heap(), 0, "heap slots freed at teardown");
        assert_eq!(vm.plan_violations, 0);
    }

    #[test]
    fn example1_chain_reuses_one_heap_slot() {
        // Paper Example 1 as an executable: four symbolic-shape arrays in
        // one slot; heap blocks stay at ~1 during the chain.
        let ast = parse_program([
            "function driver()\nt3 = chain(rand(32, 32));\nfprintf('%.6f\\n', sum(sum(abs(t3))));\nend\nfunction t3 = chain(t0)\nt1 = t0 - 1.345;\nt2 = 2.788 .* t1;\nt3 = tan(t2);\nend\n",
        ])
        .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        let out = vm.run().unwrap();
        let mut interp = Interp::new(&ast);
        let want = interp.run().unwrap();
        assert_eq!(out, want);
        assert_eq!(vm.plan_violations, 0);
    }

    #[test]
    fn without_gctd_mode_still_correct() {
        let ast = parse_program([
            "function f()\na = rand(6, 6);\nb = a + 1;\nc = b .* 2;\nfprintf('%.8f\\n', sum(sum(c)));\n",
        ])
        .unwrap();
        let on = compile(&ast, GctdOptions::default()).unwrap();
        let off = compile(
            &ast,
            GctdOptions {
                coalesce: false,
                ..GctdOptions::default()
            },
        )
        .unwrap();
        let out_on = PlannedVm::new(&on).run().unwrap();
        let mut vm_off = PlannedVm::new(&off);
        let out_off = vm_off.run().unwrap();
        assert_eq!(out_on, out_off);
        // The baseline heap-allocates every array; GCTD's plan carries
        // the arrays in one coalesced stack frame instead.
        assert!(on.plans.total_stats().stack_bytes_total > 0);
        assert_eq!(off.plans.total_stats().stack_bytes_total, 0);
        assert!(vm_off.mem.avg_heap() > 0.0, "baseline lives on the heap");
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use proptest::prelude::*;

    /// Reals of every kind the kernels must keep bit for bit.
    fn arb_elem() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1e3..1e3f64,
            -1e3..1e3f64,
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(1e300),
        ]
    }

    /// A real r×c array and an operand of the same shape or 1×1.
    fn arb_operands() -> impl Strategy<Value = (Value, Value)> {
        (1..5usize, 1..5usize, any::<bool>()).prop_flat_map(|(r, c, scalar)| {
            let n = if scalar { 1 } else { r * c };
            (
                proptest::collection::vec(arb_elem(), r * c),
                proptest::collection::vec(arb_elem(), n),
            )
                .prop_map(move |(x, y)| {
                    let dims = if scalar { vec![1, 1] } else { vec![r, c] };
                    (Value::from_parts(vec![r, c], x), Value::from_parts(dims, y))
                })
        })
    }

    fn bits(v: &Value) -> Vec<u64> {
        v.re().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Figure 1's in-place update, with its kernel chosen per op,
        /// is the allocating op bit for bit: `+ - .* ./` on equal shapes
        /// or a scalar operand, and `*`, `/` by a scalar.
        #[test]
        fn in_place_kernels_match_the_allocating_ops((a, b) in arb_operands()) {
            use BinOp::*;
            for op in [Add, Sub, ElemMul, ElemDiv, MatMul, MatDiv] {
                if matches!(op, MatMul | MatDiv) && !b.is_scalar() {
                    continue;
                }
                let want = dispatch::eval_binop(op, &a, &b).unwrap();
                let mut got = a.clone();
                prop_assert!(ew_in_place(op, &mut got, &b), "{op:?} declined");
                prop_assert_eq!(got.dims(), want.dims(), "{:?}", op);
                prop_assert_eq!(got.class(), want.class(), "{:?}", op);
                prop_assert_eq!(bits(&got), bits(&want), "{:?} {} {}", op, a, b);
            }
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::compile::compile;
    use matc_frontend::parser::parse_program;
    use matc_gctd::GctdOptions;

    #[test]
    fn deep_recursion_is_caught() {
        let ast = parse_program([
            "function f()\nfprintf('%d\\n', r(1));\nend\nfunction y = r(x)\ny = r(x + 1);\nend\n",
        ])
        .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        let e = vm.run().unwrap_err();
        assert!(e.message.contains("recursion"), "{e}");
    }

    #[test]
    fn runtime_error_propagates_through_calls() {
        let ast = parse_program([
            "function f()\nfprintf('%g\\n', g());\nend\nfunction y = g()\na = [1 2];\ny = a(1) / a(2);\nerror('boom');\nend\n",
        ])
        .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let e = PlannedVm::new(&compiled).run().unwrap_err();
        assert_eq!(e.message, "boom");
    }

    #[test]
    fn multi_output_user_call_through_slots() {
        let ast = parse_program([
            "function f()\n[a, b, c] = three(2);\nfprintf('%g %g %g\\n', a, b, c);\nend\nfunction [x, y, z] = three(k)\nx = k;\ny = k * k;\nz = k + 10;\nend\n",
        ])
        .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let out = PlannedVm::new(&compiled).run().unwrap();
        assert_eq!(out, "2 4 12\n");
    }

    #[test]
    fn recursive_function_with_arrays() {
        // Each activation gets its own frame; slots must not leak across
        // recursion levels.
        let ast = parse_program([
            "function f()\nfprintf('%.6f\\n', walk(4));\nend\nfunction s = walk(n)\na = rand(3, 3);\nif n <= 0\ns = sum(sum(a));\nelse\ns = sum(sum(a)) + walk(n - 1);\nend\nend\n",
        ])
        .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        let out = vm.run().unwrap();
        let mut interp = crate::interp::Interp::new(&ast);
        assert_eq!(out, interp.run().unwrap());
        assert_eq!(vm.plan_violations, 0);
        assert_eq!(vm.mem.live_heap(), 0);
    }

    /// Runs `src` in the planned VM and the interpreter; asserts equal
    /// output, a clean plan and an empty heap at exit.
    fn agrees_cleanly(src: &str) -> String {
        let ast = parse_program([src]).unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        let out = vm.run().unwrap_or_else(|e| panic!("planned vm error: {e}"));
        let want = crate::interp::Interp::new(&ast).run().unwrap();
        assert_eq!(out, want);
        assert_eq!(vm.plan_violations, 0);
        assert_eq!(vm.mem.live_heap(), 0);
        out
    }

    #[test]
    fn scalar_overwrites_a_matrix_slot() {
        // `a`, `b`, `s` and `t` share one 128-byte stack slot: the scalar
        // results land in the buffer that held the 4x4 matrices, and the
        // next iteration's matrix replaces them again.
        let src = "function f()
for k = 1:3
a = rand(4, 4) * k;
b = a + 1;
s = b(2, 3);
t = s * 2;
fprintf('%.6f\\n', t);
end
";
        let ast = parse_program([src]).unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let shares = compiled.plans.plans[0].slots.iter().any(|s| {
            let names: Vec<&str> = s
                .members
                .iter()
                .filter_map(|v| compiled.ir.functions[0].vars.info(*v).name.as_deref())
                .collect();
            names.contains(&"b") && names.contains(&"s")
        });
        assert!(shares, "the matrix and the scalar share a slot");
        agrees_cleanly(src);
    }

    #[test]
    fn scalar_subscript_of_a_char_array_keeps_char() {
        let out = agrees_cleanly(
            "function f()\ns = 'hello';\nfor i = 1:5\nc = s(i);\ndisp(c);\nend\nt = [s(5) s(1)];\ndisp(t);\n",
        );
        assert_eq!(out, "h\ne\nl\nl\no\noh\n");
    }

    #[test]
    fn recursive_calls_pass_and_return_arrays() {
        agrees_cleanly(
            "function f()\nv = rand(1, 5);\n[s, w] = walk(v, 5);\nfprintf('%.10f %.10f\\n', s, sum(w));\nend\nfunction [s, w] = walk(v, n)\nif n == 0\ns = 0;\nw = v;\nelse\n[s, w] = walk(v * 2, n - 1);\ns = s + v(n) + rsum(w, n);\nend\nend\nfunction r = rsum(u, n)\nif n == 0\nr = 0;\nelse\nr = u(n) + rsum(u, n - 1);\nend\nend\n",
        );
    }

    #[test]
    fn subscript_errors_keep_the_general_text() {
        for (src, want) in [
            (
                "function f()\na = [1 2 3];\nfprintf('%g\\n', a(4));\n",
                "index 4 exceeds the 3 elements of the array",
            ),
            (
                "function f()\na = [1 2 3];\ni = 1.5;\nfprintf('%g\\n', a(i));\n",
                "subscript must be a positive integer, got 1.5",
            ),
        ] {
            let ast = parse_program([src]).unwrap();
            let compiled = compile(&ast, GctdOptions::default()).unwrap();
            let e = PlannedVm::new(&compiled).run().unwrap_err();
            let interp = crate::interp::Interp::new(&ast).run().unwrap_err();
            assert_eq!(e.message, want);
            assert_eq!(e.message, interp.message);
        }
    }

    #[test]
    fn seeded_runs_reproduce() {
        let ast =
            parse_program(["function f()\nfprintf('%.12f\\n', sum(sum(rand(4, 4))));\n"]).unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let a = PlannedVm::new(&compiled).with_seed(7).run().unwrap();
        let b = PlannedVm::new(&compiled).with_seed(7).run().unwrap();
        let c = PlannedVm::new(&compiled).with_seed(8).run().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
