//! # matc-codegen
//!
//! The C backend: renders a GCTD-planned program as the C the paper's
//! `mat2c` translator emits — fixed stack buffers for statically
//! estimable groups, heap pointers with resize guards for symbolic
//! groups, and inlined elementwise loops with the scalar/array
//! specialization of Figure 1. Library-call fallbacks go through the
//! `mrt_*` runtime interface (the translator's support library).
//!
//! The emphasis is on *faithful storage structure*: every slot of the
//! [`matc_gctd::StoragePlan`] appears exactly once in the generated
//! frame, shared by all its variables; resize checks appear only where
//! the plan's `±`/`+` annotations require them.
//!
//! **Typed scalars.** Which instructions become plain C over `double`s
//! is decided once, by the typed lowering [`matc_vm::typed`], whose
//! sites the planned VM runs too. A variable is *typed* when the plan
//! lists it in [`StoragePlan::scalars`] (inference gives it a real,
//! integer or boolean intrinsic and proves every value it can hold
//! 1×1) and its stack slot holds at least one element. A typed variable
//! stays in its slot: its value is `slotN[0]`, and each definition
//! updates the slot's `mrt_val` handle through `mrt_put`, so generic
//! ops, probes and Equation 2 see the same storage. The emitter only
//! spells the sites: constants, copies, branch tests and the scalar
//! operand of Figure 1 over typed values and literals, each scalar
//! kernel from one table (`scalar_expr`, over `mrt.h`'s scalar kernels),
//! and scalar subscripts as `mrt_elem_get` / `mrt_elem_set`, which keep
//! the runtime's checks and errors. Every other op passes its
//! `MRT_OP_*` id, resolved here at emit time.
//!
//! ```
//! use matc_frontend::parser::parse_program;
//! use matc_gctd::GctdOptions;
//! use matc_vm::compile::compile;
//! use matc_codegen::emit_program;
//!
//! let ast = parse_program([
//!     "function f()\na = rand(4, 4);\nb = a + 1;\nfprintf('%g\\n', sum(sum(b)));\n",
//! ]).unwrap();
//! let compiled = compile(&ast, GctdOptions::default()).unwrap();
//! let c = emit_program(&compiled);
//! assert!(c.contains("double slot0[16]"), "{c}");
//! ```

#![warn(missing_docs)]

use matc_frontend::ast::{BinOp, UnOp};
use matc_gctd::{ResizeKind, SlotKind, StoragePlan};
use matc_ir::ids::{FuncId, VarId};
use matc_ir::instr::{Const, InstrKind, Op, Operand, Terminator};
use matc_ir::{Builtin, FuncIr};
use matc_typeinf::Intrinsic;
use matc_vm::compile::Compiled;
use matc_vm::typed::{self, Lowering, Site, Src};
use std::fmt::Write as _;

/// The C header of the `mrt` support runtime the generated code
/// `#include`s (write it as `mrt.h` next to the generated file).
pub const MRT_H: &str = include_str!("../runtime/mrt.h");

/// The C implementation of the `mrt` support runtime (compile and link
/// it with the generated file: `cc prog.c mrt.c -lm`).
pub const MRT_C: &str = include_str!("../runtime/mrt.c");

/// Options for [`emit_program_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmitOptions {
    /// Emit `mrt_probe_*` calls (slot binds, definitions with their
    /// resize kind and observed bytes, frees, and a final report) so a
    /// native run produces the shadow counter table on stderr. Off by
    /// default: with probes disabled the output is byte-identical to
    /// [`emit_program`], and the probe counters in `mrt.c` cost nothing
    /// when no calls are generated.
    pub probes: bool,
}

/// Emits a complete C translation unit for a compiled program.
pub fn emit_program(compiled: &Compiled) -> String {
    emit_program_with(compiled, EmitOptions::default())
}

/// [`emit_program`] with [`EmitOptions`].
pub fn emit_program_with(compiled: &Compiled, opts: EmitOptions) -> String {
    let mut out = String::new();
    out.push_str(&emit_unit_prologue(&compiled.ir.functions));
    for (i, f) in compiled.ir.functions.iter().enumerate() {
        let plan = compiled.plans.plan(FuncId::new(i));
        out.push_str(&emit_function_unit(f, plan, opts.probes.then_some(i)));
    }
    out.push_str(&emit_unit_epilogue(
        &compiled.ir.entry_func().name,
        opts.probes,
    ));
    out
}

/// The fixed head of an emitted translation unit: the preamble plus one
/// forward declaration per function, ending in a blank line.
///
/// `emit_unit_prologue` + [`emit_function_unit`] for every function in
/// order + [`emit_unit_epilogue`] concatenate to exactly
/// [`emit_program_with`]; the incremental batch driver uses the split
/// form to stitch cached per-function fragments into a whole unit.
pub fn emit_unit_prologue(functions: &[FuncIr]) -> String {
    let mut out = String::new();
    out.push_str(PREAMBLE);
    out.push('\n');
    for f in functions {
        let _ = writeln!(
            out,
            "static void f_{}({});",
            f.name,
            signature(f).join(", ")
        );
    }
    out.push('\n');
    out
}

/// One function's body (definition plus trailing blank line) as it
/// appears inside [`emit_program_with`]. `probe_fi` is `Some(function
/// index)` when shadow probes are on — probe calls embed the index, so
/// probed fragments are position-dependent. The function's type facts
/// arrive through the plan ([`StoragePlan::scalars`], derived from the
/// inference facts the fragment keys hash).
pub fn emit_function_unit(f: &FuncIr, plan: &StoragePlan, probe_fi: Option<usize>) -> String {
    let mut out = String::new();
    emit_function(&mut out, f, plan, probe_fi);
    out.push('\n');
    out
}

/// The closing `main` of an emitted translation unit (calls the entry
/// function, then reports probes when enabled).
pub fn emit_unit_epilogue(entry_name: &str, probes: bool) -> String {
    let mut out = String::new();
    emit_main(&mut out, entry_name, probes);
    out
}

/// The fixed preamble: value handles and the `mrt_` runtime interface
/// the translator links against.
const PREAMBLE: &str = r#"/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"
"#;

/// The C element type of a planned intrinsic (§3.2: identical intrinsic
/// types avoid casts and realignment).
fn c_type(i: Intrinsic) -> &'static str {
    match i {
        Intrinsic::Bool | Intrinsic::Byte => "unsigned char",
        Intrinsic::Int => "int",
        Intrinsic::Real => "double",
        Intrinsic::Complex | Intrinsic::Illegal => "mrt_complex",
    }
}

fn slot_name(i: usize) -> String {
    format!("slot{i}")
}

fn var_ref(f: &FuncIr, plan: &StoragePlan, v: VarId) -> String {
    match plan.slot_of(v) {
        Some(s) => format!("v_{} /*{}*/", slot_name(s), f.vars.display_name(v)),
        None => format!("imm_{}", v.0),
    }
}

/// The C parameter list of a lowered function.
fn signature(f: &FuncIr) -> Vec<String> {
    let outs = if f.ssa_outs.is_empty() {
        f.outs.clone()
    } else {
        f.ssa_outs.clone()
    };
    let mut sig: Vec<String> = f
        .params
        .iter()
        .map(|p| format!("const mrt_val *arg_{}", p.0))
        .collect();
    sig.extend(
        outs.iter()
            .enumerate()
            .map(|(k, _)| format!("mrt_val *out_{k}")),
    );
    if sig.is_empty() {
        sig.push("void".to_string());
    }
    sig
}

/// The destination variables an instruction defines.
fn instr_dsts(instr: &matc_ir::Instr) -> Vec<VarId> {
    match &instr.kind {
        InstrKind::Const { dst, .. }
        | InstrKind::Copy { dst, .. }
        | InstrKind::Compute { dst, .. } => vec![*dst],
        InstrKind::CallMulti { dsts, .. } => dsts.clone(),
        InstrKind::Phi { dst, .. } => vec![*dst],
        InstrKind::Display { .. } | InstrKind::Effect { .. } => vec![],
    }
}

/// `probe_fi` is `Some(function index)` when shadow probes are emitted.
fn emit_function(out: &mut String, f: &FuncIr, plan: &StoragePlan, probe_fi: Option<usize>) {
    let _ = writeln!(out, "/* ---- function {} ---- */", f.name);
    let outs = if f.ssa_outs.is_empty() {
        f.outs.clone()
    } else {
        f.ssa_outs.clone()
    };
    let sig = signature(f);
    let _ = writeln!(out, "static void f_{}({})", f.name, sig.join(", "));
    out.push_str("{\n");
    // Every frame counts against the recursion limit, as `call_depth`
    // does in the Rust executors.
    out.push_str("    mrt_enter();\n");

    // ------------------------------------------------------------------
    // Frame: one declaration per slot. Stack groups get fixed buffers at
    // the maximal size (§3.2.1); heap groups get pointers plus capacity.
    // ------------------------------------------------------------------
    for (i, slot) in plan.slots.iter().enumerate() {
        let members: Vec<String> = slot
            .members
            .iter()
            .map(|m| f.vars.display_name(*m))
            .collect();
        match slot.kind {
            SlotKind::Stack { bytes } => {
                // One fixed buffer at the group's maximal element count;
                // the planned element type is kept as documentation (the
                // portable runtime computes in doubles).
                let elems = (bytes / slot.intrinsic.byte_size().max(1)).max(1) as usize;
                let _ = writeln!(
                    out,
                    "    double {}[{}];            /* stack group ({}): {} */",
                    slot_name(i),
                    elems,
                    c_type(slot.intrinsic),
                    members.join(", ")
                );
                let _ = writeln!(out, "    mrt_val v_{} = {{0}};", slot_name(i));
                let _ = writeln!(out, "    mrt_bind(&v_{0}, {0}, {elems});", slot_name(i));
            }
            SlotKind::Heap => {
                let _ = writeln!(
                    out,
                    "    mrt_val v_{} = {{0}};          /* heap group ({}): {} */",
                    slot_name(i),
                    c_type(slot.intrinsic),
                    members.join(", ")
                );
                let _ = writeln!(out, "    mrt_bind(&v_{}, NULL, 0);", slot_name(i));
            }
        }
        if let Some(fi) = probe_fi {
            let (is_stack, cap) = match slot.kind {
                SlotKind::Stack { bytes } => (1, bytes),
                SlotKind::Heap => (0, 0),
            };
            let _ = writeln!(out, "    mrt_probe_bind({fi}, {i}, {is_stack}, {cap});");
        }
    }
    out.push('\n');

    // Bind parameters into their slots.
    for p in &f.params {
        if let Some(s) = plan.slot_of(*p) {
            let _ = writeln!(
                out,
                "    mrt_op(&v_{}, MRT_OP_COPY, 1, arg_{});",
                slot_name(s),
                p.0
            );
        }
    }

    // ------------------------------------------------------------------
    // Body: blocks become labels; instructions become statements.
    // ------------------------------------------------------------------
    let em = Emitter {
        f,
        plan,
        typed: typed::lower(f, plan),
    };
    let mut sites = em.typed.sites.iter();
    for b in f.block_ids() {
        let _ = writeln!(out, "bb{}: ;", b.index());
        for instr in &f.block(b).instrs {
            em.instr(out, instr, sites.next().copied().flatten());
            if let Some(fi) = probe_fi {
                for dst in instr_dsts(instr) {
                    if let Some(s) = plan.slot_of(dst) {
                        let kind = match plan.resize_of(dst) {
                            ResizeKind::NoResize => 0,
                            ResizeKind::Grow => 1,
                            ResizeKind::Resize => 2,
                        };
                        let _ = writeln!(
                            out,
                            "    mrt_probe_def({fi}, {s}, {kind}, \
                             MRT_NUMEL(v_{}) * sizeof(double));",
                            slot_name(s)
                        );
                    }
                }
            }
        }
        match &f.block(b).term {
            Terminator::Jump(t) => {
                let _ = writeln!(out, "    goto bb{};", t.index());
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let test = match em.typed.branch[b.index()] {
                    Some(x) => format!("{} != 0.0", c_src(x)),
                    None => format!("mrt_istrue(&{})", var_ref(f, plan, *cond)),
                };
                let _ = writeln!(
                    out,
                    "    if ({test}) goto bb{}; else goto bb{};",
                    then_bb.index(),
                    else_bb.index()
                );
            }
            Terminator::Return => {
                // Copy outputs, then free heap groups.
                for (k, o) in outs.iter().enumerate() {
                    if plan.slot_of(*o).is_some() {
                        let _ = writeln!(
                            out,
                            "    mrt_op(out_{k}, MRT_OP_COPY, 1, &{});",
                            var_ref(f, plan, *o)
                        );
                    }
                }
                for (i, slot) in plan.slots.iter().enumerate() {
                    if matches!(slot.kind, SlotKind::Heap) {
                        let _ = writeln!(out, "    mrt_free(&v_{});", slot_name(i));
                        if let Some(fi) = probe_fi {
                            let _ = writeln!(out, "    mrt_probe_free({fi}, {i});");
                        }
                    }
                }
                out.push_str("    mrt_leave();\n");
                out.push_str("    return;\n");
            }
        }
    }
    out.push_str("}\n");
}

/// Emits the resize guard a heap definition needs (`±`/`+`; `∘` needs
/// none — the slot already holds exactly this size).
fn emit_resize_guard(out: &mut String, plan: &StoragePlan, v: VarId, bytes_expr: &str) {
    if let Some(SlotKind::Heap) = plan.slot_of(v).map(|s| plan.slots[s].kind) {
        let s = plan.slot_of(v).expect("heap slot");
        match plan.resize_of(v) {
            ResizeKind::NoResize => {
                let _ = writeln!(out, "    /* o: no resize needed for v_{} */", slot_name(s));
            }
            ResizeKind::Grow => {
                let _ = writeln!(
                    out,
                    "    mrt_grow(&v_{}, {bytes_expr});   /* + grow only */",
                    slot_name(s)
                );
            }
            ResizeKind::Resize => {
                let _ = writeln!(
                    out,
                    "    mrt_resize(&v_{}, {bytes_expr}); /* +- resize */",
                    slot_name(s)
                );
            }
        }
    }
}

/// Renders an `f64` as a C double literal. Rust's `{:?}` prints
/// non-finite values as `inf`/`NaN`, which are not C identifiers, so
/// those (reachable through constant folding, e.g. `1/0`) are spelled
/// as arithmetic.
fn c_f64(v: f64) -> String {
    if v.is_nan() {
        "(0.0/0.0)".to_string()
    } else if v == f64::INFINITY {
        "(1.0/0.0)".to_string()
    } else if v == f64::NEG_INFINITY {
        "(-1.0/0.0)".to_string()
    } else {
        format!("{v:?}")
    }
}

fn operand_ref(f: &FuncIr, plan: &StoragePlan, o: &Operand) -> String {
    match o {
        Operand::Var(v) => match plan.slot_of(*v) {
            Some(_) => format!("&{}", var_ref(f, plan, *v)),
            None => format!("mrt_wrap(imm_{})", v.0),
        },
        Operand::ColonAll => "MRT_COLON".to_string(),
    }
}

/// One function's emission context: its IR, plan and typed sites.
struct Emitter<'a> {
    f: &'a FuncIr,
    plan: &'a StoragePlan,
    typed: Lowering,
}

/// A typed operand as a C `double` expression: element 0 of a typed
/// scalar's slot, or a literal.
fn c_src(s: Src) -> String {
    match s {
        Src::Slot(s) => format!("{}[0]", slot_name(s)),
        Src::Lit(x, _) => c_f64(x),
    }
}

/// `n, i, j, k` for one to three scalar subscripts (`0.0` pads).
fn c_subscripts(subs: &[Src]) -> String {
    let mut parts = vec![subs.len().to_string()];
    parts.extend(subs.iter().map(|s| c_src(*s)));
    parts.resize(4, "0.0".to_string());
    parts.join(", ")
}

impl<'a> Emitter<'a> {
    fn var(&self, v: VarId) -> String {
        var_ref(self.f, self.plan, v)
    }

    fn operand(&self, o: &Operand) -> String {
        operand_ref(self.f, self.plan, o)
    }

    /// Emits one instruction, as typed C when it is a typed site.
    fn instr(&self, out: &mut String, instr: &matc_ir::Instr, site: Option<Site>) {
        match &instr.kind {
            InstrKind::Const { dst, value } => {
                // Immediates become C literals bound to scalar locals.
                let text = match value {
                    Const::Num(v) => format!("mrt_numv({})", c_f64(*v)),
                    Const::Bool(b) => format!("mrt_numv({}.0)", *b as u8),
                    Const::Imag(v) => format!("mrt_imagv({})", c_f64(*v)),
                    Const::Str(s) => format!("mrt_strv(\"{}\")", s.escape_default()),
                    Const::Empty => "mrt_emptyv()".to_string(),
                };
                let d = self.var(*dst);
                if self.plan.slot_of(*dst).is_none() {
                    let _ = writeln!(out, "    const mrt_imm imm_{} = {text};", dst.0);
                } else if let Some(Site::Const(x, _)) = site {
                    let _ = writeln!(out, "    mrt_put(&{d}, {});", c_f64(x));
                } else {
                    let _ = writeln!(out, "    mrt_op(&{d}, MRT_OP_COPY, 1, mrt_wrap({text}));");
                }
            }
            InstrKind::Copy { dst, src } => {
                let d = self.var(*dst);
                let from = self.operand(&Operand::Var(*src));
                let line = match site {
                    Some(Site::Scalar {
                        xs: [Src::Slot(_), ..],
                        ..
                    }) => format!("mrt_copy1(&{d}, {from})"),
                    Some(Site::Scalar { xs: [x, ..], .. }) => {
                        format!("mrt_put(&{d}, {})", c_src(x))
                    }
                    _ => format!("mrt_op(&{d}, MRT_OP_COPY, 1, {from})"),
                };
                let _ = writeln!(out, "    {line};");
            }
            InstrKind::Compute { dst, op, args } => {
                emit_resize_guard(out, self.plan, *dst, "MRT_NEEDED");
                match site {
                    Some(site) => self.typed_compute(out, *dst, op, args, site),
                    None if self.in_place(out, *dst, op, args) => {}
                    None => self.library_call(out, *dst, op, args),
                }
            }
            InstrKind::Phi { .. } => {
                out.push_str("    /* unreachable: phi survives SSA inversion */\n");
            }
            InstrKind::CallMulti { dsts, func, args } => {
                let argl: Vec<String> = args.iter().map(|a| self.operand(a)).collect();
                let outl: Vec<String> = dsts.iter().map(|d| format!("&{}", self.var(*d))).collect();
                match Builtin::from_name(func) {
                    Some(bi) => {
                        // Multi-output library call ([m, i] = max(a), size, ...).
                        let _ = writeln!(
                            out,
                            "    mrt_multi(MRT_OP_{}, {}, {}{}{}, {});",
                            builtin_id(bi),
                            argl.len(),
                            argl.join(", "),
                            if argl.is_empty() { "" } else { ", " },
                            outl.len(),
                            outl.join(", ")
                        );
                    }
                    None => {
                        let mut all = argl;
                        all.extend(outl);
                        let _ = writeln!(out, "    f_{func}({});", all.join(", "));
                    }
                }
            }
            InstrKind::Display { value, label } => {
                // operand_ref wraps plan-less immediates in mrt_wrap.
                let _ = writeln!(
                    out,
                    "    mrt_display(\"{label}\", {});",
                    self.operand(&Operand::Var(*value))
                );
            }
            InstrKind::Effect { builtin, args } => {
                let argl: Vec<String> = args.iter().map(|a| self.operand(a)).collect();
                let _ = writeln!(
                    out,
                    "    mrt_op(NULL, MRT_OP_{}, {}{}{});",
                    builtin_id(*builtin),
                    argl.len(),
                    if argl.is_empty() { "" } else { ", " },
                    argl.join(", ")
                );
            }
        }
    }

    /// Emits a typed `dst = op(args)`: a scalar kernel as plain C over
    /// doubles, or one element access.
    fn typed_compute(&self, out: &mut String, dst: VarId, op: &Op, args: &[Operand], site: Site) {
        let d = self.var(dst);
        match site {
            Site::Set { x, subs, n } => {
                let mut fallback = String::new();
                self.library_call(&mut fallback, dst, op, args);
                let idx = c_subscripts(&subs[..n]);
                let _ = write!(
                    out,
                    "    if (!mrt_elem_set(&{d}, {idx}, {}))\n    {fallback}",
                    c_src(x)
                );
            }
            Site::Get { subs, n } => {
                let idx = c_subscripts(&subs[..n]);
                let a = self.operand(&args[0]);
                let _ = writeln!(out, "    mrt_elem_get(&{d}, {a}, {idx});");
            }
            Site::Scalar { xs, n, .. } => {
                let xs: Vec<String> = xs[..n].iter().map(|x| c_src(*x)).collect();
                let e = scalar_expr(op, &xs).expect("every scalar kernel has a C spelling");
                let _ = writeln!(out, "    mrt_put(&{d}, {e});");
            }
            Site::Const(..) => unreachable!("a Const site is a Const instruction"),
        }
    }

    /// Figure 1: an elementwise `+ - .* ./` whose destination shares
    /// operand 0's real slot runs as a loop over the slot, specialized
    /// on whether the other operand is a scalar (statically, when it is
    /// a typed scalar or a literal). Returns whether it emitted one.
    fn in_place(&self, out: &mut String, dst: VarId, op: &Op, args: &[Operand]) -> bool {
        let (Op::Bin(b), [Operand::Var(a0), a1]) = (op, args) else {
            return false;
        };
        let Some(slot) = self.plan.slot_of(dst) else {
            return false;
        };
        // Real data only: the specialized loops ignore the imaginary
        // parts.
        let sym = match b {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::ElemMul => "*",
            BinOp::ElemDiv => "/",
            _ => return false,
        };
        if self.plan.slot_of(*a0) != Some(slot) || self.plan.slots[slot].intrinsic.is_complex() {
            return false;
        }
        let elem = "d->re[i]";
        let _ = writeln!(out, "    {{ /* in-place {sym} (Figure 1) */");
        let _ = writeln!(out, "      mrt_val *d = &{};", self.var(dst));
        match self.typed.src(a1).map(c_src) {
            Some(s) => {
                let e = scalar_bin(*b, elem, "s");
                let _ = writeln!(out, "      size_t i, n = MRT_NUMEL(*d);");
                let _ = writeln!(out, "      double s = {s}; /* scalar operand */");
                let _ = writeln!(out, "      for (i = 0; i < n; i++) {elem} = {e};");
            }
            None => {
                let scalar = scalar_bin(*b, elem, "r->re[0]");
                let same = scalar_bin(*b, elem, "r->re[i]");
                let _ = writeln!(out, "      const mrt_val *r = {};", self.operand(a1));
                let _ = writeln!(out, "      size_t i, n = MRT_NUMEL(*d);");
                let _ = writeln!(out, "      if (MRT_NUMEL(*r) == 1) {{ /* scalar operand */");
                let _ = writeln!(out, "        for (i = 0; i < n; i++) {elem} = {scalar};");
                let _ = writeln!(
                    out,
                    "      }} else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) {{ \
                     /* identical shapes */"
                );
                let _ = writeln!(out, "        for (i = 0; i < n; i++) {elem} = {same};");
                // Operand 0 shares the destination's slot, so `d` is
                // its handle too.
                let _ = writeln!(out, "      }} else {{ /* broadcasts or raises */");
                let _ = writeln!(out, "        mrt_op(d, MRT_OP_{}, 2, d, r);", bin_id(*b));
                let _ = writeln!(out, "      }}");
            }
        }
        let _ = writeln!(out, "    }}");
        true
    }

    /// The `mrt_op` call (or user function call, or `mrt_concat`) that
    /// computes `dst = op(args)` in the runtime.
    fn library_call(&self, out: &mut String, dst: VarId, op: &Op, args: &[Operand]) {
        let d = format!("&{}", self.var(dst));
        let argl: Vec<String> = args.iter().map(|a| self.operand(a)).collect();
        // The C runtime's immediate pool bounds how many wrapped
        // literals may be live in a single call.
        assert!(
            argl.len() <= 4096,
            "operation with {} operands exceeds the C runtime's immediate pool",
            argl.len()
        );
        let id = match op {
            Op::Bin(b) => bin_id(*b).to_string(),
            Op::Un(u) => un_id(*u).to_string(),
            Op::Subsref => "SUBSREF".to_string(),
            Op::Subsasgn => "SUBSASGN".to_string(),
            Op::Range2 => "RANGE".to_string(),
            Op::Range3 => "RANGE3".to_string(),
            Op::Builtin(bi) => builtin_id(*bi),
            Op::MatrixBuild { rows } => {
                // The row lengths ride along as an int array.
                if argl.is_empty() {
                    let _ = writeln!(out, "    mrt_concat({d}, 0, NULL, 0, NULL);");
                    return;
                }
                let lens: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
                let _ = writeln!(out, "    {{");
                let _ = writeln!(
                    out,
                    "        static const int rows[] = {{ {} }};",
                    lens.join(", ")
                );
                let _ = writeln!(
                    out,
                    "        const mrt_val *cargs[] = {{ {} }};",
                    argl.join(", ")
                );
                let _ = writeln!(
                    out,
                    "        mrt_concat({d}, {}, rows, {}, cargs);",
                    lens.len(),
                    argl.len()
                );
                let _ = writeln!(out, "    }}");
                return;
            }
            Op::Call(name) => {
                let mut all = argl;
                all.push(d);
                let _ = writeln!(out, "    f_{name}({});", all.join(", "));
                return;
            }
        };
        if argl.len() > 60 {
            // Wide operand lists exceed the portable varargs call
            // width; use the array form.
            let _ = writeln!(out, "    {{");
            let _ = writeln!(
                out,
                "        const mrt_val *cargs[] = {{ {} }};",
                argl.join(", ")
            );
            let _ = writeln!(
                out,
                "        mrt_opv({d}, MRT_OP_{id}, {}, cargs);",
                argl.len()
            );
            let _ = writeln!(out, "    }}");
        } else {
            let _ = writeln!(
                out,
                "    mrt_op({d}, MRT_OP_{id}, {}{}{});",
                argl.len(),
                if argl.is_empty() { "" } else { ", " },
                argl.join(", ")
            );
        }
    }
}

/// The C spelling of every [`ScalarKernel`](matc_vm::dispatch::ScalarKernel):
/// `op` over the expressions `x` of the operands its kernel reads, as a
/// C `double` expression computing what the runtime computes for real
/// 1×1 operands (mrt.h's scalar kernels), or `None` for ops that have
/// no scalar form.
fn scalar_expr(op: &Op, x: &[String]) -> Option<String> {
    match (op, x) {
        (Op::Bin(b), [a, c]) => Some(scalar_bin(*b, a, c)),
        // A negative literal keeps its own parentheses: `--` is C's
        // decrement.
        (Op::Un(UnOp::Neg), [a]) if a.starts_with('-') => Some(format!("(-({a}))")),
        (Op::Un(UnOp::Neg), [a]) => Some(format!("(-{a})")),
        (Op::Un(UnOp::Not), [a]) => Some(format!("(double)({a} == 0.0)")),
        (Op::Un(UnOp::Plus | UnOp::Transpose | UnOp::CTranspose), [a]) => Some(a.clone()),
        (Op::Builtin(bi), _) => scalar_builtin(*bi, x),
        _ => None,
    }
}

fn scalar_bin(b: BinOp, x: &str, y: &str) -> String {
    let infix = |sym: &str| format!("({x} {sym} {y})");
    let test = |sym: &str| format!("(double)({x} {sym} {y})");
    match b {
        BinOp::Add => infix("+"),
        BinOp::Sub => infix("-"),
        BinOp::ElemMul | BinOp::MatMul => infix("*"),
        BinOp::ElemDiv | BinOp::MatDiv => infix("/"),
        BinOp::ElemLeftDiv | BinOp::MatLeftDiv => format!("({y} / {x})"),
        // Typing proves the real branch: a base that is not negative or
        // an integral exponent.
        BinOp::ElemPow | BinOp::MatPow => format!("pow({x}, {y})"),
        BinOp::Eq => test("=="),
        BinOp::Ne => test("!="),
        BinOp::Lt => test("<"),
        BinOp::Le => test("<="),
        BinOp::Gt => test(">"),
        BinOp::Ge => test(">="),
        BinOp::And | BinOp::ShortAnd => format!("(double)({x} != 0.0 && {y} != 0.0)"),
        BinOp::Or | BinOp::ShortOr => format!("(double)({x} != 0.0 || {y} != 0.0)"),
    }
}

fn scalar_builtin(bi: Builtin, x: &[String]) -> Option<String> {
    let call = |f: &str| Some(format!("{f}({})", x.join(", ")));
    match (bi, x) {
        (Builtin::Abs, [_]) => call("fabs"),
        (Builtin::Sqrt, [_]) => call("sqrt"),
        (Builtin::Sin, [_]) => call("sin"),
        (Builtin::Cos, [_]) => call("cos"),
        (Builtin::Tan, [_]) => call("tan"),
        (Builtin::Atan, [_]) => call("atan"),
        (Builtin::Exp, [_]) => call("exp"),
        (Builtin::Log, [_]) => call("log"),
        (Builtin::Floor, [_]) => call("floor"),
        (Builtin::Ceil, [_]) => call("ceil"),
        (Builtin::Round, [_]) => call("mrt_round"),
        (Builtin::Fix, [_]) => call("trunc"),
        (Builtin::Sign, [_]) => call("mrt_sign"),
        (Builtin::Real | Builtin::Conj | Builtin::Max | Builtin::Min, [a]) => Some(a.clone()),
        (Builtin::Imag, [_]) => Some("0.0".to_string()),
        (Builtin::Mod, [_, _]) => call("mrt_mod"),
        (Builtin::Rem, [_, _]) => call("mrt_rem"),
        (Builtin::Atan2, [_, _]) => call("atan2"),
        (Builtin::Max, [_, _]) => call("mrt_max2"),
        (Builtin::Min, [_, _]) => call("mrt_min2"),
        (Builtin::IsTrue, [a]) => Some(format!("(double)({a} != 0.0)")),
        (Builtin::RangeCount, [_, _, _]) => call("mrt_range_count"),
        // The loop's stop value is not read.
        (Builtin::LoopIndex, [_, _, _]) => call("mrt_loop_index"),
        (Builtin::Pi, []) => Some(c_f64(std::f64::consts::PI)),
        (Builtin::Inf, []) => Some(c_f64(f64::INFINITY)),
        (Builtin::NaN, []) => Some(c_f64(f64::NAN)),
        (Builtin::Eps, []) => Some(c_f64(f64::EPSILON)),
        _ => None,
    }
}

/// The `MRT_OP_*` id (without prefix) of a binary operator.
fn bin_id(b: BinOp) -> &'static str {
    match b {
        BinOp::Add => "ADD",
        BinOp::Sub => "SUB",
        BinOp::MatMul => "MTIMES",
        BinOp::ElemMul => "TIMES",
        BinOp::MatDiv => "MRDIVIDE",
        BinOp::ElemDiv => "RDIVIDE",
        BinOp::MatLeftDiv => "MLDIVIDE",
        BinOp::ElemLeftDiv => "LDIVIDE",
        BinOp::MatPow => "MPOWER",
        BinOp::ElemPow => "POWER",
        BinOp::Eq => "EQ",
        BinOp::Ne => "NE",
        BinOp::Lt => "LT",
        BinOp::Le => "LE",
        BinOp::Gt => "GT",
        BinOp::Ge => "GE",
        // `&&`/`||` are lowered to branches over `istrue`; their
        // elementwise forms are the same on scalars.
        BinOp::And | BinOp::ShortAnd => "AND",
        BinOp::Or | BinOp::ShortOr => "OR",
    }
}

/// The `MRT_OP_*` id (without prefix) of a unary operator.
fn un_id(u: UnOp) -> &'static str {
    match u {
        UnOp::Neg => "UMINUS",
        UnOp::Plus => "UPLUS",
        UnOp::Not => "NOT",
        UnOp::Transpose => "TRANSPOSE",
        UnOp::CTranspose => "CTRANSPOSE",
    }
}

/// The `MRT_OP_*` id (without prefix) of a builtin: its name in upper
/// case (`range_count` → `RANGE_COUNT`, `Inf` → `INF`).
fn builtin_id(bi: Builtin) -> String {
    bi.name().to_ascii_uppercase()
}

fn emit_main(out: &mut String, entry_name: &str, probes: bool) {
    out.push_str("int main(void)\n{\n");
    let _ = writeln!(out, "    f_{entry_name}();");
    if probes {
        out.push_str("    mrt_probe_report();\n");
    }
    out.push_str("    return 0;\n}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_gctd::GctdOptions;
    use matc_vm::compile::compile;

    fn emit(srcs: &[&str]) -> String {
        let ast = parse_program(srcs.iter().copied()).unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        emit_program(&compiled)
    }

    #[test]
    fn fig1_inplace_add_specialization() {
        // The paper's Figure 1: an in-place array addition specializes on
        // which operand is scalar.
        let c = emit(&[
            "function f()\na = rand(4, 4);\nb = rand(4, 4);\nc = a + b;\nfprintf('%g\\n', sum(sum(c)));\n",
        ]);
        assert!(c.contains("in-place + (Figure 1)"), "{c}");
        assert!(c.contains("scalar operand"), "{c}");
        assert!(c.contains("identical shapes"), "{c}");
    }

    #[test]
    fn stack_groups_become_fixed_buffers() {
        let c = emit(&[
            "function f()\na = rand(8, 8);\nfprintf('%g\\n', sum(sum(a)));\nb = rand(8, 8);\nfprintf('%g\\n', sum(sum(b)));\n",
        ]);
        // a and b share one 64-element double buffer.
        assert!(c.contains("double slot"), "{c}");
        assert!(c.contains("[64]"), "{c}");
        let decls = c.matches("[64]").count();
        assert_eq!(decls, 1, "one maximal buffer for the shared group\n{c}");
    }

    #[test]
    fn heap_groups_get_resize_guards() {
        let c = emit(&[
            "function driver()\nkernel(rand(1,1) * 10 + 3);\nend\nfunction kernel(x)\nn = floor(x) + 2;\na = rand(n, n);\na = a + 1;\nfprintf('%g\\n', sum(sum(a)));\nend\n",
        ]);
        assert!(c.contains("mrt_bind(&v_slot"), "slots bound\n{c}");
        assert!(c.contains("heap group"), "heap group declared\n{c}");
        assert!(
            c.contains("mrt_resize") || c.contains("mrt_grow") || c.contains("no resize"),
            "{c}"
        );
    }

    #[test]
    fn no_resize_annotation_emits_comment_only() {
        let c =
            emit(&["function t3 = f(t0)\nt1 = t0 - 1.345;\nt2 = 2.788 .* t1;\nt3 = tan(t2);\n"]);
        assert!(c.contains("no resize needed"), "{c}");
    }

    #[test]
    fn constants_are_literals_not_storage() {
        let c = emit(&["function f()\nx = rand(3, 3) + 1;\ndisp(x(1));\n"]);
        assert!(c.contains("mrt_imm"), "{c}");
    }

    #[test]
    fn control_flow_uses_labels() {
        let c =
            emit(&["function f()\ns = 0;\nfor i = 1:10\ns = s + i;\nend\nfprintf('%d\\n', s);\n"]);
        assert!(c.contains("goto bb"), "{c}");
        // The loop test is a typed scalar: a plain C comparison.
        assert!(c.contains("[0] != 0.0) goto bb"), "{c}");
    }

    #[test]
    fn proven_scalars_become_c_doubles() {
        // `s` and the loop counter are real scalars: their arithmetic is
        // C over slot element 0, the handle kept current by mrt_put.
        let c =
            emit(&["function f()\ns = 0;\nfor i = 1:10\ns = s + i;\nend\nfprintf('%d\\n', s);\n"]);
        assert!(c.contains("mrt_put(&v_slot"), "{c}");
        assert!(c.contains("mrt_loop_index("), "{c}");
        assert!(
            !c.contains("MRT_OP_ADD"),
            "scalar add went through the runtime\n{c}"
        );
        // A value that is 1x1 on one path and 1x3 on the other is not.
        let c = emit(&[
            "function f()\nx = 1;\nif rand(1, 1) > 0.5\n  x = [1 2 3];\nend\ny = x + 1;\ndisp(y);\n",
        ]);
        let typed = |v: &str| c.lines().any(|l| l.contains("mrt_put(") && l.contains(v));
        assert!(!typed("/*x.3*/") && !typed("/*y.1*/"), "{c}");
        assert!(typed("/*%t17.1*/"), "the test of rand(1, 1) is typed\n{c}");
    }

    use BinOp::*;
    const BINOPS: [BinOp; 20] = [
        Add,
        Sub,
        MatMul,
        ElemMul,
        MatDiv,
        ElemDiv,
        MatLeftDiv,
        ElemLeftDiv,
        MatPow,
        ElemPow,
        Eq,
        Ne,
        Lt,
        Le,
        Gt,
        Ge,
        And,
        Or,
        ShortAnd,
        ShortOr,
    ];
    const UNOPS: [UnOp; 5] = [
        UnOp::Neg,
        UnOp::Plus,
        UnOp::Not,
        UnOp::Transpose,
        UnOp::CTranspose,
    ];

    /// Every builtin, the lowering's internal helpers included.
    fn builtins() -> Vec<Builtin> {
        let names = "zeros ones eye rand size length numel ndims disp fprintf sqrt abs sin cos \
                     tan atan atan2 exp log floor ceil round fix mod rem max min sum prod mean \
                     norm real imag conj isempty any all sign linspace pi Inf eps NaN error";
        let mut builtins: Vec<Builtin> = names
            .split_whitespace()
            .map(|n| Builtin::from_name(n).unwrap_or_else(|| panic!("{n}")))
            .collect();
        builtins.extend([Builtin::RangeCount, Builtin::IsTrue, Builtin::LoopIndex]);
        builtins
    }

    #[test]
    fn every_emitted_op_id_is_declared_in_mrt_h() {
        let mut ids: Vec<String> = "COPY SUBSREF SUBSASGN RANGE RANGE3"
            .split(' ')
            .map(String::from)
            .collect();
        ids.extend(BINOPS.iter().map(|b| bin_id(*b).to_string()));
        ids.extend(UNOPS.iter().map(|u| un_id(*u).to_string()));
        ids.extend(builtins().into_iter().map(builtin_id));
        for id in ids {
            assert!(
                MRT_H.contains(&format!("MRT_OP_{id},")),
                "mrt.h lacks MRT_OP_{id}"
            );
        }
    }

    #[test]
    fn every_scalar_kernel_has_a_c_spelling() {
        // The typed lowering types exactly the ops with a scalar kernel;
        // the emitter must spell each one, or emission would panic.
        use matc_vm::dispatch::ScalarKernel;
        let mut ops: Vec<Op> = BINOPS.iter().map(|b| Op::Bin(*b)).collect();
        ops.extend(UNOPS.iter().map(|u| Op::Un(*u)));
        ops.extend(builtins().into_iter().map(Op::Builtin));
        let mut spelled = 0;
        for op in &ops {
            for arity in 0..=4 {
                let Some((_, reads)) = ScalarKernel::of(op, arity) else {
                    continue;
                };
                let xs: Vec<String> = (0..reads.len()).map(|i| format!("x{i}")).collect();
                let c = scalar_expr(op, &xs).unwrap_or_else(|| panic!("{op:?}/{arity}"));
                // Each operand the kernel reads appears in its spelling
                // (`imag` of a real is 0 whatever it is).
                let read = |x: &String| c.contains(x.as_str()) || *op == Op::Builtin(Builtin::Imag);
                assert!(xs.iter().all(read), "{op:?}: {c}");
                spelled += 1;
            }
        }
        assert!(spelled >= 50, "{spelled}");
        // Division is IEEE division and negation flips a zero's sign,
        // as in the Rust runtime; a negative literal is not decremented.
        let (x, y) = ("x".to_string(), "y".to_string());
        assert_eq!(
            scalar_expr(&Op::Bin(ElemDiv), &[x.clone(), y.clone()]).unwrap(),
            "(x / y)"
        );
        assert_eq!(
            scalar_expr(&Op::Bin(MatLeftDiv), &[x.clone(), y]).unwrap(),
            "(y / x)"
        );
        assert_eq!(scalar_expr(&Op::Un(UnOp::Neg), &[x]).unwrap(), "(-x)");
        let neg = scalar_expr(&Op::Un(UnOp::Neg), &[c_f64(-2.0)]).unwrap();
        assert_eq!(neg, "(-(-2.0))");
    }

    #[test]
    fn user_calls_become_c_calls() {
        let c = emit(&[
            "function f()\nfprintf('%d\\n', g(3));\nend\nfunction y = g(x)\ny = x * 2;\nend\n",
        ]);
        assert!(c.contains("f_g("), "{c}");
        assert!(c.contains("static void f_g"), "{c}");
    }

    #[test]
    fn balanced_braces() {
        let c = emit(&[
            "function f()\na = rand(4, 4);\nif a(1) > 0.5\na = a + 1;\nelse\na = a - 1;\nend\nfprintf('%g\\n', sum(sum(a)));\n",
        ]);
        assert_eq!(
            c.matches('{').count(),
            c.matches('}').count(),
            "brace balance\n{c}"
        );
    }

    #[test]
    fn probes_off_is_byte_identical_and_on_adds_probe_calls() {
        let ast = parse_program([
            "function f()\na = rand(4, 4);\nb = a + 1;\nfprintf('%g\\n', sum(sum(b)));\n",
        ])
        .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let plain = emit_program(&compiled);
        let off = emit_program_with(&compiled, EmitOptions { probes: false });
        assert_eq!(plain, off, "probes-off emission must be byte-identical");
        let on = emit_program_with(&compiled, EmitOptions { probes: true });
        assert!(on.contains("mrt_probe_bind("), "{on}");
        assert!(on.contains("mrt_probe_def("), "{on}");
        assert!(on.contains("mrt_probe_report();"), "{on}");
        assert!(!plain.contains("mrt_probe_"), "{plain}");
    }

    #[test]
    fn part_emission_concatenates_to_whole_program() {
        // The incremental batch driver stitches cached per-function
        // fragments between the prologue and epilogue; that is only
        // sound if the split emitters reproduce emit_program_with
        // byte for byte.
        let ast = parse_program(["function f()\nfprintf('%d\\n', g(3) + h(4));\nend\n\
             function y = g(x)\ny = x * 2;\nend\n\
             function y = h(x)\na = rand(4, 4);\ny = x + sum(sum(a));\nend\n"])
        .unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        for probes in [false, true] {
            let whole = emit_program_with(&compiled, EmitOptions { probes });
            let mut stitched = emit_unit_prologue(&compiled.ir.functions);
            for (i, f) in compiled.ir.functions.iter().enumerate() {
                let plan = compiled.plans.plan(FuncId::new(i));
                stitched.push_str(&emit_function_unit(f, plan, probes.then_some(i)));
            }
            stitched.push_str(&emit_unit_epilogue(&compiled.ir.entry_func().name, probes));
            assert_eq!(whole, stitched, "probes={probes}");
        }
    }

    #[test]
    fn main_invokes_entry() {
        let c = emit(&["function entryfn()\nfprintf('hi\\n');\n"]);
        assert!(c.contains("int main(void)"));
        assert!(c.contains("f_entryfn();"));
    }

    #[test]
    fn whole_benchmark_emits() {
        use matc_benchsuite::{by_name, Preset};
        let bench = by_name("fiff").unwrap();
        let sources = bench.sources(Preset::Test);
        let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        let ast = parse_program(refs).unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let c = emit_program(&compiled);
        assert!(c.contains("f_fiff"), "{}", &c[..c.len().min(2000)]);
        assert!(c.len() > 2000);
    }
}
