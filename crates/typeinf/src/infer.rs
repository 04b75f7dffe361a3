//! The type-inference engine (the MAGICA substitute, §3.1).
//!
//! For every SSA variable of every function the engine infers:
//!
//! * an **intrinsic type** `t(v)` on the chain lattice (value-range
//!   refined, so `eye`'s output and the literal `1` are both BOOLEAN, as
//!   in the paper's Example 2);
//! * a **shape tuple** `s(v)` with symbolic extents, interned so that
//!   symbolically equivalent shapes are *identical handles* — the reuse
//!   property Phase 2's partial order exploits;
//! * a **value range** `ϱ(v)` and, for integral scalars, a **symbolic
//!   value expression** connecting scalar dataflow to array extents
//!   (`m = size(a,1); b = zeros(m,1)` gives `b` extent `s(a)₁`);
//! * a symbolic **upper bound** on subscript values (`maxval`), which
//!   lets `subsasgn` growth produce `max(extent, bound)` extents.
//!
//! Inference is interprocedural: functions are analyzed on demand at
//! call sites with the join of all observed argument facts, iterating to
//! a global fixpoint (recursion falls back to unknown facts, i.e.
//! COMPLEX scalars of unknown shape, exactly MAGICA's "assume nothing"
//! default from Example 1).

use crate::exprs::{ExprCtx, ExprId};
use crate::intrinsic::Intrinsic;
use crate::range::Range;
use crate::shape::Shape;
use matc_frontend::ast::{BinOp, UnOp};
use matc_ir::canon::{put_f64, put_int, put_len, put_str, put_uint};
use matc_ir::ids::{FuncId, VarId};
use matc_ir::instr::{Const, InstrKind, Op, Operand};
use matc_ir::{Budget, BudgetError, Builtin, FuncIr, IrProgram};
use std::collections::HashMap;

/// Everything inferred about one SSA variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarFacts {
    /// Intrinsic (element) type `t(v)`.
    pub intrinsic: Intrinsic,
    /// Shape tuple `s(v)`.
    pub shape: Shape,
    /// Range of the variable's (elements') values.
    pub range: Range,
    /// Symbolic value, when the variable is an integral scalar.
    pub value: Option<ExprId>,
    /// Symbolic upper bound over all element values (used for subscript
    /// vectors; scalars fall back to `value`).
    pub maxval: Option<ExprId>,
}

impl VarFacts {
    /// The "assume nothing" element: COMPLEX, unknown shape, ⊤ range.
    pub fn unknown(cx: &mut ExprCtx, hint: &str) -> VarFacts {
        VarFacts {
            intrinsic: Intrinsic::Complex,
            shape: Shape::fresh(cx, hint),
            range: Range::top(),
            value: None,
            maxval: None,
        }
    }

    /// Facts for an exact real scalar.
    pub fn exact_scalar(cx: &mut ExprCtx, v: f64) -> VarFacts {
        let range = Range::exact(v);
        let value = (range.integral && v.abs() < 9e15).then(|| cx.constant(v as i64));
        VarFacts {
            intrinsic: Intrinsic::for_range(v, v, range.integral),
            shape: Shape::scalar(cx),
            range,
            value,
            maxval: value,
        }
    }

    /// The symbolic upper bound on values: explicit `maxval`, else the
    /// scalar `value`.
    pub fn upper_bound(&self) -> Option<ExprId> {
        self.maxval.or(self.value)
    }

    /// Pointwise lattice join.
    pub fn join(&self, other: &VarFacts, cx: &mut ExprCtx) -> VarFacts {
        VarFacts {
            intrinsic: self.intrinsic.join(other.intrinsic),
            shape: self.shape.join(&other.shape, cx),
            range: self.range.join(other.range),
            value: match (self.value, other.value) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            maxval: match (self.upper_bound(), other.upper_bound()) {
                (Some(a), Some(b)) => Some(cx.max(a, b)),
                _ => None,
            },
        }
    }
}

/// Inference results for one function (indexed by [`VarId`]).
#[derive(Debug, Clone, Default)]
pub struct FuncTypes {
    facts: Vec<Option<VarFacts>>,
    /// Whether each variable's every value is exactly 1×1
    /// ([`crate::exact`]), by [`VarId`] index.
    exact: Vec<bool>,
}

impl FuncTypes {
    /// Whether every value of `v` is exactly 1×1 ([`crate::exact`]);
    /// its shape fact alone is only an upper bound.
    pub fn is_exact_scalar(&self, v: VarId) -> bool {
        self.exact.get(v.index()).copied().unwrap_or(false)
    }

    /// Facts for `v`, if inferred (undefined/unreachable variables have
    /// none).
    pub fn get(&self, v: VarId) -> Option<&VarFacts> {
        self.facts.get(v.index()).and_then(|f| f.as_ref())
    }

    /// All inferred `(variable, facts)` pairs, in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarFacts)> {
        self.facts
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (VarId::new(i), f)))
    }

    fn set(&mut self, v: VarId, f: VarFacts) {
        if v.index() >= self.facts.len() {
            self.facts.resize(v.index() + 1, None);
        }
        self.facts[v.index()] = Some(f);
    }
}

/// Inference results for a whole program.
#[derive(Debug, Clone)]
pub struct ProgramTypes {
    /// The shared symbolic-expression arena.
    pub ctx: ExprCtx,
    /// Per-function facts, indexed by [`FuncId`].
    pub funcs: Vec<FuncTypes>,
}

impl ProgramTypes {
    /// Facts for variable `v` of function `f`.
    pub fn facts(&self, f: FuncId, v: VarId) -> Option<&VarFacts> {
        self.funcs.get(f.index()).and_then(|ft| ft.get(v))
    }

    /// Program-wide inference counters — the engine's contribution to
    /// the batch driver's per-unit metrics.
    pub fn summary(&self) -> TypeSummary {
        let mut s = TypeSummary {
            facts: 0,
            scalars: 0,
            explicit_shapes: 0,
        };
        for ft in &self.funcs {
            for (_, f) in ft.iter() {
                s.facts += 1;
                if f.shape.is_scalar(&self.ctx) {
                    s.scalars += 1;
                }
                if f.shape.is_explicit(&self.ctx) {
                    s.explicit_shapes += 1;
                }
            }
        }
        s
    }

    /// The canonical, arena-independent walk of one function's
    /// inference facts: every variable's intrinsic, shape, range,
    /// symbolic value/bound and exact-scalar bit, in variable order, with symbols renumbered
    /// by first occurrence *within this function* (see
    /// [`ExprCtx::walk_canonical`]). Two functions that walk
    /// identically plan, audit and emit identically.
    /// [`ProgramTypes::encode_canonical_facts`] (a fragment-key
    /// ingredient of the incremental artifact store) and
    /// [`ProgramTypes::canonical_func_facts`] are its two renderings.
    pub fn walk_func_facts(&self, f: FuncId, visit: &mut impl FnMut(FactStep<'_>)) {
        let mut renumber = HashMap::new();
        let Some(ft) = self.funcs.get(f.index()) else {
            return;
        };
        for (v, facts) in ft.iter() {
            let VarFacts {
                intrinsic,
                shape,
                range,
                value,
                maxval,
            } = facts;
            visit(FactStep::Var(v, *intrinsic));
            let dims: &[ExprId] = match shape {
                Shape::Tuple(dims) => {
                    visit(FactStep::Tuple(dims.len()));
                    dims
                }
                Shape::Any(e) => {
                    visit(FactStep::Any);
                    std::slice::from_ref(e)
                }
            };
            for d in dims {
                self.ctx.walk_canonical(*d, &mut renumber, visit);
            }
            visit(FactStep::Close);
            visit(FactStep::Range(*range));
            visit(FactStep::Value(value.is_some()));
            if let Some(e) = value {
                self.ctx.walk_canonical(*e, &mut renumber, visit);
            }
            visit(FactStep::MaxVal(maxval.is_some()));
            if let Some(e) = maxval {
                self.ctx.walk_canonical(*e, &mut renumber, visit);
            }
            visit(FactStep::Exact(ft.is_exact_scalar(v)));
        }
    }

    /// Appends the byte rendering of [`ProgramTypes::walk_func_facts`]
    /// to `out`, in the `matc_ir::canon` encoding. Arities make the
    /// stream self-delimiting, so closing steps write nothing.
    pub fn encode_canonical_facts(&self, f: FuncId, out: &mut Vec<u8>) {
        self.walk_func_facts(f, &mut |step| match step {
            FactStep::Var(v, t) => {
                out.push(0);
                put_uint(out, u64::from(v.0));
                out.push(match t {
                    Intrinsic::Bool => 0,
                    Intrinsic::Byte => 1,
                    Intrinsic::Int => 2,
                    Intrinsic::Real => 3,
                    Intrinsic::Complex => 4,
                    Intrinsic::Illegal => 5,
                });
            }
            FactStep::Tuple(n) => {
                out.push(1);
                put_len(out, n);
            }
            FactStep::Any => out.push(2),
            FactStep::Range(Range { lo, hi, integral }) => {
                out.push(3);
                put_f64(out, lo);
                put_f64(out, hi);
                out.push(u8::from(integral));
            }
            FactStep::Value(some) => out.push(4 + u8::from(some)),
            FactStep::MaxVal(some) => out.push(6 + u8::from(some)),
            FactStep::Exact(exact) => out.push(11 + u8::from(exact)),
            FactStep::Const(c) => {
                out.push(8);
                put_int(out, c);
            }
            FactStep::Sym { n, nonneg, name } => {
                out.push(9);
                put_len(out, n);
                out.push(u8::from(nonneg));
                put_str(out, name);
            }
            FactStep::Node(kind, n) => {
                out.push(10);
                put_str(out, kind);
                put_len(out, n);
            }
            FactStep::Close => {}
        });
    }

    /// The text rendering of [`ProgramTypes::walk_func_facts`], one
    /// line per variable:
    /// `v3: t=Real shape=(1,add(s0+n,1)) range=… value=- maxval=-`.
    pub fn canonical_func_facts(&self, f: FuncId) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Per open list: its closing delimiter and whether it already
        // holds an item (so the next one needs a comma).
        let mut open: Vec<(char, bool)> = Vec::new();
        self.walk_func_facts(f, &mut |step| {
            if matches!(
                step,
                FactStep::Const(_) | FactStep::Sym { .. } | FactStep::Node(..)
            ) {
                if let Some((_, seen)) = open.last_mut() {
                    if *seen {
                        out.push(',');
                    }
                    *seen = true;
                }
            }
            let _ = match step {
                FactStep::Var(v, t) => {
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    write!(out, "v{}: t={t:?} shape=", v.index())
                }
                FactStep::Tuple(_) => {
                    open.push((')', false));
                    write!(out, "(")
                }
                FactStep::Any => {
                    open.push((']', false));
                    write!(out, "any[")
                }
                FactStep::Node(kind, _) => {
                    open.push((')', false));
                    write!(out, "{kind}(")
                }
                FactStep::Close => write!(out, "{}", open.pop().map_or(')', |(c, _)| c)),
                FactStep::Range(r) => write!(out, " range={r:?}"),
                FactStep::Value(some) => write!(out, " value={}", if some { "" } else { "-" }),
                FactStep::MaxVal(some) => write!(out, " maxval={}", if some { "" } else { "-" }),
                FactStep::Exact(exact) => write!(out, "{}", if exact { " exact" } else { "" }),
                FactStep::Const(c) => write!(out, "{c}"),
                FactStep::Sym { n, nonneg, name } => {
                    write!(out, "s{n}{}{name}", if nonneg { '+' } else { '?' })
                }
            };
        });
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

/// One step of [`ProgramTypes::walk_func_facts`]. Expressions come in
/// prefix order: a [`FactStep::Node`] announces its operand count and
/// [`FactStep::Close`] ends it, as it ends a shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactStep<'a> {
    /// A variable's facts begin, with its intrinsic type; its shape
    /// follows.
    Var(VarId, Intrinsic),
    /// A known-rank shape with this many extent expressions.
    Tuple(usize),
    /// An unknown-rank shape: one element-count expression.
    Any,
    /// The variable's value range.
    Range(Range),
    /// Whether a symbolic value expression follows.
    Value(bool),
    /// Whether a symbolic upper-bound expression follows.
    MaxVal(bool),
    /// Whether the variable is an exact scalar; ends its facts.
    Exact(bool),
    /// An integer constant.
    Const(i64),
    /// A symbol, numbered by first occurrence within the function.
    Sym {
        /// The symbol's canonical number.
        n: usize,
        /// Whether the symbol is known nonnegative.
        nonneg: bool,
        /// Its debug name.
        name: &'a str,
    },
    /// A sum (`"add"`), product (`"mul"`) or maximum (`"max"`) with
    /// this many operands.
    Node(&'static str, usize),
    /// Ends the innermost shape or node.
    Close,
}

/// Aggregate inference counters (see [`ProgramTypes::summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeSummary {
    /// Variables with inference facts.
    pub facts: usize,
    /// Of those, provably `1 × 1`.
    pub scalars: usize,
    /// Of those, with fully explicit (constant-extent) shapes.
    pub explicit_shapes: usize,
}

/// Runs interprocedural inference over an SSA program.
///
/// # Panics
///
/// Panics if a function is not in SSA form.
///
/// # Examples
///
/// ```
/// use matc_frontend::parser::parse_program;
/// use matc_ir::build_ssa;
/// use matc_typeinf::infer::infer_program;
///
/// let ast = parse_program(["function y = f(n)\ny = zeros(3, 3);\n"]).unwrap();
/// let ir = build_ssa(&ast).unwrap();
/// let types = infer_program(&ir);
/// let f = ir.entry.unwrap();
/// let out = ir.entry_func().ssa_outs[0];
/// let facts = types.facts(f, out).unwrap();
/// assert!(facts.shape.is_explicit(&types.ctx));
/// ```
pub fn infer_program(prog: &IrProgram) -> ProgramTypes {
    let budget = Budget::unlimited();
    infer_program_budgeted(prog, &budget).expect("unlimited budget cannot trip")
}

/// [`infer_program`] under a [`Budget`]: the interprocedural fixpoint
/// charges one fuel unit per instruction transfer and observes the
/// phase wall-clock deadline (armed here under the phase name
/// `"type_infer"`).
///
/// # Errors
///
/// Returns the [`BudgetError`] that tripped; any partially inferred
/// facts are discarded, so callers either fall back to a conservative
/// lowering or fail the unit — they never observe half-inferred types.
///
/// # Panics
///
/// Panics if a function is not in SSA form.
pub fn infer_program_budgeted(
    prog: &IrProgram,
    budget: &Budget,
) -> Result<ProgramTypes, BudgetError> {
    budget.enter_phase("type_infer");
    let mut eng = Engine {
        prog,
        budget,
        tripped: None,
        cx: ExprCtx::new(),
        summaries: (0..prog.functions.len())
            .map(|_| Summary::default())
            .collect(),
        in_progress: vec![false; prog.functions.len()],
        round_changed: false,
    };
    if let Some(entry) = prog.entry {
        // The entry takes no observable arguments: unknown facts.
        let nparams = prog.func(entry).params.len();
        let args: Vec<VarFacts> = (0..nparams)
            .map(|i| VarFacts::unknown(&mut eng.cx, &format!("entry_arg{i}")))
            .collect();
        for round in 0..8 {
            eng.round_changed = false;
            eng.call(entry, args.clone());
            if !eng.round_changed || round == 7 || eng.tripped.is_some() {
                break;
            }
        }
    }
    // Also analyze never-called functions (dead code) so every function
    // has facts — with unknown arguments.
    for (i, f) in prog.functions.iter().enumerate() {
        if eng.tripped.is_some() {
            break;
        }
        let fid = FuncId::new(i);
        if eng.summaries[i].types.is_none() {
            let args: Vec<VarFacts> = (0..f.params.len())
                .map(|k| VarFacts::unknown(&mut eng.cx, &format!("{}_arg{k}", f.name)))
                .collect();
            eng.call(fid, args);
        }
    }
    if let Some(err) = eng.tripped {
        return Err(err);
    }
    Ok(ProgramTypes {
        funcs: eng
            .summaries
            .into_iter()
            .zip(crate::exact::exact_scalars(prog))
            .map(|(s, exact)| FuncTypes {
                exact,
                ..s.types.unwrap_or_default()
            })
            .collect(),
        ctx: eng.cx,
    })
}

#[derive(Default)]
struct Summary {
    /// Join of argument facts over all observed call sites.
    arg_facts: Option<Vec<VarFacts>>,
    /// Return facts of the last analysis.
    ret_facts: Option<Vec<VarFacts>>,
    /// Body facts of the last analysis.
    types: Option<FuncTypes>,
}

struct Engine<'p> {
    prog: &'p IrProgram,
    budget: &'p Budget,
    /// First budget trip observed; once set, all fixpoint loops drain
    /// without doing further work and the whole inference fails.
    tripped: Option<BudgetError>,
    cx: ExprCtx,
    summaries: Vec<Summary>,
    in_progress: Vec<bool>,
    round_changed: bool,
}

impl Engine<'_> {
    /// Charges work against the budget; records the first trip and
    /// reports `false` so iteration stops.
    fn charge(&mut self, units: u64) -> bool {
        if self.tripped.is_some() {
            return false;
        }
        match self.budget.spend(units) {
            Ok(()) => true,
            Err(e) => {
                self.tripped = Some(e);
                false
            }
        }
    }

    /// Records a call to `fid` with `args` facts; (re)analyzes if the
    /// argument join changed; returns the callee's return facts.
    fn call(&mut self, fid: FuncId, args: Vec<VarFacts>) -> Vec<VarFacts> {
        let func = self.prog.func(fid);
        let nouts = func.ssa_outs.len();
        if self.tripped.is_some() {
            // Budget already blown: answer with unknowns and unwind the
            // in-flight fixpoint without further analysis work.
            return (0..nouts)
                .map(|_| VarFacts::unknown(&mut self.cx, "budget_tripped"))
                .collect();
        }
        // Pad missing arguments with unknowns.
        let mut args = args;
        while args.len() < func.params.len() {
            args.push(VarFacts::unknown(&mut self.cx, "missing_arg"));
        }
        // Join into the summary.
        let changed = {
            let prev = self.summaries[fid.index()].arg_facts.take();
            let joined = match &prev {
                None => args,
                Some(prev) => prev
                    .iter()
                    .zip(&args)
                    .map(|(a, b)| a.join(b, &mut self.cx))
                    .collect(),
            };
            let changed = prev.as_ref() != Some(&joined);
            self.summaries[fid.index()].arg_facts = Some(joined);
            changed || self.summaries[fid.index()].types.is_none()
        };

        if self.in_progress[fid.index()] {
            // Recursive cycle: answer with unknowns; the outer fixpoint
            // rounds stabilize the summary.
            return (0..nouts)
                .map(|_| VarFacts::unknown(&mut self.cx, "recursive_ret"))
                .collect();
        }
        if changed {
            self.round_changed = true;
            self.analyze(fid);
        }
        self.summaries[fid.index()]
            .ret_facts
            .clone()
            .unwrap_or_else(|| {
                (0..nouts)
                    .map(|_| VarFacts::unknown(&mut self.cx, "no_ret"))
                    .collect()
            })
    }

    /// Intraprocedural fixpoint over one function body.
    fn analyze(&mut self, fid: FuncId) {
        let func = self.prog.func(fid);
        assert!(func.in_ssa, "type inference requires SSA form");
        self.in_progress[fid.index()] = true;

        let mut body = BodyInfer {
            func,
            fid,
            types: FuncTypes::default(),
            site_syms: HashMap::new(),
            widen_syms: HashMap::new(),
            change_count: HashMap::new(),
        };
        // Seed parameters from the summary.
        let arg_facts = self.summaries[fid.index()]
            .arg_facts
            .clone()
            .unwrap_or_default();
        for (p, f) in func.params.iter().zip(arg_facts) {
            body.types.set(*p, f);
        }
        for p in func.params.iter().skip(
            self.summaries[fid.index()]
                .arg_facts
                .as_ref()
                .map_or(0, |a| a.len()),
        ) {
            let f = VarFacts::unknown(&mut self.cx, "param");
            body.types.set(*p, f);
        }

        let rpo = func.reverse_postorder();
        'fixpoint: for _iter in 0..10 {
            let mut changed = false;
            for &b in &rpo {
                for instr in &func.block(b).instrs {
                    if !self.charge(1) {
                        break 'fixpoint;
                    }
                    changed |= body.transfer(self, instr);
                }
            }
            if !changed {
                break;
            }
        }

        let ret_facts: Vec<VarFacts> = func
            .ssa_outs
            .iter()
            .map(|o| {
                body.types
                    .get(*o)
                    .cloned()
                    .unwrap_or_else(|| VarFacts::unknown(&mut self.cx, "out"))
            })
            .collect();
        let types = std::mem::take(&mut body.types);
        self.summaries[fid.index()].ret_facts = Some(ret_facts);
        self.summaries[fid.index()].types = Some(types);
        self.in_progress[fid.index()] = false;
    }
}

struct BodyInfer<'f> {
    func: &'f FuncIr,
    #[allow(dead_code)]
    fid: FuncId,
    types: FuncTypes,
    /// Stable fresh symbols per (variable, slot) — extents of `rand(n)`
    /// etc. must not change across fixpoint iterations.
    site_syms: HashMap<(VarId, usize), ExprId>,
    /// Stable widening symbols per variable.
    widen_syms: HashMap<VarId, ExprId>,
    change_count: HashMap<VarId, u32>,
}

impl BodyInfer<'_> {
    fn fact(&mut self, eng: &mut Engine<'_>, v: VarId) -> VarFacts {
        match self.types.get(v) {
            Some(f) => f.clone(),
            None => VarFacts::unknown(&mut eng.cx, "pending"),
        }
    }

    fn operand_fact(&mut self, eng: &mut Engine<'_>, o: &Operand) -> VarFacts {
        match o.as_var() {
            Some(v) => self.fact(eng, v),
            None => VarFacts::unknown(&mut eng.cx, "colon"),
        }
    }

    fn site_sym(&mut self, eng: &mut Engine<'_>, v: VarId, slot: usize) -> ExprId {
        if let Some(e) = self.site_syms.get(&(v, slot)) {
            return *e;
        }
        let name = format!("{}#{slot}", self.func.vars.display_name(v));
        let e = eng.cx.fresh_sym(name, true);
        self.site_syms.insert((v, slot), e);
        e
    }

    /// Updates `dst`'s facts, applying widening when oscillating;
    /// returns whether anything changed.
    fn update(&mut self, eng: &mut Engine<'_>, dst: VarId, new: VarFacts) -> bool {
        let old = self.types.get(dst).cloned();
        if old.as_ref() == Some(&new) {
            return false;
        }
        let count = self.change_count.entry(dst).or_insert(0);
        *count += 1;
        let mut val = new;
        if *count > 4 {
            // Widen only the oscillating components so stable facts (a
            // loop counter's scalar shape, say) survive.
            if let Some(prev) = &old {
                val.range = val.range.join(prev.range).widen(prev.range);
                val.intrinsic = val.intrinsic.join(prev.intrinsic);
                if val.shape != prev.shape {
                    let wsym = *self.widen_syms.entry(dst).or_insert_with(|| {
                        eng.cx
                            .fresh_sym(format!("widen_{}", self.func.vars.display_name(dst)), true)
                    });
                    val.shape = Shape::Any(wsym);
                }
                if val.value != prev.value {
                    val.value = None;
                }
                if val.maxval != prev.maxval {
                    val.maxval = None;
                }
            }
            if old.as_ref() == Some(&val) {
                return false;
            }
        }
        self.types.set(dst, val);
        true
    }

    fn transfer(&mut self, eng: &mut Engine<'_>, instr: &matc_ir::Instr) -> bool {
        match &instr.kind {
            InstrKind::Const { dst, value } => {
                let f = self.const_facts(eng, value);
                self.update(eng, *dst, f)
            }
            InstrKind::Copy { dst, src } => {
                let f = self.fact(eng, *src);
                self.update(eng, *dst, f)
            }
            InstrKind::Phi { dst, args } => {
                let mut acc: Option<VarFacts> = None;
                for (_, v) in args {
                    if let Some(f) = self.types.get(*v).cloned() {
                        acc = Some(match acc {
                            None => f,
                            Some(a) => a.join(&f, &mut eng.cx),
                        });
                    }
                }
                match acc {
                    Some(f) => self.update(eng, *dst, f),
                    None => false, // all inputs pending; retry next pass
                }
            }
            InstrKind::Compute { dst, op, args } => {
                let f = self.compute_facts(eng, *dst, op, args);
                self.update(eng, *dst, f)
            }
            InstrKind::CallMulti { dsts, func, args } => {
                let facts: Vec<VarFacts> = args.iter().map(|a| self.operand_fact(eng, a)).collect();
                let rets = self.call_multi_facts(eng, dsts, func, &facts);
                let mut changed = false;
                for (d, f) in dsts.iter().zip(rets) {
                    changed |= self.update(eng, *d, f);
                }
                changed
            }
            InstrKind::Display { .. } | InstrKind::Effect { .. } => false,
        }
    }

    fn const_facts(&mut self, eng: &mut Engine<'_>, c: &Const) -> VarFacts {
        let cx = &mut eng.cx;
        match c {
            Const::Num(v) => VarFacts::exact_scalar(cx, *v),
            Const::Bool(b) => {
                let mut f = VarFacts::exact_scalar(cx, if *b { 1.0 } else { 0.0 });
                f.intrinsic = Intrinsic::Bool;
                f
            }
            Const::Imag(v) => VarFacts {
                intrinsic: Intrinsic::Complex,
                shape: Shape::scalar(cx),
                range: Range::new(0.0, 0.0, false).join(Range::exact(*v)),
                value: None,
                maxval: None,
            },
            Const::Str(s) => {
                let one = cx.constant(1);
                let len = cx.constant(s.len() as i64);
                VarFacts {
                    intrinsic: Intrinsic::Byte,
                    shape: Shape::Tuple(vec![one, len]),
                    range: Range::new(0.0, 255.0, true),
                    value: None,
                    maxval: None,
                }
            }
            Const::Empty => VarFacts {
                intrinsic: Intrinsic::Bool,
                shape: Shape::empty(cx),
                range: Range::new(0.0, 0.0, true),
                value: None,
                maxval: None,
            },
        }
    }

    /// Shape of an elementwise application with MATLAB scalar expansion.
    fn elementwise_shape(&mut self, eng: &mut Engine<'_>, a: &VarFacts, b: &VarFacts) -> Shape {
        let cx = &mut eng.cx;
        if a.shape.is_scalar(cx) {
            b.shape.clone()
        } else if b.shape.is_scalar(cx) {
            a.shape.clone()
        } else {
            a.shape.unify_equal(&b.shape, cx)
        }
    }

    fn compute_facts(
        &mut self,
        eng: &mut Engine<'_>,
        dst: VarId,
        op: &Op,
        args: &[Operand],
    ) -> VarFacts {
        match op {
            Op::Bin(b) => self.bin_facts(eng, *b, args),
            Op::Un(u) => self.un_facts(eng, *u, args),
            Op::Subsref => self.subsref_facts(eng, dst, args),
            Op::Subsasgn => self.subsasgn_facts(eng, dst, args),
            Op::Range2 | Op::Range3 => self.range_facts(eng, dst, op, args),
            Op::MatrixBuild { rows } => self.matrix_facts(eng, dst, rows, args),
            Op::Builtin(bi) => self.builtin_facts(eng, dst, *bi, args),
            Op::Call(name) => {
                let facts: Vec<VarFacts> = args.iter().map(|a| self.operand_fact(eng, a)).collect();
                match self.user_call(eng, name, facts) {
                    Some(mut rets) if !rets.is_empty() => rets.swap_remove(0),
                    _ => VarFacts::unknown(&mut eng.cx, "call"),
                }
            }
        }
    }

    fn user_call(
        &mut self,
        eng: &mut Engine<'_>,
        name: &str,
        args: Vec<VarFacts>,
    ) -> Option<Vec<VarFacts>> {
        let fid = *eng.prog.by_name.get(name)?;
        Some(eng.call(fid, args))
    }

    fn bin_facts(&mut self, eng: &mut Engine<'_>, op: BinOp, args: &[Operand]) -> VarFacts {
        let a = self.operand_fact(eng, &args[0]);
        let b = self.operand_fact(eng, &args[1]);
        let complex = a.intrinsic.is_complex() || b.intrinsic.is_complex();
        match op {
            BinOp::Add | BinOp::Sub => {
                let shape = self.elementwise_shape(eng, &a, &b);
                let cx = &mut eng.cx;
                let range = if op == BinOp::Add {
                    a.range.add(b.range)
                } else {
                    a.range.sub(b.range)
                };
                let value = match (a.value, b.value) {
                    (Some(x), Some(y)) if shape.is_scalar(cx) => Some(if op == BinOp::Add {
                        cx.add(x, y)
                    } else {
                        cx.sub(x, y)
                    }),
                    _ => None,
                };
                VarFacts {
                    intrinsic: if complex {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::for_range(range.lo, range.hi, range.integral)
                    },
                    shape,
                    range,
                    value,
                    maxval: value,
                }
            }
            BinOp::ElemMul => {
                let shape = self.elementwise_shape(eng, &a, &b);
                self.mul_like(eng, a, b, shape, complex)
            }
            BinOp::MatMul => {
                let cx = &mut eng.cx;
                let shape = if a.shape.is_scalar(cx) {
                    b.shape.clone()
                } else if b.shape.is_scalar(cx) {
                    a.shape.clone()
                } else {
                    match (&a.shape, &b.shape) {
                        (Shape::Tuple(x), Shape::Tuple(y)) if x.len() == 2 && y.len() == 2 => {
                            Shape::Tuple(vec![x[0], y[1]])
                        }
                        _ => Shape::fresh(cx, "matmul"),
                    }
                };
                let scalar_case = a.shape.is_scalar(&eng.cx) || b.shape.is_scalar(&eng.cx);
                if scalar_case {
                    self.mul_like(eng, a, b, shape, complex)
                } else {
                    VarFacts {
                        intrinsic: if complex {
                            Intrinsic::Complex
                        } else {
                            Intrinsic::Real
                        },
                        shape,
                        range: Range::new(
                            f64::NEG_INFINITY,
                            f64::INFINITY,
                            a.range.integral && b.range.integral,
                        ),
                        value: None,
                        maxval: None,
                    }
                }
            }
            BinOp::ElemDiv | BinOp::ElemLeftDiv => {
                let shape = self.elementwise_shape(eng, &a, &b);
                let (num, den) = if op == BinOp::ElemDiv {
                    (&a, &b)
                } else {
                    (&b, &a)
                };
                let range = exact_div_range(num, den);
                VarFacts {
                    intrinsic: if complex {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::for_range(range.lo, range.hi, range.integral)
                    },
                    shape,
                    range,
                    value: None,
                    maxval: None,
                }
            }
            BinOp::MatDiv | BinOp::MatLeftDiv => {
                let cx = &mut eng.cx;
                // Scalar divisor (or dividend for `\`) keeps the other
                // operand's shape; the general case is a solve.
                let shape = if op == BinOp::MatDiv && b.shape.is_scalar(cx) {
                    a.shape.clone()
                } else if op == BinOp::MatLeftDiv && a.shape.is_scalar(cx) {
                    b.shape.clone()
                } else if a.shape.is_scalar(cx) && b.shape.is_scalar(cx) {
                    Shape::scalar(cx)
                } else {
                    Shape::fresh(cx, "mdiv")
                };
                // Scalar divisions keep exact ranges (loop bounds like
                // `round(n / 2)` depend on this).
                let scalar_div = (op == BinOp::MatDiv && b.shape.is_scalar(&eng.cx))
                    || (op == BinOp::MatLeftDiv && a.shape.is_scalar(&eng.cx));
                let range = if scalar_div {
                    let (num, den) = if op == BinOp::MatDiv {
                        (&a, &b)
                    } else {
                        (&b, &a)
                    };
                    exact_div_range(num, den)
                } else {
                    Range::top()
                };
                VarFacts {
                    intrinsic: if complex {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::for_range(range.lo, range.hi, range.integral)
                    },
                    shape,
                    range,
                    value: None,
                    maxval: None,
                }
            }
            BinOp::MatPow | BinOp::ElemPow => {
                let cx = &mut eng.cx;
                let shape = if op == BinOp::ElemPow {
                    self.elementwise_shape(eng, &a, &b)
                } else if a.shape.is_scalar(cx) && b.shape.is_scalar(cx) {
                    Shape::scalar(cx)
                } else {
                    a.shape.clone() // A^k keeps A's (square) shape
                };
                // Negative base with fractional exponent goes complex.
                let may_complex = complex || (!a.range.nonneg() && !b.range.integral);
                VarFacts {
                    intrinsic: if may_complex {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::Real
                    },
                    shape,
                    range: if a.range.nonneg() && b.range.integral {
                        Range::new(0.0, f64::INFINITY, false)
                    } else {
                        Range::top()
                    },
                    value: None,
                    maxval: None,
                }
            }
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => {
                let shape = self.elementwise_shape(eng, &a, &b);
                VarFacts {
                    intrinsic: Intrinsic::Bool,
                    shape,
                    range: Range::boolean(),
                    value: None,
                    maxval: None,
                }
            }
            BinOp::ShortAnd | BinOp::ShortOr => {
                // Lowered to control flow before IR; defensive default.
                let shape = Shape::scalar(&mut eng.cx);
                VarFacts {
                    intrinsic: Intrinsic::Bool,
                    shape,
                    range: Range::boolean(),
                    value: None,
                    maxval: None,
                }
            }
        }
    }

    fn mul_like(
        &mut self,
        eng: &mut Engine<'_>,
        a: VarFacts,
        b: VarFacts,
        shape: Shape,
        complex: bool,
    ) -> VarFacts {
        let cx = &mut eng.cx;
        let range = a.range.mul(b.range);
        let value = match (a.value, b.value) {
            (Some(x), Some(y)) if shape.is_scalar(cx) => Some(cx.mul(x, y)),
            _ => None,
        };
        VarFacts {
            intrinsic: if complex {
                Intrinsic::Complex
            } else {
                Intrinsic::for_range(range.lo, range.hi, range.integral)
            },
            shape,
            range,
            value,
            maxval: value,
        }
    }

    fn un_facts(&mut self, eng: &mut Engine<'_>, op: UnOp, args: &[Operand]) -> VarFacts {
        let a = self.operand_fact(eng, &args[0]);
        let cx = &mut eng.cx;
        match op {
            UnOp::Neg => {
                let range = a.range.neg();
                let value = a.value.map(|v| cx.scale(-1, v));
                VarFacts {
                    intrinsic: if a.intrinsic.is_complex() {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::for_range(range.lo, range.hi, range.integral)
                    },
                    shape: a.shape,
                    range,
                    value,
                    maxval: value,
                }
            }
            UnOp::Plus => a,
            UnOp::Not => VarFacts {
                intrinsic: Intrinsic::Bool,
                shape: a.shape,
                range: Range::boolean(),
                value: None,
                maxval: None,
            },
            UnOp::Transpose | UnOp::CTranspose => {
                let shape = match &a.shape {
                    Shape::Tuple(d) if d.len() == 2 => Shape::Tuple(vec![d[1], d[0]]),
                    // numel (and hence the symbolic size) is preserved.
                    other => other.clone(),
                };
                VarFacts {
                    intrinsic: a.intrinsic,
                    shape,
                    range: a.range,
                    value: a.value,
                    maxval: a.maxval,
                }
            }
        }
    }

    fn subsref_facts(&mut self, eng: &mut Engine<'_>, dst: VarId, args: &[Operand]) -> VarFacts {
        let a = self.operand_fact(eng, &args[0]);
        let subs = &args[1..];
        let sub_facts: Vec<Option<VarFacts>> = subs
            .iter()
            .map(|s| s.as_var().map(|v| self.fact(eng, v)))
            .collect();
        let cx = &mut eng.cx;

        let all_scalar = sub_facts
            .iter()
            .all(|f| f.as_ref().is_some_and(|f| f.shape.is_scalar(cx)));
        let element_facts = |cx: &mut ExprCtx| VarFacts {
            intrinsic: a.intrinsic,
            shape: Shape::scalar(cx),
            range: a.range,
            value: None,
            maxval: None,
        };
        if all_scalar && !subs.is_empty() {
            return element_facts(cx);
        }
        // Single-subscript forms.
        if subs.len() == 1 {
            let shape = match &sub_facts[0] {
                // a(:) — a column of numel(a) elements.
                None => {
                    let n = a.shape.clone().numel(cx);
                    let one = cx.constant(1);
                    Shape::Tuple(vec![n, one])
                }
                // a(v) — the subscript's shape.
                Some(f) => f.shape.clone(),
            };
            return VarFacts {
                intrinsic: a.intrinsic,
                shape,
                range: a.range,
                value: None,
                maxval: None,
            };
        }
        // Multi-subscript: per-dimension extents.
        let a_dims: Option<Vec<ExprId>> = match &a.shape {
            Shape::Tuple(d) if d.len() == subs.len() => Some(d.clone()),
            _ => None,
        };
        let mut dims = Vec::with_capacity(subs.len());
        for (k, sf) in sub_facts.iter().enumerate() {
            let ext = match sf {
                None => match &a_dims {
                    // `:` keeps the array's extent in that dimension.
                    Some(d) => d[k],
                    None => self.site_sym_cx(eng, dst, k),
                },
                Some(f) if f.shape.is_scalar(&eng.cx) => eng.cx.constant(1),
                Some(f) => {
                    let s = f.shape.clone();
                    s.numel(&mut eng.cx)
                }
            };
            dims.push(ext);
        }
        VarFacts {
            intrinsic: a.intrinsic,
            shape: Shape::Tuple(dims),
            range: a.range,
            value: None,
            maxval: None,
        }
    }

    fn site_sym_cx(&mut self, eng: &mut Engine<'_>, dst: VarId, slot: usize) -> ExprId {
        self.site_sym(eng, dst, slot)
    }

    fn subsasgn_facts(&mut self, eng: &mut Engine<'_>, dst: VarId, args: &[Operand]) -> VarFacts {
        let a = self.operand_fact(eng, &args[0]);
        let r = self.operand_fact(eng, &args[1]);
        let subs = &args[2..];
        let sub_facts: Vec<Option<VarFacts>> = subs
            .iter()
            .map(|s| s.as_var().map(|v| self.fact(eng, v)))
            .collect();

        let intrinsic = a.intrinsic.join(r.intrinsic);
        // Expansion fills with zeros.
        let range = a.range.join(r.range).join(Range::exact(0.0));

        let shape = match (&a.shape, subs.len()) {
            (Shape::Tuple(d), m) if d.len() == m && m >= 2 => {
                let mut dims = Vec::with_capacity(m);
                for (k, sf) in sub_facts.iter().enumerate() {
                    let ext = match sf {
                        // `:` cannot expand the dimension.
                        None => d[k],
                        Some(f) => match f
                            .range
                            .as_exact()
                            .filter(|v| v.fract() == 0.0 && v.abs() < 1e12)
                            .map(|v| eng.cx.constant(v as i64))
                            .or_else(|| f.upper_bound())
                        {
                            Some(ub) => {
                                let nn = if f.range.nonneg() {
                                    ub
                                } else {
                                    let zero = eng.cx.constant(0);
                                    eng.cx.max(ub, zero)
                                };
                                eng.cx.max(d[k], nn)
                            }
                            None => {
                                let s = self.site_sym(eng, dst, k);
                                eng.cx.max(d[k], s)
                            }
                        },
                    };
                    dims.push(ext);
                }
                Shape::Tuple(dims)
            }
            // Linear indexing of a row/column vector extends its length.
            (Shape::Tuple(d), 1) if d.len() == 2 => {
                let ub = sub_facts[0]
                    .as_ref()
                    .and_then(|f| {
                        f.range
                            .as_exact()
                            .filter(|v| v.fract() == 0.0 && v.abs() < 1e12)
                            .map(|v| eng.cx.constant(v as i64))
                            .or_else(|| f.upper_bound())
                    })
                    .unwrap_or_else(|| self.site_sym(eng, dst, 0));
                let one = eng.cx.constant(1);
                let is_row = eng.cx.as_const(d[0]) == Some(1);
                if is_row {
                    let n = eng.cx.max(d[1], ub);
                    Shape::Tuple(vec![one, n])
                } else if eng.cx.as_const(d[1]) == Some(1) {
                    let n = eng.cx.max(d[0], ub);
                    Shape::Tuple(vec![n, one])
                } else {
                    // Linear store into a (possibly) non-vector: shape
                    // kept, growth only legal for vectors at run time.
                    let grown = self.site_sym(eng, dst, 0);
                    let na = a.shape.clone().numel(&mut eng.cx);
                    Shape::Any(eng.cx.max(na, grown))
                }
            }
            _ => {
                // Unknown layout: the result contains at least `a`.
                let grown = self.site_sym(eng, dst, 63);
                let na = a.shape.clone().numel(&mut eng.cx);
                Shape::Any(eng.cx.max(na, grown))
            }
        };
        VarFacts {
            intrinsic,
            shape,
            range,
            value: None,
            maxval: None,
        }
    }

    fn range_facts(
        &mut self,
        eng: &mut Engine<'_>,
        dst: VarId,
        op: &Op,
        args: &[Operand],
    ) -> VarFacts {
        let a = self.operand_fact(eng, &args[0]);
        let last = self.operand_fact(eng, args.last().expect("range has operands"));
        let step = match op {
            Op::Range3 => Some(self.operand_fact(eng, &args[1])),
            _ => None,
        };
        let cx = &mut eng.cx;
        let unit_step = match &step {
            None => true,
            Some(s) => s.range.as_exact() == Some(1.0),
        };
        // Element count.
        let count = match (a.range.as_exact(), last.range.as_exact(), &step) {
            (Some(x), Some(y), None) => Some(cx.constant(((y - x).floor() as i64 + 1).max(0))),
            (Some(x), Some(y), Some(s)) => s.range.as_exact().and_then(|st| {
                if st == 0.0 {
                    None
                } else {
                    Some(cx.constant((((y - x) / st).floor() as i64 + 1).max(0)))
                }
            }),
            _ if unit_step => match (a.value, last.value) {
                (Some(va), Some(vb)) => {
                    let one = cx.constant(1);
                    let diff = cx.sub(vb, va);
                    let len = cx.add(diff, one);
                    // 1:n with n possibly < 1 clamps at zero.
                    if a.range.as_exact() == Some(1.0) && last.range.positive() {
                        Some(len)
                    } else {
                        let zero = cx.constant(0);
                        Some(cx.max(len, zero))
                    }
                }
                _ => None,
            },
            _ => None,
        };
        let count = count.unwrap_or_else(|| self.site_sym(eng, dst, 0));
        let cx = &mut eng.cx;
        let one = cx.constant(1);
        let range = Range {
            lo: a.range.lo.min(last.range.lo),
            hi: a.range.hi.max(last.range.hi),
            integral: a.range.integral
                && last.range.integral
                && step.as_ref().is_none_or(|s| s.range.integral),
        };
        let maxval = match (a.upper_bound(), last.upper_bound()) {
            (Some(x), Some(y)) => Some(cx.max(x, y)),
            _ => None,
        };
        VarFacts {
            intrinsic: if range.integral {
                Intrinsic::for_range(range.lo, range.hi, true)
            } else {
                Intrinsic::Real
            },
            shape: Shape::Tuple(vec![one, count]),
            range,
            value: None,
            maxval,
        }
    }

    fn matrix_facts(
        &mut self,
        eng: &mut Engine<'_>,
        dst: VarId,
        rows: &[usize],
        args: &[Operand],
    ) -> VarFacts {
        let facts: Vec<VarFacts> = args.iter().map(|a| self.operand_fact(eng, a)).collect();
        let cx = &mut eng.cx;
        let all_scalar = facts.iter().all(|f| f.shape.is_scalar(cx));
        let mut intrinsic = Intrinsic::Bool;
        let mut range = Range::exact(0.0);
        let mut first = true;
        for f in &facts {
            intrinsic = intrinsic.join(f.intrinsic);
            range = if first { f.range } else { range.join(f.range) };
            first = false;
        }
        if facts.is_empty() {
            range = Range::exact(0.0);
        }
        let maxval = {
            let mut acc: Option<ExprId> = None;
            let mut ok = true;
            for f in &facts {
                match (acc, f.upper_bound()) {
                    (None, Some(u)) => acc = Some(u),
                    (Some(a), Some(u)) => acc = Some(cx.max(a, u)),
                    (_, None) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                acc
            } else {
                None
            }
        };
        let shape = if all_scalar {
            let r = cx.constant(rows.len() as i64);
            let c = cx.constant(rows.first().copied().unwrap_or(0) as i64);
            Shape::Tuple(vec![r, c])
        } else {
            // Concatenation of non-scalars: sum heights over rows, sum
            // widths within a row.
            let mut idx = 0usize;
            let mut total_h: Option<ExprId> = None;
            let mut width: Option<ExprId> = None;
            let mut degraded = false;
            for &rlen in rows {
                let mut row_w: Option<ExprId> = None;
                let mut row_h: Option<ExprId> = None;
                for _ in 0..rlen {
                    let f = &facts[idx];
                    idx += 1;
                    let (h, w) = match &f.shape {
                        Shape::Tuple(d) if d.len() == 2 => (d[0], d[1]),
                        _ => {
                            degraded = true;
                            break;
                        }
                    };
                    row_h = Some(row_h.unwrap_or(h));
                    row_w = Some(match row_w {
                        None => w,
                        Some(acc) => cx.add(acc, w),
                    });
                }
                if degraded {
                    break;
                }
                if let (Some(h), Some(w)) = (row_h, row_w) {
                    total_h = Some(match total_h {
                        None => h,
                        Some(acc) => cx.add(acc, h),
                    });
                    width = Some(width.unwrap_or(w));
                }
            }
            if degraded {
                Shape::Any(self.site_sym(eng, dst, 0))
            } else {
                match (total_h, width) {
                    (Some(h), Some(w)) => Shape::Tuple(vec![h, w]),
                    _ => Shape::empty(&mut eng.cx),
                }
            }
        };
        VarFacts {
            intrinsic,
            shape,
            range,
            value: None,
            maxval,
        }
    }

    fn extent_from_value(
        &mut self,
        eng: &mut Engine<'_>,
        f: &VarFacts,
        dst: VarId,
        slot: usize,
    ) -> ExprId {
        if let Some(v) = f.range.as_exact() {
            return eng.cx.constant((v as i64).max(0));
        }
        match f.value {
            Some(v) if f.range.nonneg() => v,
            Some(v) => {
                let zero = eng.cx.constant(0);
                eng.cx.max(v, zero)
            }
            None => self.site_sym(eng, dst, slot),
        }
    }

    fn builtin_facts(
        &mut self,
        eng: &mut Engine<'_>,
        dst: VarId,
        bi: Builtin,
        args: &[Operand],
    ) -> VarFacts {
        use Builtin::*;
        let facts: Vec<VarFacts> = args.iter().map(|a| self.operand_fact(eng, a)).collect();
        match bi {
            Zeros | Ones | Eye | Rand => {
                let shape = match facts.len() {
                    0 => Shape::scalar(&mut eng.cx),
                    1 => {
                        let e = self.extent_from_value(eng, &facts[0], dst, 0);
                        Shape::Tuple(vec![e, e])
                    }
                    n => {
                        let dims: Vec<ExprId> = (0..n)
                            .map(|k| self.extent_from_value(eng, &facts[k], dst, k))
                            .collect();
                        Shape::Tuple(dims)
                    }
                };
                let (intrinsic, range) = match bi {
                    Zeros => (Intrinsic::Bool, Range::exact(0.0)),
                    Ones => (Intrinsic::Bool, Range::exact(1.0)),
                    Eye => (Intrinsic::Bool, Range::new(0.0, 1.0, true)),
                    _ => (Intrinsic::Real, Range::new(0.0, 1.0, false)),
                };
                VarFacts {
                    intrinsic,
                    shape,
                    range,
                    value: None,
                    maxval: None,
                }
            }
            Size => {
                // Compute-position size: size(a) -> 1×rank vector,
                // size(a, d) -> scalar extent.
                let a = &facts[0];
                if facts.len() >= 2 {
                    let dim = facts[1].range.as_exact().map(|v| v as usize);
                    let value = match (&a.shape, dim) {
                        (Shape::Tuple(d), Some(k)) if k >= 1 => {
                            // Trailing dimensions have extent 1.
                            Some(if k <= d.len() {
                                d[k - 1]
                            } else {
                                eng.cx.constant(1)
                            })
                        }
                        _ => None,
                    };
                    self.scalar_extent_facts(eng, value, dst, 90)
                } else {
                    let one = eng.cx.constant(1);
                    // An unknown rank gives a symbolic extent, which puts
                    // the result on the heap.
                    let r = match a.shape.rank() {
                        Some(rank) => eng.cx.constant(rank as i64),
                        None => self.site_sym(eng, dst, 95),
                    };
                    VarFacts {
                        intrinsic: Intrinsic::Int,
                        shape: Shape::Tuple(vec![one, r]),
                        range: Range::new(0.0, f64::INFINITY, true),
                        value: None,
                        maxval: None,
                    }
                }
            }
            Numel => {
                let n = facts[0].shape.clone().numel(&mut eng.cx);
                self.scalar_extent_facts(eng, Some(n), dst, 91)
            }
            Length => {
                let value = match &facts[0].shape {
                    Shape::Tuple(d) if !d.is_empty() => {
                        let mut acc = d[0];
                        for e in &d[1..] {
                            acc = eng.cx.max(acc, *e);
                        }
                        Some(acc)
                    }
                    _ => None,
                };
                self.scalar_extent_facts(eng, value, dst, 92)
            }
            Ndims => {
                let value = facts[0].shape.rank().map(|r| eng.cx.constant(r as i64));
                self.scalar_extent_facts(eng, value, dst, 93)
            }
            RangeCount => {
                // range_count(start, step, stop): the `for` trip count.
                let (a, s, b) = (&facts[0], &facts[1], &facts[2]);
                let value = match (a.range.as_exact(), s.range.as_exact(), b.range.as_exact()) {
                    (Some(x), Some(st), Some(y)) if st != 0.0 => {
                        Some(eng.cx.constant((((y - x) / st).floor() as i64 + 1).max(0)))
                    }
                    _ => {
                        if a.range.as_exact() == Some(1.0) && s.range.as_exact() == Some(1.0) {
                            b.value.map(|vb| {
                                if b.range.positive() {
                                    vb
                                } else {
                                    let zero = eng.cx.constant(0);
                                    eng.cx.max(vb, zero)
                                }
                            })
                        } else {
                            None
                        }
                    }
                };
                self.scalar_extent_facts(eng, value, dst, 94)
            }
            LoopIndex => {
                // loop_index(start, step, stop, k): always between the
                // range endpoints — the trip-count bound MAGICA gives
                // induction variables.
                let (st, sp, en) = (&facts[0], &facts[1], &facts[2]);
                let range = Range {
                    lo: st.range.lo.min(en.range.lo),
                    hi: st.range.hi.max(en.range.hi),
                    integral: st.range.integral && sp.range.integral && en.range.integral,
                };
                let maxval = match (st.upper_bound(), en.upper_bound()) {
                    (Some(a), Some(b)) => Some(eng.cx.max(a, b)),
                    _ => None,
                };
                let cx = &mut eng.cx;
                VarFacts {
                    intrinsic: if range.integral {
                        Intrinsic::for_range(range.lo, range.hi, true)
                    } else {
                        Intrinsic::Real
                    },
                    shape: Shape::scalar(cx),
                    range,
                    value: None,
                    maxval,
                }
            }
            IsTrue | IsEmpty => VarFacts {
                intrinsic: Intrinsic::Bool,
                shape: Shape::scalar(&mut eng.cx),
                range: Range::boolean(),
                value: None,
                maxval: None,
            },
            Sqrt => {
                let a = &facts[0];
                let goes_complex = a.intrinsic.is_complex() || !a.range.nonneg();
                VarFacts {
                    intrinsic: if goes_complex {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::Real
                    },
                    shape: a.shape.clone(),
                    range: if a.range.nonneg() {
                        Range::new(a.range.lo.sqrt(), a.range.hi.sqrt(), false)
                    } else {
                        Range::top()
                    },
                    value: None,
                    maxval: None,
                }
            }
            Log => {
                let a = &facts[0];
                let goes_complex = a.intrinsic.is_complex() || !a.range.positive();
                VarFacts {
                    intrinsic: if goes_complex {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::Real
                    },
                    shape: a.shape.clone(),
                    range: Range::top(),
                    value: None,
                    maxval: None,
                }
            }
            Abs => {
                let a = &facts[0];
                let hi = a.range.hi.abs().max(a.range.lo.abs());
                let lo = if a.range.lo <= 0.0 && a.range.hi >= 0.0 {
                    0.0
                } else {
                    a.range.lo.abs().min(a.range.hi.abs())
                };
                let range = Range::new(lo, hi, a.range.integral && !a.intrinsic.is_complex());
                VarFacts {
                    intrinsic: if a.intrinsic.is_complex() {
                        Intrinsic::Real
                    } else {
                        Intrinsic::for_range(range.lo, range.hi, range.integral)
                    },
                    shape: a.shape.clone(),
                    range,
                    value: None,
                    maxval: None,
                }
            }
            Sin | Cos => {
                let a = &facts[0];
                VarFacts {
                    intrinsic: if a.intrinsic.is_complex() {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::Real
                    },
                    shape: a.shape.clone(),
                    range: if a.intrinsic.is_complex() {
                        Range::top()
                    } else {
                        Range::new(-1.0, 1.0, false)
                    },
                    value: None,
                    maxval: None,
                }
            }
            Tan | Atan | Exp | Conj | Real | Imag | Sign | Floor | Ceil | Round | Fix => {
                let a = &facts[0];
                let (intrinsic, range) = match bi {
                    Tan | Exp => (
                        if a.intrinsic.is_complex() {
                            Intrinsic::Complex
                        } else {
                            Intrinsic::Real
                        },
                        if bi == Exp {
                            Range::new(0.0, f64::INFINITY, false)
                        } else {
                            Range::top()
                        },
                    ),
                    Atan => (
                        Intrinsic::Real,
                        Range::new(
                            -std::f64::consts::FRAC_PI_2,
                            std::f64::consts::FRAC_PI_2,
                            false,
                        ),
                    ),
                    Conj => (a.intrinsic, a.range),
                    Real | Imag => (
                        Intrinsic::Real,
                        if a.intrinsic.is_complex() {
                            Range::top()
                        } else {
                            a.range
                        },
                    ),
                    // sign of complex is z/|z| (unit-modulus COMPLEX);
                    // of real it is integral in [-1, 1].
                    Sign => {
                        if a.intrinsic.is_complex() {
                            (Intrinsic::Complex, Range::new(-1.0, 1.0, false))
                        } else {
                            (Intrinsic::Int, Range::new(-1.0, 1.0, true))
                        }
                    }
                    _ => {
                        // floor/ceil/round/fix
                        let r = Range::new(
                            a.range.lo.floor(),
                            a.range.hi.ceil(),
                            !a.intrinsic.is_complex(),
                        );
                        (
                            if a.intrinsic.is_complex() {
                                Intrinsic::Complex
                            } else {
                                Intrinsic::for_range(r.lo, r.hi, r.integral)
                            },
                            r,
                        )
                    }
                };
                VarFacts {
                    intrinsic,
                    shape: a.shape.clone(),
                    range,
                    value: if bi == Conj { a.value } else { None },
                    maxval: if bi == Conj { a.maxval } else { None },
                }
            }
            Atan2 => {
                let shape = self.elementwise_shape(eng, &facts[0].clone(), &facts[1].clone());
                VarFacts {
                    intrinsic: Intrinsic::Real,
                    shape,
                    range: Range::new(-std::f64::consts::PI, std::f64::consts::PI, false),
                    value: None,
                    maxval: None,
                }
            }
            Mod | Rem => {
                let a = facts[0].clone();
                let b = facts[1].clone();
                let shape = self.elementwise_shape(eng, &a, &b);
                let integral = a.range.integral && b.range.integral;
                let range = if b.range.nonneg() && b.range.hi.is_finite() {
                    Range::new(-b.range.hi, b.range.hi, integral)
                } else {
                    Range::new(f64::NEG_INFINITY, f64::INFINITY, integral)
                };
                VarFacts {
                    intrinsic: if a.intrinsic.is_complex() || b.intrinsic.is_complex() {
                        Intrinsic::Complex
                    } else {
                        Intrinsic::for_range(range.lo, range.hi, range.integral)
                    },
                    shape,
                    range,
                    value: None,
                    maxval: None,
                }
            }
            Max | Min => {
                if facts.len() == 2 {
                    let a = facts[0].clone();
                    let b = facts[1].clone();
                    let shape = self.elementwise_shape(eng, &a, &b);
                    let range = if bi == Max {
                        Range::new(
                            a.range.lo.max(b.range.lo),
                            a.range.hi.max(b.range.hi),
                            a.range.integral && b.range.integral,
                        )
                    } else {
                        Range::new(
                            a.range.lo.min(b.range.lo),
                            a.range.hi.min(b.range.hi),
                            a.range.integral && b.range.integral,
                        )
                    };
                    let value = match (a.value, b.value, &shape) {
                        (Some(x), Some(y), s) if s.is_scalar(&eng.cx) && bi == Max => {
                            Some(eng.cx.max(x, y))
                        }
                        _ => None,
                    };
                    VarFacts {
                        intrinsic: if a.intrinsic.is_complex() || b.intrinsic.is_complex() {
                            Intrinsic::Complex
                        } else {
                            Intrinsic::for_range(range.lo, range.hi, range.integral)
                        },
                        shape,
                        range,
                        value,
                        maxval: value,
                    }
                } else {
                    self.reduction_facts(eng, &facts[0], facts[0].intrinsic, facts[0].range)
                }
            }
            Sum | Prod => {
                let a = &facts[0];
                let intrinsic = if a.intrinsic.is_complex() {
                    Intrinsic::Complex
                } else if a.range.integral {
                    Intrinsic::Int
                } else {
                    Intrinsic::Real
                };
                let range = Range::new(f64::NEG_INFINITY, f64::INFINITY, a.range.integral);
                let a = a.clone();
                self.reduction_facts(eng, &a, intrinsic, range)
            }
            Mean => {
                let a = facts[0].clone();
                let intrinsic = if a.intrinsic.is_complex() {
                    Intrinsic::Complex
                } else {
                    Intrinsic::Real
                };
                self.reduction_facts(eng, &a, intrinsic, Range::top())
            }
            Any | All => {
                let a = facts[0].clone();
                self.reduction_facts(eng, &a, Intrinsic::Bool, Range::boolean())
            }
            Norm => VarFacts {
                intrinsic: Intrinsic::Real,
                shape: Shape::scalar(&mut eng.cx),
                range: Range::new(0.0, f64::INFINITY, false),
                value: None,
                maxval: None,
            },
            Linspace => {
                let one = eng.cx.constant(1);
                let n = if facts.len() >= 3 {
                    self.extent_from_value(eng, &facts[2].clone(), dst, 2)
                } else {
                    eng.cx.constant(100)
                };
                let (lo, hi) = if facts.len() >= 2 {
                    (
                        facts[0].range.lo.min(facts[1].range.lo),
                        facts[0].range.hi.max(facts[1].range.hi),
                    )
                } else {
                    (f64::NEG_INFINITY, f64::INFINITY)
                };
                VarFacts {
                    intrinsic: Intrinsic::Real,
                    shape: Shape::Tuple(vec![one, n]),
                    range: Range::new(lo, hi, false),
                    value: None,
                    maxval: None,
                }
            }
            Pi => VarFacts {
                intrinsic: Intrinsic::Real,
                shape: Shape::scalar(&mut eng.cx),
                range: Range::exact(std::f64::consts::PI),
                value: None,
                maxval: None,
            },
            Inf | Eps | NaN => VarFacts {
                intrinsic: Intrinsic::Real,
                shape: Shape::scalar(&mut eng.cx),
                range: Range::top(),
                value: None,
                maxval: None,
            },
            Disp | Fprintf | ErrorFn => VarFacts {
                intrinsic: Intrinsic::Bool,
                shape: Shape::empty(&mut eng.cx),
                range: Range::exact(0.0),
                value: None,
                maxval: None,
            },
        }
    }

    /// Facts for a nonnegative integral scalar with an optional symbolic
    /// value (extents, counts).
    fn scalar_extent_facts(
        &mut self,
        eng: &mut Engine<'_>,
        value: Option<ExprId>,
        dst: VarId,
        slot: usize,
    ) -> VarFacts {
        let value = Some(match value {
            Some(v) => v,
            None => self.site_sym(eng, dst, slot),
        });
        let exact = value.and_then(|v| eng.cx.as_const(v));
        let cx = &mut eng.cx;
        let range = match exact {
            Some(k) => Range::exact(k as f64),
            None => Range::new(0.0, f64::INFINITY, true),
        };
        let intrinsic = match exact {
            Some(k) => Intrinsic::for_range(k as f64, k as f64, true),
            None => Intrinsic::Int,
        };
        VarFacts {
            intrinsic,
            shape: Shape::scalar(cx),
            range,
            value,
            maxval: value,
        }
    }

    /// Column-style reductions (`sum`, `mean`, `any`, 1-arg `max`):
    /// vectors reduce to scalars; matrices with a known column count
    /// reduce to a row; anything else is unknown.
    fn reduction_facts(
        &mut self,
        eng: &mut Engine<'_>,
        a: &VarFacts,
        intrinsic: Intrinsic,
        range: Range,
    ) -> VarFacts {
        let cx = &mut eng.cx;
        let shape = match &a.shape {
            s if s.is_vector(cx) => Shape::scalar(cx),
            Shape::Tuple(d) if d.len() >= 2 => {
                match cx.as_const(d[0]) {
                    Some(1) if d.len() == 2 => Shape::scalar(cx),
                    Some(_) => {
                        // Columns collapse: [d0, d1, ..., dk] -> [1, d1*...*dk]
                        // (the runtime's column geometry).
                        let one = cx.constant(1);
                        let mut cols = d[1];
                        for e in &d[2..] {
                            cols = cx.mul(cols, *e);
                        }
                        Shape::Tuple(vec![one, cols])
                    }
                    // Symbolic leading extent: could be a vector (scalar
                    // result) or not (row result) — unknown.
                    None => Shape::fresh(cx, "reduce"),
                }
            }
            _ => Shape::fresh(cx, "reduce"),
        };
        VarFacts {
            intrinsic,
            shape,
            range,
            value: None,
            maxval: a.maxval,
        }
    }

    fn call_multi_facts(
        &mut self,
        eng: &mut Engine<'_>,
        dsts: &[VarId],
        func: &str,
        args: &[VarFacts],
    ) -> Vec<VarFacts> {
        // User function?
        if eng.prog.by_name.contains_key(func) {
            let rets = self.user_call(eng, func, args.to_vec()).unwrap_or_default();
            return (0..dsts.len())
                .map(|i| {
                    rets.get(i)
                        .cloned()
                        .unwrap_or_else(|| VarFacts::unknown(&mut eng.cx, "ret"))
                })
                .collect();
        }
        match Builtin::from_name(func) {
            Some(Builtin::Size) => {
                // [m, n, ...] = size(a): one scalar per destination.
                let a = args.first().cloned();
                (0..dsts.len())
                    .map(|k| {
                        let value = a.as_ref().and_then(|a| match &a.shape {
                            Shape::Tuple(d) => {
                                if k + 1 < dsts.len() || dsts.len() == d.len() {
                                    d.get(k).copied()
                                } else {
                                    // Last output collects remaining dims.
                                    None
                                }
                            }
                            _ => None,
                        });
                        self.scalar_extent_facts(eng, value, dsts[k], 80 + k)
                    })
                    .collect()
            }
            Some(Builtin::Max) | Some(Builtin::Min) => {
                // [m, i] = max(a).
                let a = args.first().cloned();
                let mut out = Vec::with_capacity(dsts.len());
                if let Some(a) = a {
                    let red = self.reduction_facts(eng, &a, a.intrinsic, a.range);
                    out.push(red);
                } else {
                    out.push(VarFacts::unknown(&mut eng.cx, "max"));
                }
                if dsts.len() > 1 {
                    let idx = VarFacts {
                        intrinsic: Intrinsic::Int,
                        shape: out[0].shape.clone(),
                        range: Range::new(1.0, f64::INFINITY, true),
                        value: None,
                        maxval: None,
                    };
                    out.push(idx);
                }
                while out.len() < dsts.len() {
                    out.push(VarFacts::unknown(&mut eng.cx, "extra"));
                }
                out
            }
            _ => (0..dsts.len())
                .map(|_| VarFacts::unknown(&mut eng.cx, "builtin_multi"))
                .collect(),
        }
    }
}

/// The range of a division: exact when both operands are exact (and the
/// divisor nonzero), ⊤ otherwise.
fn exact_div_range(num: &VarFacts, den: &VarFacts) -> Range {
    match (num.range.as_exact(), den.range.as_exact()) {
        (Some(x), Some(y)) if y != 0.0 => Range::exact(x / y),
        _ => Range::top(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::build_ssa;

    fn infer(srcs: &[&str]) -> (IrProgram, ProgramTypes) {
        let ast = parse_program(srcs.iter().copied()).unwrap();
        let ir = build_ssa(&ast).unwrap();
        let t = infer_program(&ir);
        (ir, t)
    }

    fn out_facts<'a>(ir: &IrProgram, t: &'a ProgramTypes) -> &'a VarFacts {
        let fid = ir.entry.unwrap();
        let out = ir.entry_func().ssa_outs[0];
        t.facts(fid, out).expect("facts for output")
    }

    #[test]
    fn explicit_shapes_from_constants() {
        let (ir, t) = infer(&["function y = f()\ny = zeros(3, 4);\n"]);
        let f = out_facts(&ir, &t);
        assert_eq!(f.shape.known_dims(&t.ctx), Some(vec![3, 4]));
        assert_eq!(f.intrinsic, Intrinsic::Bool, "zeros is range-typed {{0}}");
    }

    #[test]
    fn interprocedural_constant_shapes() {
        // The driver passes constants; the kernel's arrays become
        // explicit — the mechanism behind d = 0 in Table 2.
        let (ir, t) = infer(&[
            "function y = driver()\ny = kernel(8);\nend\n",
            "function a = kernel(n)\na = rand(n, n);\na = a + 1;\nend\n",
        ]);
        let f = out_facts(&ir, &t);
        assert_eq!(f.shape.known_dims(&t.ctx), Some(vec![8, 8]));
        assert_eq!(f.intrinsic, Intrinsic::Real);
    }

    #[test]
    fn elementwise_ops_reuse_symbolic_shape() {
        // Paper Example 1: with nothing known about t0, t1..t3 share its
        // symbolic shape and go COMPLEX.
        let (ir, t) =
            infer(&["function t3 = f(t0)\nt1 = t0 - 1.345;\nt2 = 2.788 .* t1;\nt3 = tan(t2);\n"]);
        let fid = ir.entry.unwrap();
        let func = ir.entry_func();
        let t0 = func.params[0];
        let t3 = func.ssa_outs[0];
        let f0 = t.facts(fid, t0).unwrap();
        let f3 = t.facts(fid, t3).unwrap();
        assert_eq!(f0.shape, f3.shape, "shape identity is reused");
        assert_eq!(f3.intrinsic, Intrinsic::Complex);
    }

    #[test]
    fn size_feeds_back_into_extents() {
        let (ir, t) = infer(&["function b = f(a)\nm = size(a, 1);\nb = zeros(m, 1);\n"]);
        let fid = ir.entry.unwrap();
        let func = ir.entry_func();
        let a = func.params[0];
        let b = func.ssa_outs[0];
        let fa = t.facts(fid, a).unwrap().clone();
        let fb = t.facts(fid, b).unwrap().clone();
        // b's first extent should be symbolically tied to a's size: since
        // a has unknown shape, m is a symbol; zeros(m,1) uses it.
        match &fb.shape {
            Shape::Tuple(d) => {
                assert_eq!(t.ctx.as_const(d[1]), Some(1));
                assert!(t.ctx.as_const(d[0]).is_none(), "symbolic extent");
            }
            s => panic!("unexpected shape {s:?}"),
        }
        let _ = fa;
    }

    #[test]
    fn subsasgn_growth_is_max() {
        // Paper Example 2: b formed from a by subsasgn has |s(b)| >= |s(a)|.
        let (ir, mut t) =
            infer(&["function b = f(x, y, i1, i2)\na = eye(x, y);\nb = a;\nb(i1, i2) = 1;\n"]);
        let fid = ir.entry.unwrap();
        let func = ir.entry_func();
        let b = func.ssa_outs[0];
        let fb = t.facts(fid, b).unwrap().clone();
        // Find `a`'s SSA def (the eye result): any var named a.
        let a_var = func
            .vars
            .iter()
            .find(|(_, i)| i.name.as_deref() == Some("a") && i.ssa_version > 0)
            .map(|(v, _)| v)
            .unwrap();
        let fa = t.facts(fid, a_var).unwrap().clone();
        assert_eq!(fa.intrinsic, Intrinsic::Bool, "eye is BOOLEAN (paper)");
        let na = fa.shape.clone().numel(&mut t.ctx);
        let nb = fb.shape.clone().numel(&mut t.ctx);
        assert!(
            t.ctx.provably_ge(nb, na),
            "|s(b)| = {} >= |s(a)| = {}",
            t.ctx.render(nb),
            t.ctx.render(na)
        );
    }

    #[test]
    fn loop_counter_stays_integral() {
        let (ir, t) = infer(&["function s = f()\ns = 0;\nfor i = 1:10\ns = s + i;\nend\n"]);
        let f = out_facts(&ir, &t);
        assert!(f.range.integral, "sum of integers is integral");
        assert!(!f.intrinsic.is_complex());
        assert!(f.shape.is_scalar(&t.ctx));
    }

    #[test]
    fn sqrt_of_possibly_negative_goes_complex() {
        let (ir, t) = infer(&["function y = f(x)\ny = sqrt(x - 10);\n"]);
        assert_eq!(out_facts(&ir, &t).intrinsic, Intrinsic::Complex);
        let (ir2, t2) = infer(&["function y = f()\ny = sqrt(9);\n"]);
        assert_eq!(out_facts(&ir2, &t2).intrinsic, Intrinsic::Real);
    }

    #[test]
    fn comparison_is_boolean() {
        let (ir, t) = infer(&["function y = f(a, b)\ny = a < b;\n"]);
        let f = out_facts(&ir, &t);
        assert_eq!(f.intrinsic, Intrinsic::Bool);
    }

    #[test]
    fn range_literal_shape() {
        let (ir, t) = infer(&["function y = f()\ny = 1:2:9;\n"]);
        let f = out_facts(&ir, &t);
        assert_eq!(f.shape.known_dims(&t.ctx), Some(vec![1, 5]));
        assert!(f.range.integral);
    }

    #[test]
    fn symbolic_range_length() {
        let (ir, t) =
            infer(&["function y = g()\ny = h(7);\nend\nfunction y = h(n)\ny = 1:n;\nend\n"]);
        // Through the call, n = 7, so 1:n has 7 elements.
        let f = out_facts(&ir, &t);
        assert_eq!(f.shape.known_dims(&t.ctx), Some(vec![1, 7]));
    }

    #[test]
    fn matrix_literal_of_scalars() {
        let (ir, t) = infer(&["function y = f()\na = 6;\ny = [1 2 3; 4 5 a];\n"]);
        let f = out_facts(&ir, &t);
        assert_eq!(f.shape.known_dims(&t.ctx), Some(vec![2, 3]));
    }

    #[test]
    fn transpose_swaps_extents() {
        let (ir, t) = infer(&["function y = f()\nx = zeros(2, 5);\ny = x';\n"]);
        let f = out_facts(&ir, &t);
        assert_eq!(f.shape.known_dims(&t.ctx), Some(vec![5, 2]));
    }

    #[test]
    fn matmul_shape_composition() {
        let (ir, t) = infer(&["function y = f()\na = rand(3, 4);\nb = rand(4, 7);\ny = a * b;\n"]);
        let f = out_facts(&ir, &t);
        assert_eq!(f.shape.known_dims(&t.ctx), Some(vec![3, 7]));
    }

    #[test]
    fn widening_terminates_growing_loops() {
        // a grows every iteration; inference must terminate.
        let (ir, t) =
            infer(&["function a = f(n)\na = zeros(1, 1);\nfor i = 1:n\na(i) = i;\nend\n"]);
        let f = out_facts(&ir, &t);
        // Shape is not explicit (it grows with symbolic n).
        assert!(!f.shape.is_explicit(&t.ctx));
    }

    #[test]
    fn multi_out_size_values() {
        let (ir, t) =
            infer(&["function y = f()\nx = zeros(6, 2);\n[m, n] = size(x);\ny = zeros(m, n);\n"]);
        let f = out_facts(&ir, &t);
        assert_eq!(f.shape.known_dims(&t.ctx), Some(vec![6, 2]));
    }

    #[test]
    fn recursion_falls_back_to_unknown() {
        let (ir, t) =
            infer(&["function y = f(n)\nif n <= 1\ny = 1;\nelse\ny = n * f(n - 1);\nend\n"]);
        // Must terminate; output facts exist.
        let f = out_facts(&ir, &t);
        assert!(f.shape.rank().is_some() || matches!(f.shape, Shape::Any(_)));
    }
}
