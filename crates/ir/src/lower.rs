//! AST → SO-form CFG lowering.
//!
//! Produces the *Single Operator* form of §2.3: every assignment carries
//! at most one MATLAB operation, with temporaries introduced for compound
//! expressions. Also performed here:
//!
//! * call-vs-index resolution (`a(i)` is `subsref` when `a` is assigned
//!   anywhere in the function, a call otherwise);
//! * `end` rewriting to `numel`/`size` of the innermost indexed array;
//! * short-circuit `&&`/`||` lowering to control flow;
//! * `if`/`while` conditions wrapped in the internal `istrue` builtin;
//! * `for` over a literal range lowered to a scalar counting loop (no
//!   range vector is materialized), other iterables to indexed traversal;
//! * indexed assignment lowered to `a <- subsasgn(a, r, subs...)`;
//! * MATLAB's deletion/shrinkage form `a(i) = []` rejected, as in the
//!   paper's translator (§2.3.3).

use crate::builtins::Builtin;
use crate::cfg::{FuncIr, IrProgram, VarInfo};
use crate::ids::{BlockId, VarId};
use crate::instr::{Const, Instr, InstrKind, Op, Operand, Terminator};
use matc_frontend::ast::{BinOp, Expr, ExprKind, Function, LValue, Program, Stmt, StmtKind, UnOp};
use matc_frontend::span::Span;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An error produced during lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Description, lowercase, no trailing punctuation.
    pub message: String,
    /// Source location.
    pub span: Span,
}

impl LowerError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        LowerError {
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.message, self.span)
    }
}

impl std::error::Error for LowerError {}

/// Lowers a parsed program to SO-form IR (not yet SSA).
///
/// # Errors
///
/// Fails on a function defined twice, undefined names, misplaced
/// `end`/`:`, the unsupported shrinkage form `a(i) = []`, and arity
/// mismatches on user calls.
///
/// # Examples
///
/// ```
/// use matc_frontend::parser::parse_program;
/// use matc_ir::lower::lower_program;
///
/// let ast = parse_program(["function y = f(x)\ny = x + 1;\n"]).unwrap();
/// let ir = lower_program(&ast)?;
/// assert_eq!(ir.entry_func().name, "f");
/// # Ok::<(), matc_ir::lower::LowerError>(())
/// ```
pub fn lower_program(ast: &Program) -> Result<IrProgram, LowerError> {
    let signatures = signatures(ast)?;
    let mut prog = IrProgram::default();
    for f in &ast.functions {
        prog.add(lower_function(f, &signatures)?);
    }
    prog.entry = prog.by_name.get(&ast.entry).copied();
    Ok(prog)
}

/// Every user function's `(parameter count, output count)` by name:
/// all that lowering one function reads of the others.
pub type Signatures = HashMap<String, (usize, usize)>;

/// The signature table of `ast`.
///
/// # Errors
///
/// Fails on a function defined twice (in one file or across files),
/// naming it at the span of its second definition's header.
pub fn signatures(ast: &Program) -> Result<Signatures, LowerError> {
    let mut table = Signatures::new();
    for f in &ast.functions {
        if table
            .insert(f.name.clone(), (f.params.len(), f.outs.len()))
            .is_some()
        {
            return Err(LowerError::new(
                format!("duplicate function `{}`", f.name),
                f.span,
            ));
        }
    }
    Ok(table)
}

/// Lowers one function against its unit's signature table. The result
/// depends on nothing else, which is what lets a compile reuse an
/// unchanged function's IR from an earlier compile of its unit.
///
/// # Errors
///
/// Fails as [`lower_program`] does, for this function's body.
pub fn lower_function(f: &Function, signatures: &Signatures) -> Result<FuncIr, LowerError> {
    FunctionLowerer::new(f, signatures).lower()
}

/// Tracks the array and dimension position that `end` refers to.
struct EndCtx {
    array: VarId,
    dim: usize,
    ndims: usize,
}

struct LoopCtx {
    break_target: BlockId,
    continue_target: BlockId,
}

struct FunctionLowerer<'a> {
    ast: &'a Function,
    signatures: &'a Signatures,
    func: FuncIr,
    vars: HashMap<String, VarId>,
    /// Names assigned anywhere in this function (so `n(i)` is indexing).
    assigned: HashSet<String>,
    current: BlockId,
    exit_block: BlockId,
    loops: Vec<LoopCtx>,
    end_stack: Vec<EndCtx>,
    /// Whether the current block already ended (after break/return).
    terminated: bool,
}

impl<'a> FunctionLowerer<'a> {
    fn new(ast: &'a Function, signatures: &'a Signatures) -> Self {
        let mut func = FuncIr::new(ast.name.clone());
        let exit_block = func.add_block();
        func.block_mut(exit_block).term = Terminator::Return;
        let mut assigned = HashSet::new();
        for p in &ast.params {
            assigned.insert(p.clone());
        }
        for o in &ast.outs {
            assigned.insert(o.clone());
        }
        collect_assigned(&ast.body, &mut assigned);
        FunctionLowerer {
            ast,
            signatures,
            current: func.entry,
            exit_block,
            func,
            vars: HashMap::new(),
            assigned,
            loops: Vec::new(),
            end_stack: Vec::new(),
            terminated: false,
        }
    }

    fn lower(mut self) -> Result<FuncIr, LowerError> {
        for p in &self.ast.params {
            let v = self.source_var(p);
            self.func.params.push(v);
        }
        for o in &self.ast.outs {
            let v = self.source_var(o);
            self.func.outs.push(v);
        }
        for stmt in &self.ast.body {
            self.stmt(stmt)?;
        }
        if !self.terminated {
            let exit = self.exit_block;
            self.set_term(Terminator::Jump(exit));
        }
        Ok(self.func)
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    fn source_var(&mut self, name: &str) -> VarId {
        if let Some(v) = self.vars.get(name) {
            return *v;
        }
        let v = self.func.vars.push(VarInfo::source(name));
        self.vars.insert(name.to_string(), v);
        v
    }

    fn temp(&mut self) -> VarId {
        self.func.new_temp()
    }

    fn emit(&mut self, kind: InstrKind, span: Span) {
        if self.terminated {
            // Unreachable code after break/return: drop it, matching
            // MATLAB semantics (it can never run).
            return;
        }
        let cur = self.current;
        self.func.block_mut(cur).instrs.push(Instr::new(kind, span));
    }

    fn set_term(&mut self, term: Terminator) {
        if self.terminated {
            return;
        }
        let cur = self.current;
        self.func.block_mut(cur).term = term;
        self.terminated = true;
    }

    fn start_block(&mut self, b: BlockId) {
        self.current = b;
        self.terminated = false;
    }

    fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    fn const_into(&mut self, value: Const, span: Span) -> VarId {
        let dst = self.temp();
        self.emit(InstrKind::Const { dst, value }, span);
        dst
    }

    fn compute_into(
        &mut self,
        dst: Option<VarId>,
        op: Op,
        args: Vec<Operand>,
        span: Span,
    ) -> VarId {
        let dst = dst.unwrap_or_else(|| self.temp());
        self.emit(InstrKind::Compute { dst, op, args }, span);
        dst
    }

    fn is_variable(&self, name: &str) -> bool {
        self.assigned.contains(name)
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), LowerError> {
        match &stmt.kind {
            StmtKind::Assign { lhs, rhs, display } => self.assign(lhs, rhs, *display, stmt.span),
            StmtKind::MultiAssign {
                lhss,
                func,
                args,
                display,
            } => self.multi_assign(lhss, func, args, *display, stmt.span),
            StmtKind::ExprStmt { expr, display } => self.expr_stmt(expr, *display),
            StmtKind::If { arms, else_body } => self.if_stmt(arms, else_body.as_deref()),
            StmtKind::While { cond, body } => self.while_stmt(cond, body),
            StmtKind::For { var, iter, body } => self.for_stmt(var, iter, body, stmt.span),
            StmtKind::Break => {
                let target = match self.loops.last() {
                    Some(l) => l.break_target,
                    None => {
                        return Err(LowerError::new("`break` outside a loop", stmt.span));
                    }
                };
                self.set_term(Terminator::Jump(target));
                Ok(())
            }
            StmtKind::Continue => {
                let target = match self.loops.last() {
                    Some(l) => l.continue_target,
                    None => {
                        return Err(LowerError::new("`continue` outside a loop", stmt.span));
                    }
                };
                self.set_term(Terminator::Jump(target));
                Ok(())
            }
            StmtKind::Return => {
                let exit = self.exit_block;
                self.set_term(Terminator::Jump(exit));
                Ok(())
            }
        }
    }

    fn assign(
        &mut self,
        lhs: &LValue,
        rhs: &Expr,
        display: bool,
        span: Span,
    ) -> Result<(), LowerError> {
        match lhs {
            LValue::Var(name) => {
                let dst = self.source_var(name);
                self.expr_into(Some(dst), rhs)?;
                if display {
                    self.emit(
                        InstrKind::Display {
                            value: dst,
                            label: name.clone(),
                        },
                        span,
                    );
                }
                Ok(())
            }
            LValue::Index { name, args } => {
                // Shrinkage `a(i) = []` is unsupported, as in the paper.
                if matches!(&rhs.kind, ExprKind::Matrix { rows } if rows.is_empty()) {
                    return Err(LowerError::new(
                        "array shrinkage `a(...) = []` is not supported by the translator",
                        span,
                    ));
                }
                if !self.is_variable(name) {
                    return Err(LowerError::new(
                        format!("indexed assignment to non-variable `{name}`"),
                        span,
                    ));
                }
                let arr = self.source_var(name);
                let value = self.expr_into(None, rhs)?;
                let subs = self.lower_subscripts(arr, args)?;
                let mut op_args = vec![Operand::Var(arr), Operand::Var(value)];
                op_args.extend(subs);
                self.compute_into(Some(arr), Op::Subsasgn, op_args, span);
                if display {
                    self.emit(
                        InstrKind::Display {
                            value: arr,
                            label: name.clone(),
                        },
                        span,
                    );
                }
                Ok(())
            }
            LValue::Ignore => {
                // `~ = rhs` is not legal MATLAB outside multi-assign.
                Err(LowerError::new(
                    "`~` is only valid in `[...] = f(...)`",
                    span,
                ))
            }
        }
    }

    fn multi_assign(
        &mut self,
        lhss: &[LValue],
        fname: &str,
        args: &[Expr],
        display: bool,
        span: Span,
    ) -> Result<(), LowerError> {
        // Validate callee: user function or multi-output builtin.
        let is_user = self.signatures.contains_key(fname);
        let is_builtin = Builtin::from_name(fname).is_some();
        if !is_user && !is_builtin {
            return Err(LowerError::new(
                format!("undefined function `{fname}`"),
                span,
            ));
        }
        if is_user {
            let (nparams, nouts) = self.signatures[fname];
            if args.len() > nparams {
                return Err(LowerError::new(
                    format!(
                        "too many inputs to `{fname}`: {} given, {} declared",
                        args.len(),
                        nparams
                    ),
                    span,
                ));
            }
            if lhss.len() > nouts {
                return Err(LowerError::new(
                    format!(
                        "too many outputs from `{fname}`: {} requested, {} declared",
                        lhss.len(),
                        nouts
                    ),
                    span,
                ));
            }
        }
        let mut arg_ops = Vec::with_capacity(args.len());
        for a in args {
            let v = self.expr_into(None, a)?;
            arg_ops.push(Operand::Var(v));
        }
        // Destinations: plain vars bind directly; indexed lvalues go via
        // a temporary and a subsasgn; `~` discards into a temp.
        let mut dsts = Vec::with_capacity(lhss.len());
        let mut post: Vec<(VarId, &LValue)> = Vec::new();
        for lhs in lhss {
            match lhs {
                LValue::Var(name) => dsts.push(self.source_var(name)),
                LValue::Index { .. } => {
                    let t = self.temp();
                    dsts.push(t);
                    post.push((t, lhs));
                }
                LValue::Ignore => dsts.push(self.temp()),
            }
        }
        self.emit(
            InstrKind::CallMulti {
                dsts: dsts.clone(),
                func: fname.to_string(),
                args: arg_ops,
            },
            span,
        );
        for (t, lhs) in post {
            if let LValue::Index { name, args } = lhs {
                if !self.is_variable(name) {
                    return Err(LowerError::new(
                        format!("indexed assignment to non-variable `{name}`"),
                        span,
                    ));
                }
                let arr = self.source_var(name);
                let subs = self.lower_subscripts(arr, args)?;
                let mut op_args = vec![Operand::Var(arr), Operand::Var(t)];
                op_args.extend(subs);
                self.compute_into(Some(arr), Op::Subsasgn, op_args, span);
            }
        }
        if display {
            for (dst, lhs) in dsts.iter().zip(lhss) {
                if let Some(name) = lhs.var_name() {
                    self.emit(
                        InstrKind::Display {
                            value: *dst,
                            label: name.to_string(),
                        },
                        span,
                    );
                }
            }
        }
        Ok(())
    }

    fn expr_stmt(&mut self, expr: &Expr, display: bool) -> Result<(), LowerError> {
        // Effect builtins in statement position become Effect instrs.
        if let ExprKind::Apply { name, args } = &expr.kind {
            if !self.is_variable(name) {
                if let Some(b) = Builtin::from_name(name) {
                    if b.is_effect() {
                        let mut ops = Vec::with_capacity(args.len());
                        for a in args {
                            let v = self.expr_into(None, a)?;
                            ops.push(Operand::Var(v));
                        }
                        self.emit(
                            InstrKind::Effect {
                                builtin: b,
                                args: ops,
                            },
                            expr.span,
                        );
                        return Ok(());
                    }
                }
                // A statement-position call of a user function with no
                // requested outputs.
                if let Some((nparams, _)) = self.signatures.get(name).copied() {
                    if args.len() > nparams {
                        return Err(LowerError::new(
                            format!("too many inputs to `{name}`"),
                            expr.span,
                        ));
                    }
                    let mut ops = Vec::with_capacity(args.len());
                    for a in args {
                        let v = self.expr_into(None, a)?;
                        ops.push(Operand::Var(v));
                    }
                    self.emit(
                        InstrKind::CallMulti {
                            dsts: vec![],
                            func: name.clone(),
                            args: ops,
                        },
                        expr.span,
                    );
                    return Ok(());
                }
            }
        }
        // Otherwise: `ans = expr`, optionally displayed.
        let ans = self.source_var("ans");
        self.expr_into(Some(ans), expr)?;
        if display {
            self.emit(
                InstrKind::Display {
                    value: ans,
                    label: "ans".into(),
                },
                expr.span,
            );
        }
        Ok(())
    }

    fn if_stmt(
        &mut self,
        arms: &[(Expr, Vec<Stmt>)],
        else_body: Option<&[Stmt]>,
    ) -> Result<(), LowerError> {
        let join = self.new_block();
        let mut next_test = self.current;
        for (i, (cond, body)) in arms.iter().enumerate() {
            self.start_block(next_test);
            // The first test continues the current block; later ones get
            // their own, already created as `next_test`.
            let c = self.expr_into(None, cond)?;
            let t = self.compute_into(
                None,
                Op::Builtin(Builtin::IsTrue),
                vec![Operand::Var(c)],
                cond.span,
            );
            let body_bb = self.new_block();
            let is_last = i + 1 == arms.len();
            let else_bb = if is_last {
                match else_body {
                    Some(_) => self.new_block(),
                    None => join,
                }
            } else {
                self.new_block()
            };
            self.set_term(Terminator::Branch {
                cond: t,
                then_bb: body_bb,
                else_bb,
            });
            self.start_block(body_bb);
            for s in body {
                self.stmt(s)?;
            }
            self.set_term(Terminator::Jump(join));
            next_test = else_bb;
        }
        if let Some(body) = else_body {
            self.start_block(next_test);
            for s in body {
                self.stmt(s)?;
            }
            self.set_term(Terminator::Jump(join));
        }
        self.start_block(join);
        Ok(())
    }

    fn while_stmt(&mut self, cond: &Expr, body: &[Stmt]) -> Result<(), LowerError> {
        let header = self.new_block();
        let body_bb = self.new_block();
        let exit = self.new_block();
        self.set_term(Terminator::Jump(header));
        self.start_block(header);
        let c = self.expr_into(None, cond)?;
        let t = self.compute_into(
            None,
            Op::Builtin(Builtin::IsTrue),
            vec![Operand::Var(c)],
            cond.span,
        );
        self.set_term(Terminator::Branch {
            cond: t,
            then_bb: body_bb,
            else_bb: exit,
        });
        self.start_block(body_bb);
        self.loops.push(LoopCtx {
            break_target: exit,
            continue_target: header,
        });
        for s in body {
            self.stmt(s)?;
        }
        self.loops.pop();
        self.set_term(Terminator::Jump(header));
        self.start_block(exit);
        Ok(())
    }

    /// `for v = iter` lowering. Literal ranges take a scalar counting
    /// loop (`k = 1..n`, `v = start + (k-1)*step`) so no range vector is
    /// ever materialized; other iterables are evaluated once and indexed.
    fn for_stmt(
        &mut self,
        var: &str,
        iter: &Expr,
        body: &[Stmt],
        span: Span,
    ) -> Result<(), LowerError> {
        enum IterPlan {
            Range {
                start: VarId,
                step: VarId,
                stop: VarId,
            },
            Vector(VarId),
        }

        let one = self.const_into(Const::Num(1.0), span);
        let (plan, count) = match &iter.kind {
            ExprKind::Range { start, step, stop } => {
                let sv = self.expr_into(None, start)?;
                let stepv = match step {
                    Some(e) => self.expr_into(None, e)?,
                    None => one,
                };
                let stopv = self.expr_into(None, stop)?;
                let n = self.compute_into(
                    None,
                    Op::Builtin(Builtin::RangeCount),
                    vec![Operand::Var(sv), Operand::Var(stepv), Operand::Var(stopv)],
                    iter.span,
                );
                (
                    IterPlan::Range {
                        start: sv,
                        step: stepv,
                        stop: stopv,
                    },
                    n,
                )
            }
            _ => {
                let vec = self.expr_into(None, iter)?;
                let n = self.compute_into(
                    None,
                    Op::Builtin(Builtin::Numel),
                    vec![Operand::Var(vec)],
                    iter.span,
                );
                (IterPlan::Vector(vec), n)
            }
        };

        // k = 0; header: k = k + 1; if k <= n goto body else exit.
        let k = self.temp();
        self.emit(
            InstrKind::Const {
                dst: k,
                value: Const::Num(0.0),
            },
            span,
        );
        let header = self.new_block();
        let body_bb = self.new_block();
        let exit = self.new_block();
        self.set_term(Terminator::Jump(header));

        self.start_block(header);
        self.compute_into(
            Some(k),
            Op::Bin(BinOp::Add),
            vec![Operand::Var(k), Operand::Var(one)],
            span,
        );
        let cmp = self.compute_into(
            None,
            Op::Bin(BinOp::Le),
            vec![Operand::Var(k), Operand::Var(count)],
            span,
        );
        self.set_term(Terminator::Branch {
            cond: cmp,
            then_bb: body_bb,
            else_bb: exit,
        });

        self.start_block(body_bb);
        let loop_var = self.source_var(var);
        match plan {
            IterPlan::Range { start, step, stop } => {
                self.compute_into(
                    Some(loop_var),
                    Op::Builtin(Builtin::LoopIndex),
                    vec![
                        Operand::Var(start),
                        Operand::Var(step),
                        Operand::Var(stop),
                        Operand::Var(k),
                    ],
                    span,
                );
            }
            IterPlan::Vector(vecv) => {
                self.compute_into(
                    Some(loop_var),
                    Op::Subsref,
                    vec![Operand::Var(vecv), Operand::Var(k)],
                    span,
                );
            }
        }
        self.loops.push(LoopCtx {
            break_target: exit,
            continue_target: header,
        });
        for s in body {
            self.stmt(s)?;
        }
        self.loops.pop();
        self.set_term(Terminator::Jump(header));
        self.start_block(exit);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Lowers `expr`, producing its value in `dst` (or a fresh temp).
    fn expr_into(&mut self, dst: Option<VarId>, expr: &Expr) -> Result<VarId, LowerError> {
        let span = expr.span;
        match &expr.kind {
            ExprKind::Number(v) => {
                let d = dst.unwrap_or_else(|| self.temp());
                self.emit(
                    InstrKind::Const {
                        dst: d,
                        value: Const::Num(*v),
                    },
                    span,
                );
                Ok(d)
            }
            ExprKind::ImagNumber(v) => {
                let d = dst.unwrap_or_else(|| self.temp());
                self.emit(
                    InstrKind::Const {
                        dst: d,
                        value: Const::Imag(*v),
                    },
                    span,
                );
                Ok(d)
            }
            ExprKind::Str(s) => {
                let d = dst.unwrap_or_else(|| self.temp());
                self.emit(
                    InstrKind::Const {
                        dst: d,
                        value: Const::Str(s.clone()),
                    },
                    span,
                );
                Ok(d)
            }
            ExprKind::Ident(name) => {
                if self.is_variable(name) {
                    let v = self.source_var(name);
                    match dst {
                        Some(d) if d != v => {
                            self.emit(InstrKind::Copy { dst: d, src: v }, span);
                            Ok(d)
                        }
                        _ => Ok(v),
                    }
                } else if let Some(b) = Builtin::from_name(name) {
                    if b.is_effect() {
                        return Err(LowerError::new(
                            format!("`{name}` cannot be used as a value"),
                            span,
                        ));
                    }
                    Ok(self.compute_into(dst, Op::Builtin(b), vec![], span))
                } else if self.signatures.contains_key(name) {
                    // Zero-argument user call.
                    Ok(self.compute_into(dst, Op::Call(name.clone()), vec![], span))
                } else {
                    Err(LowerError::new(
                        format!("undefined variable or function `{name}`"),
                        span,
                    ))
                }
            }
            ExprKind::End => {
                let ctx = self.end_stack.last().ok_or_else(|| {
                    LowerError::new("`end` used outside of an indexing context", span)
                })?;
                let (array, dim, ndims) = (ctx.array, ctx.dim, ctx.ndims);
                if ndims == 1 {
                    Ok(self.compute_into(
                        dst,
                        Op::Builtin(Builtin::Numel),
                        vec![Operand::Var(array)],
                        span,
                    ))
                } else {
                    let d = self.const_into(Const::Num((dim + 1) as f64), span);
                    Ok(self.compute_into(
                        dst,
                        Op::Builtin(Builtin::Size),
                        vec![Operand::Var(array), Operand::Var(d)],
                        span,
                    ))
                }
            }
            ExprKind::Colon => Err(LowerError::new(
                "`:` used outside of an indexing context",
                span,
            )),
            ExprKind::Range { start, step, stop } => {
                let sv = self.expr_into(None, start)?;
                match step {
                    Some(stepe) => {
                        let stepv = self.expr_into(None, stepe)?;
                        let stopv = self.expr_into(None, stop)?;
                        Ok(self.compute_into(
                            dst,
                            Op::Range3,
                            vec![Operand::Var(sv), Operand::Var(stepv), Operand::Var(stopv)],
                            span,
                        ))
                    }
                    None => {
                        let stopv = self.expr_into(None, stop)?;
                        Ok(self.compute_into(
                            dst,
                            Op::Range2,
                            vec![Operand::Var(sv), Operand::Var(stopv)],
                            span,
                        ))
                    }
                }
            }
            ExprKind::Unary { op, operand } => {
                // `+x` is the identity on numeric values.
                if *op == UnOp::Plus {
                    return self.expr_into(dst, operand);
                }
                let v = self.expr_into(None, operand)?;
                Ok(self.compute_into(dst, Op::Un(*op), vec![Operand::Var(v)], span))
            }
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::ShortAnd | BinOp::ShortOr => self.short_circuit(dst, *op, lhs, rhs, span),
                _ => {
                    let l = self.expr_into(None, lhs)?;
                    let r = self.expr_into(None, rhs)?;
                    Ok(self.compute_into(
                        dst,
                        Op::Bin(*op),
                        vec![Operand::Var(l), Operand::Var(r)],
                        span,
                    ))
                }
            },
            ExprKind::Apply { name, args } => {
                if self.is_variable(name) {
                    let arr = self.source_var(name);
                    let subs = self.lower_subscripts(arr, args)?;
                    let mut op_args = vec![Operand::Var(arr)];
                    op_args.extend(subs);
                    Ok(self.compute_into(dst, Op::Subsref, op_args, span))
                } else if let Some(b) = Builtin::from_name(name) {
                    if b.is_effect() {
                        return Err(LowerError::new(
                            format!("`{name}` cannot be used as a value"),
                            span,
                        ));
                    }
                    let mut ops = Vec::with_capacity(args.len());
                    for a in args {
                        let v = self.expr_into(None, a)?;
                        ops.push(Operand::Var(v));
                    }
                    Ok(self.compute_into(dst, Op::Builtin(b), ops, span))
                } else if let Some((nparams, nouts)) = self.signatures.get(name).copied() {
                    if args.len() > nparams {
                        return Err(LowerError::new(
                            format!("too many inputs to `{name}`"),
                            span,
                        ));
                    }
                    if nouts == 0 {
                        return Err(LowerError::new(
                            format!("function `{name}` returns no value"),
                            span,
                        ));
                    }
                    let mut ops = Vec::with_capacity(args.len());
                    for a in args {
                        let v = self.expr_into(None, a)?;
                        ops.push(Operand::Var(v));
                    }
                    Ok(self.compute_into(dst, Op::Call(name.clone()), ops, span))
                } else {
                    Err(LowerError::new(
                        format!("undefined variable or function `{name}`"),
                        span,
                    ))
                }
            }
            ExprKind::Matrix { rows } => {
                if rows.is_empty() {
                    let d = dst.unwrap_or_else(|| self.temp());
                    self.emit(
                        InstrKind::Const {
                            dst: d,
                            value: Const::Empty,
                        },
                        span,
                    );
                    return Ok(d);
                }
                let mut row_lens = Vec::with_capacity(rows.len());
                let mut ops = Vec::new();
                for row in rows {
                    row_lens.push(row.len());
                    for el in row {
                        let v = self.expr_into(None, el)?;
                        ops.push(Operand::Var(v));
                    }
                }
                Ok(self.compute_into(dst, Op::MatrixBuild { rows: row_lens }, ops, span))
            }
        }
    }

    /// Lowers `a && b` / `a || b` with genuine short-circuit control flow.
    fn short_circuit(
        &mut self,
        dst: Option<VarId>,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> Result<VarId, LowerError> {
        let result = dst.unwrap_or_else(|| self.temp());
        let l = self.expr_into(None, lhs)?;
        let lt = self.compute_into(
            None,
            Op::Builtin(Builtin::IsTrue),
            vec![Operand::Var(l)],
            lhs.span,
        );
        let rhs_bb = self.new_block();
        let settle_bb = self.new_block();
        let join = self.new_block();
        match op {
            BinOp::ShortAnd => {
                // If lhs true, evaluate rhs; else result = false.
                self.set_term(Terminator::Branch {
                    cond: lt,
                    then_bb: rhs_bb,
                    else_bb: settle_bb,
                });
                self.start_block(settle_bb);
                self.emit(
                    InstrKind::Const {
                        dst: result,
                        value: Const::Bool(false),
                    },
                    span,
                );
                self.set_term(Terminator::Jump(join));
            }
            BinOp::ShortOr => {
                self.set_term(Terminator::Branch {
                    cond: lt,
                    then_bb: settle_bb,
                    else_bb: rhs_bb,
                });
                self.start_block(settle_bb);
                self.emit(
                    InstrKind::Const {
                        dst: result,
                        value: Const::Bool(true),
                    },
                    span,
                );
                self.set_term(Terminator::Jump(join));
            }
            _ => unreachable!("short_circuit called with {op:?}"),
        }
        self.start_block(rhs_bb);
        let r = self.expr_into(None, rhs)?;
        self.compute_into(
            Some(result),
            Op::Builtin(Builtin::IsTrue),
            vec![Operand::Var(r)],
            rhs.span,
        );
        self.set_term(Terminator::Jump(join));
        self.start_block(join);
        Ok(result)
    }

    /// Lowers index subscripts for `array`, handling `:` and `end`.
    fn lower_subscripts(
        &mut self,
        array: VarId,
        args: &[Expr],
    ) -> Result<Vec<Operand>, LowerError> {
        let ndims = args.len();
        let mut out = Vec::with_capacity(ndims);
        for (dim, a) in args.iter().enumerate() {
            if matches!(a.kind, ExprKind::Colon) {
                out.push(Operand::ColonAll);
                continue;
            }
            self.end_stack.push(EndCtx { array, dim, ndims });
            let v = self.expr_into(None, a);
            self.end_stack.pop();
            out.push(Operand::Var(v?));
        }
        Ok(out)
    }
}

/// Collects every name assigned anywhere in `stmts` (including loop
/// variables and multi-assign outputs), for call-vs-index resolution.
fn collect_assigned(stmts: &[Stmt], out: &mut HashSet<String>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Assign { lhs, .. } => {
                if let Some(n) = lhs.var_name() {
                    out.insert(n.to_string());
                }
            }
            StmtKind::MultiAssign { lhss, .. } => {
                for l in lhss {
                    if let Some(n) = l.var_name() {
                        out.insert(n.to_string());
                    }
                }
            }
            StmtKind::ExprStmt { .. } => {
                out.insert("ans".to_string());
            }
            StmtKind::If { arms, else_body } => {
                for (_, body) in arms {
                    collect_assigned(body, out);
                }
                if let Some(b) = else_body {
                    collect_assigned(b, out);
                }
            }
            StmtKind::While { body, .. } => collect_assigned(body, out),
            StmtKind::For { var, body, .. } => {
                out.insert(var.clone());
                collect_assigned(body, out);
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Return => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;

    fn lower(src: &str) -> IrProgram {
        let ast = parse_program([src]).unwrap();
        lower_program(&ast).unwrap_or_else(|e| panic!("lowering failed: {e}"))
    }

    fn lower_err(src: &str) -> LowerError {
        let ast = parse_program([src]).unwrap();
        lower_program(&ast).unwrap_err()
    }

    fn entry_text(prog: &IrProgram) -> String {
        prog.entry_func().to_string()
    }

    #[test]
    fn straight_line_so_form() {
        let p = lower("function y = f(a, b)\ny = a * b + 1;\n");
        let f = p.entry_func();
        // The compound RHS must be split into single-operator steps.
        let body = &f.block(f.entry).instrs;
        let computes = body
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Compute { .. }))
            .count();
        assert_eq!(computes, 2, "a*b, then +1:\n{f}");
    }

    #[test]
    fn index_vs_call_resolution() {
        // `n` is assigned, so `n(1)` is subsref; `g` is a function call.
        let p = lower(
            "function y = f(x)\nn = x;\ny = n(1) + g(x);\nend\nfunction y = g(x)\ny = x;\nend\n",
        );
        let txt = entry_text(&p);
        assert!(txt.contains("subsref"), "{txt}");
        assert!(txt.contains("call g"), "{txt}");
    }

    #[test]
    fn end_rewrites_to_numel_or_size() {
        let p = lower("function y = f(x)\ny = x(end);\n");
        assert!(entry_text(&p).contains("numel"));

        let p2 = lower("function y = f(x)\ny = x(1, end);\n");
        assert!(entry_text(&p2).contains("size"));
    }

    #[test]
    fn colon_subscript_is_colonall() {
        let p = lower("function y = f(x)\ny = x(:, 2);\n");
        assert!(entry_text(&p).contains("subsref(x, :,"));
    }

    #[test]
    fn subsasgn_form() {
        let p = lower("function a = f(a, v)\na(2, 3) = v;\n");
        let txt = entry_text(&p);
        assert!(txt.contains("a <- subsasgn(a, v"), "{txt}");
    }

    #[test]
    fn shrinkage_is_rejected() {
        let e = lower_err("function a = f(a)\na(2) = [];\n");
        assert!(e.message.contains("shrinkage"), "{e}");
    }

    #[test]
    fn undefined_name_is_rejected() {
        let e = lower_err("function y = f(x)\ny = nosuch(x, 1);\n");
        assert!(e.message.contains("undefined"), "{e}");
    }

    #[test]
    fn if_else_builds_diamond() {
        let p = lower("function y = f(x)\nif x > 0\ny = 1;\nelse\ny = 2;\nend\n");
        let f = p.entry_func();
        // entry, exit, join, then-body, else-body at minimum.
        assert!(f.blocks.len() >= 5, "{f}");
        assert!(entry_text(&p).contains("istrue"));
    }

    #[test]
    fn while_loop_shape() {
        let p = lower("function y = f(x)\ny = 0;\nwhile y < x\ny = y + 1;\nend\n");
        let f = p.entry_func();
        let branches = f
            .block_ids()
            .filter(|b| matches!(f.block(*b).term, Terminator::Branch { .. }))
            .count();
        assert_eq!(branches, 1, "{f}");
    }

    #[test]
    fn for_range_is_scalar_loop() {
        let p = lower("function s = f(n)\ns = 0;\nfor i = 1:n\ns = s + i;\nend\n");
        let txt = entry_text(&p);
        assert!(txt.contains("range_count"), "{txt}");
        // No range vector materialized.
        assert!(!txt.contains("<- range("), "{txt}");
    }

    #[test]
    fn for_vector_materializes_and_indexes() {
        let p = lower("function s = f(v)\ns = 0;\nfor x = v * 2\ns = s + x;\nend\n");
        let txt = entry_text(&p);
        assert!(txt.contains("numel"), "{txt}");
        assert!(txt.contains("subsref"), "{txt}");
    }

    #[test]
    fn break_and_continue_target_loop_blocks() {
        let p =
            lower("function y = f(n)\ny = 0;\nfor i = 1:n\nif i > 2\nbreak\nend\ny = i;\nend\n");
        assert!(p.entry_func().blocks.len() > 5);
        let e = lower_err("function y = f(n)\nbreak\ny = 1;\n");
        assert!(e.message.contains("outside a loop"));
    }

    #[test]
    fn short_circuit_becomes_control_flow() {
        let p = lower("function y = f(a, b)\nif a > 0 && b > 0\ny = 1;\nelse\ny = 0;\nend\n");
        let f = p.entry_func();
        let branches = f
            .block_ids()
            .filter(|b| matches!(f.block(*b).term, Terminator::Branch { .. }))
            .count();
        assert!(branches >= 2, "short-circuit adds a branch:\n{f}");
    }

    #[test]
    fn multi_assign_lowers_to_call_multi() {
        let p = lower("function y = f(x)\n[m, n] = size(x);\ny = m + n;\n");
        let txt = entry_text(&p);
        assert!(txt.contains("[m, n] <- call size(x)"), "{txt}");
    }

    #[test]
    fn display_emitted_without_semicolon() {
        let p = lower("function y = f(x)\ny = x + 1\n");
        assert!(entry_text(&p).contains("display y"));
        let p2 = lower("function y = f(x)\ny = x + 1;\n");
        assert!(!entry_text(&p2).contains("display"));
    }

    #[test]
    fn effect_call_statement() {
        let p = lower("function f(x)\nfprintf('%d\\n', x);\n");
        assert!(entry_text(&p).contains("effect fprintf"));
    }

    #[test]
    fn matrix_literal_build() {
        let p = lower("function y = f(a)\ny = [a 1; 2 3];\n");
        assert!(entry_text(&p).contains("matrix[2, 2]"));
    }

    #[test]
    fn empty_matrix_is_const() {
        let p = lower("function y = f()\ny = [];\n");
        assert!(entry_text(&p).contains("y <- []"));
    }

    #[test]
    fn return_jumps_to_exit() {
        let p = lower("function y = f(x)\ny = 1;\nif x > 0\nreturn\nend\ny = 2;\n");
        let f = p.entry_func();
        let returns = f
            .block_ids()
            .filter(|b| matches!(f.block(*b).term, Terminator::Return))
            .count();
        assert_eq!(returns, 1, "single exit block:\n{f}");
    }

    #[test]
    fn unary_plus_is_identity() {
        let p = lower("function y = f(x)\ny = +x;\n");
        let f = p.entry_func();
        let has_un = f
            .block(f.entry)
            .instrs
            .iter()
            .any(|i| matches!(&i.kind, InstrKind::Compute { op: Op::Un(_), .. }));
        assert!(!has_un, "{f}");
    }

    #[test]
    fn constants_fold_into_dst() {
        let p = lower("function y = f()\ny = 42;\n");
        let f = p.entry_func();
        assert!(matches!(
            &f.block(f.entry).instrs[0].kind,
            InstrKind::Const { value: Const::Num(v), .. } if *v == 42.0
        ));
    }
}
