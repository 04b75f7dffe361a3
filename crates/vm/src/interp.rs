//! The reference interpreter: a direct AST walker with MATLAB
//! semantics.
//!
//! Plays two roles: the *oracle* for differential testing (every
//! executor must match its output exactly), and the "MATLAB interpreter"
//! bar of Figure 5. Values live in per-call hash-map environments; every
//! operation allocates — the slowest, simplest model.

use crate::dispatch::{eval_binop, eval_builtin, eval_builtin_multi, eval_unop, Shared};
use matc_frontend::ast::{BinOp, Expr, ExprKind, Function, LValue, Program, Stmt, StmtKind, UnOp};
use matc_ir::Builtin;
use matc_runtime::error::{err, Result};
use matc_runtime::format;
use matc_runtime::mem::{ImageModel, MemRecorder};
use matc_runtime::ops::index::{self, Sub};
use matc_runtime::value::Value;
use std::collections::HashMap;

/// The tree-walking interpreter.
pub struct Interp<'p> {
    program: &'p Program,
    /// Shared RNG + output.
    pub shared: Shared,
    /// Memory recorder (interpreter image model).
    pub mem: MemRecorder,
    call_depth: usize,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

struct Frame {
    vars: HashMap<String, Value>,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for `program`.
    pub fn new(program: &'p Program) -> Interp<'p> {
        Interp {
            program,
            shared: Shared::new(),
            mem: MemRecorder::new(ImageModel::interpreter()),
            call_depth: 0,
        }
    }

    /// Sets the RNG seed (all executors must agree for differential
    /// runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.shared = Shared::with_seed(seed);
        self
    }

    /// Runs the entry function with no arguments and returns the
    /// collected output.
    ///
    /// # Errors
    ///
    /// Propagates MATLAB run-time errors.
    pub fn run(&mut self) -> Result<String> {
        let entry = self.program.entry_function();
        self.call(entry, vec![])?;
        Ok(std::mem::take(&mut self.shared.out))
    }

    /// Calls a user function with `args`, returning its outputs.
    fn call(&mut self, func: &'p Function, args: Vec<Value>) -> Result<Vec<Value>> {
        self.call_depth += 1;
        // MATLAB's default RecursionLimit is 100; enforcing it also
        // bounds the host stack in debug builds.
        if self.call_depth > 100 {
            self.call_depth -= 1;
            return err("maximum recursion depth exceeded");
        }
        if args.len() > func.params.len() {
            self.call_depth -= 1;
            return err(format!("too many inputs to `{}`", func.name));
        }
        let mut frame = Frame {
            vars: HashMap::new(),
        };
        let mut arg_bytes = 0;
        for (p, v) in func.params.iter().zip(args) {
            arg_bytes += v.payload_bytes() + 32;
            frame.vars.insert(p.clone(), v);
        }
        // Interpreter model: activation records live on the heap
        // (hash-map environments), a small constant plus argument copies.
        let frame_charge = self.mem.heap_alloc(256 + arg_bytes);
        let flow = self.block(&func.body, &mut frame);
        let result = match flow {
            Err(e) => Err(e),
            Ok(_) => {
                let mut outs = Vec::with_capacity(func.outs.len());
                for o in &func.outs {
                    match frame.vars.get(o) {
                        Some(v) => outs.push(v.clone()),
                        None => {
                            // Unassigned outputs are only an error if
                            // requested; return empty to keep arity.
                            outs.push(Value::empty());
                        }
                    }
                }
                Ok(outs)
            }
        };
        self.mem.heap_free(frame_charge);
        self.call_depth -= 1;
        result
    }

    fn block(&mut self, stmts: &'p [Stmt], frame: &mut Frame) -> Result<Flow> {
        for s in stmts {
            match self.stmt(s, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, stmt: &'p Stmt, frame: &mut Frame) -> Result<Flow> {
        match &stmt.kind {
            StmtKind::Assign { lhs, rhs, display } => {
                let value = self.expr(rhs, frame)?;
                self.assign(lhs, value, *display, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::MultiAssign {
                lhss,
                func,
                args,
                display,
            } => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.expr(a, frame))
                    .collect::<Result<_>>()?;
                let outs = self.call_by_name(func, argv, lhss.len())?;
                for (lhs, v) in lhss.iter().zip(outs) {
                    if !matches!(lhs, LValue::Ignore) {
                        self.assign(lhs, v, *display, frame)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::ExprStmt { expr, display } => {
                // Effect builtins produce no `ans`.
                if let ExprKind::Apply { name, args } = &expr.kind {
                    if !frame.vars.contains_key(name) {
                        if let Some(b) = Builtin::from_name(name) {
                            if b.is_effect() {
                                let argv: Vec<Value> = args
                                    .iter()
                                    .map(|a| self.expr(a, frame))
                                    .collect::<Result<_>>()?;
                                let refs: Vec<&Value> = argv.iter().collect();
                                eval_builtin(b, &refs, &mut self.shared)?;
                                self.mem.advance(4);
                                return Ok(Flow::Normal);
                            }
                        }
                        if self.program.function(name).is_some() {
                            let argv: Vec<Value> = args
                                .iter()
                                .map(|a| self.expr(a, frame))
                                .collect::<Result<_>>()?;
                            let outs = self.call_by_name(name, argv, 0)?;
                            if let (true, Some(v)) = (*display, outs.first()) {
                                self.shared.out.push_str(&format::echo("ans", v));
                            }
                            return Ok(Flow::Normal);
                        }
                    }
                }
                let v = self.expr(expr, frame)?;
                if *display {
                    self.shared.out.push_str(&format::echo("ans", &v));
                }
                frame.vars.insert("ans".to_string(), v);
                Ok(Flow::Normal)
            }
            StmtKind::If { arms, else_body } => {
                for (cond, body) in arms {
                    let c = self.expr(cond, frame)?;
                    if c.is_true() {
                        return self.block(body, frame);
                    }
                }
                if let Some(body) = else_body {
                    return self.block(body, frame);
                }
                Ok(Flow::Normal)
            }
            StmtKind::While { cond, body } => {
                let mut guard = 0u64;
                loop {
                    let c = self.expr(cond, frame)?;
                    if !c.is_true() {
                        return Ok(Flow::Normal);
                    }
                    match self.block(body, frame)? {
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                    guard += 1;
                    if guard > 100_000_000 {
                        return err("while loop exceeded the iteration guard");
                    }
                }
            }
            StmtKind::For { var, iter, body } => {
                let seq = self.expr(iter, frame)?;
                // MATLAB iterates over the *columns* of the iterable.
                let d = seq.dims();
                let (rows, cols) = (d[0], d[1..].iter().product::<usize>());
                for c in 0..cols {
                    let col = if rows == 1 {
                        let (re, im) = seq.at(c);
                        if im == 0.0 {
                            Value::scalar(re)
                        } else {
                            Value::complex_scalar(re, im)
                        }
                    } else {
                        let sub = Sub::Range {
                            start: rows * c,
                            step: 1,
                            count: rows,
                        };
                        index::subsref(&seq, &[sub])?
                    };
                    frame.vars.insert(var.clone(), col);
                    match self.block(body, frame)? {
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Return => Ok(Flow::Return),
        }
    }

    fn assign(
        &mut self,
        lhs: &'p LValue,
        value: Value,
        display: bool,
        frame: &mut Frame,
    ) -> Result<()> {
        match lhs {
            LValue::Var(name) => {
                self.account_value(&value);
                if display {
                    self.shared.out.push_str(&format::echo(name, &value));
                }
                frame.vars.insert(name.clone(), value);
            }
            LValue::Index { name, args } => {
                let old = frame.vars.remove(name).unwrap_or_else(Value::empty);
                let subs = self.subscripts(name, args, &old, frame)?;
                let new = index::subsasgn(old, &value, &subs)?;
                self.account_value(&new);
                if display {
                    self.shared.out.push_str(&format::echo(name, &new));
                }
                frame.vars.insert(name.clone(), new);
            }
            LValue::Ignore => {}
        }
        Ok(())
    }

    fn account_value(&mut self, v: &Value) {
        self.mem.advance(v.numel() as u64 / 4 + 1);
    }

    fn call_by_name(&mut self, name: &str, args: Vec<Value>, nouts: usize) -> Result<Vec<Value>> {
        if let Some(f) = self.program.function(name) {
            let outs = self.call(f, args)?;
            return Ok(outs);
        }
        if let Some(b) = Builtin::from_name(name) {
            let refs: Vec<&Value> = args.iter().collect();
            return eval_builtin_multi(b, nouts.max(1), &refs, &mut self.shared);
        }
        err(format!("undefined function `{name}`"))
    }

    /// Evaluates subscripts with `end`/`:` resolved against `array`.
    /// Also returns the evaluated subscript values (for the MATLAB rule
    /// that `a(v)` takes a matrix subscript's shape).
    fn subscripts_with_values(
        &mut self,
        args: &'p [Expr],
        array: &Value,
        frame: &Frame,
    ) -> Result<(Vec<Sub>, Vec<Option<Value>>)> {
        let ndims = args.len();
        let mut subs = Vec::with_capacity(ndims);
        let mut vals = Vec::with_capacity(ndims);
        for (k, a) in args.iter().enumerate() {
            if matches!(a.kind, ExprKind::Colon) {
                subs.push(Sub::Colon);
                vals.push(None);
                continue;
            }
            let end_value = if ndims == 1 {
                array.numel()
            } else {
                // Folded trailing dims for the last subscript.
                let d = array.dims();
                if k + 1 == ndims && ndims < d.len() {
                    d[k..].iter().product()
                } else {
                    d.get(k).copied().unwrap_or(1)
                }
            };
            let v = self.expr_with_end(a, frame, Some(end_value as f64))?;
            subs.push(Sub::from_value(&v)?);
            vals.push(Some(v));
        }
        Ok((subs, vals))
    }

    /// Evaluates subscripts, discarding the values.
    fn subscripts(
        &mut self,
        _name: &str,
        args: &'p [Expr],
        array: &Value,
        frame: &Frame,
    ) -> Result<Vec<Sub>> {
        Ok(self.subscripts_with_values(args, array, frame)?.0)
    }

    fn expr(&mut self, e: &'p Expr, frame: &Frame) -> Result<Value> {
        self.expr_with_end(e, frame, None)
    }

    fn expr_with_end(&mut self, e: &'p Expr, frame: &Frame, end_val: Option<f64>) -> Result<Value> {
        self.mem.advance(1);
        match &e.kind {
            ExprKind::Number(v) => Ok(Value::scalar(*v)),
            ExprKind::ImagNumber(v) => Ok(Value::complex_scalar(0.0, *v)),
            ExprKind::Str(s) => Ok(Value::string(s)),
            ExprKind::End => match end_val {
                Some(v) => Ok(Value::scalar(v)),
                None => err("`end` used outside of an indexing context"),
            },
            ExprKind::Colon => err("`:` used outside of an indexing context"),
            ExprKind::Ident(name) => {
                if let Some(v) = frame.vars.get(name) {
                    return Ok(v.clone());
                }
                if let Some(f) = self.program.function(name) {
                    let mut outs = self.call(f, vec![])?;
                    if outs.is_empty() {
                        return err("function returned nothing");
                    }
                    return Ok(outs.swap_remove(0));
                }
                if let Some(b) = Builtin::from_name(name) {
                    return eval_builtin(b, &[], &mut self.shared);
                }
                err(format!("undefined variable or function `{name}`"))
            }
            ExprKind::Range { start, step, stop } => {
                let a = self.expr_with_end(start, frame, end_val)?;
                let b = self.expr_with_end(stop, frame, end_val)?;
                let s = match step {
                    Some(s) => Some(self.expr_with_end(s, frame, end_val)?),
                    None => None,
                };
                index::range(&a, s.as_ref(), &b)
            }
            ExprKind::Unary { op, operand } => {
                let v = self.expr_with_end(operand, frame, end_val)?;
                if *op == UnOp::Plus {
                    return Ok(v);
                }
                self.account_value(&v);
                eval_unop(*op, &v)
            }
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::ShortAnd => {
                    let l = self.expr_with_end(lhs, frame, end_val)?;
                    if !l.is_true() {
                        return Ok(Value::logical(false));
                    }
                    let r = self.expr_with_end(rhs, frame, end_val)?;
                    Ok(Value::logical(r.is_true()))
                }
                BinOp::ShortOr => {
                    let l = self.expr_with_end(lhs, frame, end_val)?;
                    if l.is_true() {
                        return Ok(Value::logical(true));
                    }
                    let r = self.expr_with_end(rhs, frame, end_val)?;
                    Ok(Value::logical(r.is_true()))
                }
                _ => {
                    let l = self.expr_with_end(lhs, frame, end_val)?;
                    let r = self.expr_with_end(rhs, frame, end_val)?;
                    let result = eval_binop(*op, &l, &r)?;
                    self.account_value(&result);
                    Ok(result)
                }
            },
            ExprKind::Apply { name, args } => {
                if let Some(array) = frame.vars.get(name) {
                    // Indexing (no clone: the frame is only read here).
                    let (subs, vals) = self.subscripts_with_values(args, array, frame)?;
                    let mut r = index::subsref(array, &subs)?;
                    // MATLAB rule: a(v) with a matrix (non-vector,
                    // non-logical) subscript takes v's shape.
                    if subs.len() == 1 {
                        if let Some(sv) = &vals[0] {
                            if !sv.is_vector() && sv.class() != matc_runtime::Class::Logical {
                                self.account_value(&r);
                                index::reshape_like(&mut r, sv.dims());
                                return Ok(r);
                            }
                        }
                    }
                    self.account_value(&r);
                    Ok(r)
                } else if self.program.function(name).is_some() {
                    let argv: Vec<Value> = args
                        .iter()
                        .map(|a| self.expr(a, frame))
                        .collect::<Result<_>>()?;
                    let mut outs = self.call_by_name(name, argv, 1)?;
                    if outs.is_empty() {
                        err(format!("`{name}` returned nothing"))
                    } else {
                        Ok(outs.swap_remove(0))
                    }
                } else if let Some(b) = Builtin::from_name(name) {
                    let argv: Vec<Value> = args
                        .iter()
                        .map(|a| self.expr(a, frame))
                        .collect::<Result<_>>()?;
                    let refs: Vec<&Value> = argv.iter().collect();
                    let r = eval_builtin(b, &refs, &mut self.shared)?;
                    self.account_value(&r);
                    Ok(r)
                } else {
                    err(format!("undefined variable or function `{name}`"))
                }
            }
            ExprKind::Matrix { rows } => {
                let mut vals: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut rv = Vec::with_capacity(row.len());
                    for el in row {
                        rv.push(self.expr_with_end(el, frame, end_val)?);
                    }
                    vals.push(rv);
                }
                let grid: Vec<Vec<&Value>> = vals.iter().map(|row| row.iter().collect()).collect();
                let r = matc_runtime::ops::concat::matrix_build(&grid)?;
                self.account_value(&r);
                Ok(r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;

    fn run(srcs: &[&str]) -> String {
        let p = parse_program(srcs.iter().copied()).unwrap();
        let mut i = Interp::new(&p);
        i.run().unwrap_or_else(|e| panic!("runtime error: {e}"))
    }

    fn run_err(srcs: &[&str]) -> String {
        let p = parse_program(srcs.iter().copied()).unwrap();
        let mut i = Interp::new(&p);
        i.run().unwrap_err().message
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run(&["function f()\nx = 2 + 3 * 4;\nfprintf('%d\\n', x);\n"]);
        assert_eq!(out, "14\n");
    }

    #[test]
    fn loops_and_conditionals() {
        let out = run(&[
            "function f()\ns = 0;\nfor i = 1:10\nif mod(i, 2) == 0\ns = s + i;\nend\nend\nfprintf('%d\\n', s);\n",
        ]);
        assert_eq!(out, "30\n");
    }

    #[test]
    fn while_with_break_continue() {
        let out = run(&[
            "function f()\nk = 0;\nn = 0;\nwhile 1\nk = k + 1;\nif k > 10\nbreak\nend\nif mod(k, 3) ~= 0\ncontinue\nend\nn = n + k;\nend\nfprintf('%d\\n', n);\n",
        ]);
        assert_eq!(out, "18\n"); // 3 + 6 + 9
    }

    #[test]
    fn functions_and_recursion() {
        let out = run(&[
            "function f()\nfprintf('%d\\n', fact(5));\nend\nfunction y = fact(n)\nif n <= 1\ny = 1;\nelse\ny = n * fact(n - 1);\nend\nend\n",
        ]);
        assert_eq!(out, "120\n");
    }

    #[test]
    fn multiple_outputs() {
        let out = run(&["function f()\n[m, i] = max([3 9 4]);\nfprintf('%d %d\\n', m, i);\nend\n"]);
        assert_eq!(out, "9 2\n");
    }

    #[test]
    fn matrix_indexing_with_end() {
        let out = run(&[
            "function f()\na = [1 2 3; 4 5 6];\nfprintf('%d %d %d\\n', a(end, end), a(1, end-1), a(end));\n",
        ]);
        // a(end,end)=6; a(1,end-1)=2; a(end) linear = a(2,1)... column
        // major: elements 1 4 2 5 3 6; a(end)=6.
        assert_eq!(out, "6 2 6\n");
    }

    #[test]
    fn growing_array() {
        let out = run(&[
            "function f()\na = [];\nfor i = 1:5\na(i) = i * i;\nend\nfprintf('%d ', a);\nfprintf('\\n');\n",
        ]);
        assert_eq!(out, "1 4 9 16 25 \n");
    }

    #[test]
    fn colon_slice_assignment() {
        let out = run(&[
            "function f()\na = zeros(2, 3);\na(1, :) = [7 8 9];\nfprintf('%g ', sum(a));\nfprintf('\\n');\n",
        ]);
        assert_eq!(out, "7 8 9 \n");
    }

    #[test]
    fn display_echo() {
        let out = run(&["function f()\nx = 3\n"]);
        assert!(out.starts_with("x =\n"), "{out}");
        assert!(out.contains('3'));
    }

    #[test]
    fn short_circuit_avoids_rhs() {
        // Without short-circuit, 1/0 == Inf but x(2) errors; && must skip.
        let out = run(&[
            "function f()\nx = [1];\nif numel(x) > 1 && x(2) > 0\nfprintf('yes\\n');\nelse\nfprintf('no\\n');\nend\n",
        ]);
        assert_eq!(out, "no\n");
    }

    #[test]
    fn for_over_vector_and_matrix_columns() {
        let out = run(&[
            "function f()\ns = 0;\nfor x = [1 2; 3 4]\ns = s + sum(x);\nend\nfprintf('%d\\n', s);\n",
        ]);
        assert_eq!(out, "10\n");
    }

    #[test]
    fn runtime_error_surfaces() {
        let msg = run_err(&["function f()\na = [1 2];\nb = a(5);\n"]);
        assert!(msg.contains("exceeds"), "{msg}");
    }

    #[test]
    fn error_builtin() {
        let msg = run_err(&["function f()\nerror('custom failure');\n"]);
        assert_eq!(msg, "custom failure");
    }

    #[test]
    fn rand_determinism_across_runs() {
        let src = "function f()\na = rand(2, 2);\nfprintf('%.6f\\n', sum(sum(a)));\n";
        assert_eq!(run(&[src]), run(&[src]));
    }

    #[test]
    fn complex_path() {
        let out = run(&["function f()\nz = sqrt(-4);\nfprintf('%g %g\\n', real(z), imag(z));\n"]);
        assert_eq!(out, "0 2\n");
    }

    #[test]
    fn nested_function_calls() {
        let out = run(&[
            "function f()\nfprintf('%d\\n', g(h(2)));\nend\nfunction y = g(x)\ny = x + 1;\nend\nfunction y = h(x)\ny = x * 10;\nend\n",
        ]);
        assert_eq!(out, "21\n");
    }

    #[test]
    fn memory_recorder_active() {
        let p = parse_program(["function f()\na = rand(100, 100);\ndisp(sum(sum(a)));\n"]).unwrap();
        let mut i = Interp::new(&p);
        i.run().unwrap();
        assert!(i.mem.elapsed() > 0);
    }
}
