//! Exact scalars: the variables whose every value is a 1×1 array.
//!
//! Inferred shapes cannot say this. They are upper bounds for sizing: a
//! φ of `[]` and a scalar joins to `1 × 1`, and so does a parameter
//! passed both. A value the C backend computes as a plain `double` must
//! have exactly one element on every path, so this is a separate,
//! structural fact: the greatest fixpoint, over the whole program, of a
//! local rule per definition.
//!
//! * Numeric constants, and ops that always yield one element
//!   (`istrue`, `numel`, `range_count`, `loop_index`, `size(a, k)`, ...),
//!   are exact. So are `zeros`, `ones`, `eye` and `rand` of `1`s.
//! * Operators, elementwise maps, two-operand `mod`/`rem`/`atan2`/
//!   `max`/`min` and reductions are exact over exact operands; a
//!   subscript by exact scalars yields one element (or raises).
//! * Copies and φs are exact when their sources are.
//! * A parameter is exact when the function is called, is not the
//!   entry, and every call site passes an exact value in its position;
//!   a call's result is exact when the callee's output at exit is.
//!
//! Starting from "everything defined is exact" and removing whatever a
//! rule rejects until nothing changes makes loops and recursion work:
//! a counter `k = k + 1` stays exact because its start is.

use matc_ir::ids::{FuncId, VarId};
use matc_ir::instr::{Const, InstrKind, Op, Operand};
use matc_ir::{Builtin, IrProgram};

/// One definition the rule looks at: its variable and defining
/// instruction, with the output position for multi-output calls.
struct Def<'a> {
    var: VarId,
    kind: &'a InstrKind,
    out: usize,
}

/// A set of one function's variables, indexed by [`VarId`].
type VarSet = Vec<bool>;

fn has(set: &VarSet, v: VarId) -> bool {
    set.get(v.index()).copied().unwrap_or(false)
}

/// Per function (indexed by [`FuncId`]), which of its variables (by
/// [`VarId`] index) are exact scalars.
pub fn exact_scalars(prog: &IrProgram) -> Vec<Vec<bool>> {
    let n = prog.functions.len();
    let mut defs: Vec<Vec<Def<'_>>> = Vec::with_capacity(n);
    // Per callee: every call site's caller and arguments.
    let mut sites: Vec<Vec<(usize, &[Operand])>> = vec![Vec::new(); n];
    let mut ones: Vec<VarSet> = prog
        .functions
        .iter()
        .map(|f| vec![false; f.vars.len()])
        .collect();
    for (fi, f) in prog.functions.iter().enumerate() {
        let mut fdefs = Vec::new();
        for b in f.block_ids() {
            for instr in &f.block(b).instrs {
                let kind = &instr.kind;
                match kind {
                    InstrKind::Const { dst, value } => {
                        if matches!(value, Const::Num(x) if *x == 1.0) {
                            ones[fi][dst.index()] = true;
                        }
                        fdefs.push(Def {
                            var: *dst,
                            kind,
                            out: 0,
                        });
                    }
                    InstrKind::Copy { dst, .. } | InstrKind::Phi { dst, .. } => {
                        fdefs.push(Def {
                            var: *dst,
                            kind,
                            out: 0,
                        });
                    }
                    InstrKind::Compute { dst, op, args } => {
                        if let Op::Call(name) = op {
                            if let Some(callee) = prog.by_name.get(name) {
                                sites[callee.index()].push((fi, args));
                            }
                        }
                        fdefs.push(Def {
                            var: *dst,
                            kind,
                            out: 0,
                        });
                    }
                    InstrKind::CallMulti { dsts, func, args } => {
                        if let Some(callee) = prog.by_name.get(func) {
                            sites[callee.index()].push((fi, args));
                        }
                        for (out, d) in dsts.iter().enumerate() {
                            fdefs.push(Def { var: *d, kind, out });
                        }
                    }
                    InstrKind::Display { .. } | InstrKind::Effect { .. } => {}
                }
            }
        }
        defs.push(fdefs);
    }

    let mut exact: Vec<VarSet> = prog
        .functions
        .iter()
        .zip(&defs)
        .map(|(f, fdefs)| {
            let mut set = vec![false; f.vars.len()];
            for v in fdefs.iter().map(|d| d.var).chain(f.params.iter().copied()) {
                set[v.index()] = true;
            }
            set
        })
        .collect();
    loop {
        let mut changed = false;
        for fi in 0..n {
            let f = &prog.functions[fi];
            for (k, p) in f.params.iter().enumerate() {
                let called = prog.entry != Some(FuncId::new(fi)) && !sites[fi].is_empty();
                let passed = called
                    && sites[fi].iter().all(|(caller, args)| {
                        matches!(args.get(k), Some(Operand::Var(a)) if has(&exact[*caller], *a))
                    });
                if !passed && has(&exact[fi], *p) {
                    exact[fi][p.index()] = false;
                    changed = true;
                }
            }
            for d in &defs[fi] {
                if has(&exact[fi], d.var) && !yields_scalar(prog, d, &exact, fi, &ones[fi]) {
                    exact[fi][d.var.index()] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            return exact;
        }
    }
}

/// Whether definition `d` of function `fi` yields exactly one element
/// when the variables in `exact` do (`ones` holds `fi`'s constants
/// equal to 1).
fn yields_scalar(
    prog: &IrProgram,
    d: &Def<'_>,
    exact: &[VarSet],
    fi: usize,
    ones: &VarSet,
) -> bool {
    let here = &exact[fi];
    let is = |set: &VarSet, o: &Operand| matches!(o, Operand::Var(v) if has(set, *v));
    let all_exact = |args: &[Operand]| !args.is_empty() && args.iter().all(|a| is(here, a));
    // The callee's output `out` at exit, if the callee is a user
    // function.
    let callee_out = |name: &str, out: usize| {
        prog.by_name.get(name).map(|c| {
            let callee = prog.func(*c);
            let outs = if callee.ssa_outs.is_empty() {
                &callee.outs
            } else {
                &callee.ssa_outs
            };
            outs.get(out).is_some_and(|o| has(&exact[c.index()], *o))
        })
    };
    match d.kind {
        InstrKind::Const { value, .. } => matches!(value, Const::Num(_) | Const::Bool(_)),
        InstrKind::Copy { src, .. } => has(here, *src),
        InstrKind::Phi { args, .. } => args.iter().all(|(_, v)| has(here, *v)),
        InstrKind::Compute { op, args, .. } => match op {
            Op::Bin(_) | Op::Un(_) => all_exact(args),
            Op::Subsref => (2..=4).contains(&args.len()) && all_exact(&args[1..]),
            Op::Call(name) => callee_out(name, 0).unwrap_or(false),
            Op::Builtin(bi) if bi.is_scalar_valued() => true,
            Op::Builtin(Builtin::Size) => args.len() == 2,
            // `zeros(1, 1)`, `rand(1)`, `rand`, ...
            Op::Builtin(Builtin::Zeros | Builtin::Ones | Builtin::Eye | Builtin::Rand) => {
                args.iter().all(|a| is(ones, a))
            }
            Op::Builtin(bi) => {
                (bi.is_elementwise_map()
                    || matches!(
                        bi,
                        Builtin::Mod
                            | Builtin::Rem
                            | Builtin::Atan2
                            | Builtin::Max
                            | Builtin::Min
                            | Builtin::Sum
                            | Builtin::Prod
                            | Builtin::Mean
                            | Builtin::Any
                            | Builtin::All
                    ))
                    && all_exact(args)
            }
            Op::Range2 | Op::Range3 | Op::Subsasgn | Op::MatrixBuild { .. } => false,
        },
        InstrKind::CallMulti { func, args, .. } => match callee_out(func, d.out) {
            Some(exact_out) => exact_out,
            // `[r, c] = size(a)` and `[m, i] = max(x)` of a scalar.
            None => match Builtin::from_name(func) {
                Some(Builtin::Size) => true,
                Some(Builtin::Max | Builtin::Min) => all_exact(args),
                _ => false,
            },
        },
        InstrKind::Display { .. } | InstrKind::Effect { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;
    use matc_ir::build_ssa;

    /// The exact scalars of `name`, by display name.
    fn exact_in(src: &str, name: &str) -> Vec<String> {
        let ir = build_ssa(&parse_program([src]).unwrap()).unwrap();
        let fid = ir.by_name[name];
        let f = ir.func(fid);
        exact_scalars(&ir)[fid.index()]
            .iter()
            .enumerate()
            .filter(|(_, e)| **e)
            .map(|(i, _)| f.vars.display_name(VarId::new(i)))
            .collect()
    }

    #[test]
    fn joins_with_empty_or_rows_are_not_exact() {
        let e = exact_in(
            "function f()\nx = 1;\nz = [];\nif rand(1, 1) > 0.5\n  x = [1 2 3];\n  z = 2;\nend\ndisp(x);\ndisp(z);\nfor i = 1:3\nend\ndisp(i);\n",
            "f",
        );
        assert!(e.contains(&"x.1".to_string()), "{e:?}");
        assert!(
            !e.iter().any(|v| v == "x.3" || v == "z.3" || v == "i.2"),
            "{e:?}"
        );
    }

    #[test]
    fn parameters_follow_their_call_sites() {
        let src = "function d()\ndisp(g(3) + h(4) + h([1 2]));\nend\n\
                   function y = g(n)\ny = n + 1;\nend\n\
                   function y = h(n)\ny = n * 2;\nend\n";
        assert!(exact_in(src, "g").contains(&"n.1".to_string()));
        assert!(exact_in(src, "g").contains(&"y.1".to_string()));
        assert!(!exact_in(src, "h").contains(&"n.1".to_string()));
        assert!(!exact_in(src, "h").contains(&"y.1".to_string()));
    }

    #[test]
    fn recursion_keeps_exactness_from_its_base_case() {
        let src = "function d()\ndisp(down(5));\nend\n\
                   function r = down(k)\nif k <= 0\n  r = 0;\nelse\n  r = down(k - 1) + 1;\nend\nend\n";
        let e = exact_in(src, "down");
        assert!(e.contains(&"k.1".to_string()), "{e:?}");
        assert!(e.iter().any(|v| v.starts_with("r.")), "{e:?}");
    }
}
