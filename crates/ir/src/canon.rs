//! The canonical byte encoding of one function's IR — the structural
//! half of an incremental-store fragment key (DESIGN.md §12).
//!
//! [`FuncIr::encode_canonical`] walks every field of the function and
//! appends a self-delimiting byte stream: unsigned integers as LEB128
//! varints (little-endian base 128), `f64`s as their `to_bits` in
//! little-endian order, strings length-prefixed, every sequence
//! count-prefixed and every enum variant tagged. Two functions encode
//! equally iff they are equal field for field (`-0.0` and `0.0`
//! differ, as do spans). Every struct and enum is destructured
//! exhaustively, so a field added to the IR is a compile error here
//! until the walk covers it.
//!
//! The `put_*` primitives are shared with `matc-typeinf`'s canonical
//! facts walk, so both halves of a fragment key speak one encoding.

use crate::cfg::{Block, FuncIr, VarInfo, VarTable};
use crate::ids::{BlockId, VarId};
use crate::instr::{Const, Instr, InstrKind, Op, Operand, Terminator};
use matc_frontend::span::Span;

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_uint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends `v` zigzag-mapped onto [`put_uint`].
pub fn put_int(out: &mut Vec<u8>, v: i64) {
    put_uint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends the bit pattern of `v`, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends `s` with a length prefix.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a sequence length.
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_uint(out, n as u64);
}

fn put_var(out: &mut Vec<u8>, v: VarId) {
    put_uint(out, u64::from(v.0));
}

fn put_block(out: &mut Vec<u8>, b: BlockId) {
    put_uint(out, u64::from(b.0));
}

fn put_vars(out: &mut Vec<u8>, vs: &[VarId]) {
    put_len(out, vs.len());
    for v in vs {
        put_var(out, *v);
    }
}

/// `:` is 0, variable `v` is `v + 1`.
fn put_operands(out: &mut Vec<u8>, args: &[Operand]) {
    put_len(out, args.len());
    for a in args {
        match a {
            Operand::ColonAll => put_uint(out, 0),
            Operand::Var(v) => put_uint(out, u64::from(v.0) + 1),
        }
    }
}

fn put_span(out: &mut Vec<u8>, span: Span) {
    let Span { start, end } = span;
    put_uint(out, u64::from(start));
    put_uint(out, u64::from(end));
}

fn put_const(out: &mut Vec<u8>, c: &Const) {
    match c {
        Const::Num(v) => {
            out.push(0);
            put_f64(out, *v);
        }
        Const::Imag(v) => {
            out.push(1);
            put_f64(out, *v);
        }
        Const::Str(s) => {
            out.push(2);
            put_str(out, s);
        }
        Const::Empty => out.push(3),
        Const::Bool(b) => out.extend_from_slice(&[4, u8::from(*b)]),
    }
}

/// Operators and builtins go by name, not discriminant, so reordering
/// an enum cannot alias keys of fragments already on disk.
fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Bin(b) => {
            out.push(0);
            put_str(out, b.symbol());
        }
        Op::Un(u) => {
            out.push(1);
            put_str(out, u.symbol());
        }
        Op::Subsref => out.push(2),
        Op::Subsasgn => out.push(3),
        Op::Range2 => out.push(4),
        Op::Range3 => out.push(5),
        Op::MatrixBuild { rows } => {
            out.push(6);
            put_len(out, rows.len());
            for r in rows {
                put_len(out, *r);
            }
        }
        Op::Builtin(b) => {
            out.push(7);
            put_str(out, b.name());
        }
        Op::Call(name) => {
            out.push(8);
            put_str(out, name);
        }
    }
}

fn put_instr(out: &mut Vec<u8>, instr: &Instr) {
    let Instr { kind, span } = instr;
    put_span(out, *span);
    match kind {
        InstrKind::Const { dst, value } => {
            out.push(0);
            put_var(out, *dst);
            put_const(out, value);
        }
        InstrKind::Copy { dst, src } => {
            out.push(1);
            put_var(out, *dst);
            put_var(out, *src);
        }
        InstrKind::Compute { dst, op, args } => {
            out.push(2);
            put_var(out, *dst);
            put_op(out, op);
            put_operands(out, args);
        }
        InstrKind::Phi { dst, args } => {
            out.push(3);
            put_var(out, *dst);
            put_len(out, args.len());
            for (b, v) in args {
                put_block(out, *b);
                put_var(out, *v);
            }
        }
        InstrKind::CallMulti { dsts, func, args } => {
            out.push(4);
            put_vars(out, dsts);
            put_str(out, func);
            put_operands(out, args);
        }
        InstrKind::Display { value, label } => {
            out.push(5);
            put_var(out, *value);
            put_str(out, label);
        }
        InstrKind::Effect { builtin, args } => {
            out.push(6);
            put_str(out, builtin.name());
            put_operands(out, args);
        }
    }
}

fn put_term(out: &mut Vec<u8>, term: &Terminator) {
    match term {
        Terminator::Jump(b) => {
            out.push(0);
            put_block(out, *b);
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            out.push(1);
            put_var(out, *cond);
            put_block(out, *then_bb);
            put_block(out, *else_bb);
        }
        Terminator::Return => out.push(2),
    }
}

impl FuncIr {
    /// Appends this function's canonical encoding to `out` (see the
    /// module docs).
    pub fn encode_canonical(&self, out: &mut Vec<u8>) {
        let FuncIr {
            name,
            params,
            outs,
            blocks,
            entry,
            vars,
            ssa_outs,
            in_ssa,
        } = self;
        put_str(out, name);
        put_vars(out, params);
        put_vars(out, outs);
        put_len(out, blocks.len());
        for Block { instrs, term } in blocks {
            put_len(out, instrs.len());
            for instr in instrs {
                put_instr(out, instr);
            }
            put_term(out, term);
        }
        put_block(out, *entry);
        let VarTable { infos } = vars;
        put_len(out, infos.len());
        for VarInfo {
            name,
            ssa_origin,
            ssa_version,
        } in infos
        {
            match name {
                Some(n) => {
                    out.push(1);
                    put_str(out, n);
                }
                None => out.push(0),
            }
            match ssa_origin {
                Some(v) => put_uint(out, u64::from(v.0) + 1),
                None => put_uint(out, 0),
            }
            put_uint(out, u64::from(*ssa_version));
        }
        put_vars(out, ssa_outs);
        out.push(u8::from(*in_ssa));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_frontend::parser::parse_program;

    /// A loop (φs), a user call, a branch and a `0` constant.
    fn sample() -> FuncIr {
        let ast = parse_program([
            "function y = f(n)\ny = 0;\nfor i = 1:n\nif i > 2\ny = y + g(i);\nend\nend\n\
             function z = g(k)\nz = k * 2;\n",
        ])
        .unwrap();
        crate::build_ssa(&ast).unwrap().functions.remove(0)
    }

    fn encode(f: &FuncIr) -> Vec<u8> {
        let mut out = Vec::new();
        f.encode_canonical(&mut out);
        out
    }

    fn instrs_mut(f: &mut FuncIr) -> impl Iterator<Item = &mut Instr> {
        f.blocks.iter_mut().flat_map(|b| b.instrs.iter_mut())
    }

    #[test]
    fn varints_round_the_boundaries() {
        let enc = |v: u64| {
            let mut out = Vec::new();
            put_uint(&mut out, v);
            out
        };
        assert_eq!(enc(0), [0]);
        assert_eq!(enc(127), [127]);
        assert_eq!(enc(128), [0x80, 1]);
        assert_eq!(enc(u64::MAX).len(), 10);
        let mut out = Vec::new();
        put_int(&mut out, -1);
        put_int(&mut out, 1);
        assert_eq!(out, [1, 2]);
    }

    #[test]
    fn equal_functions_encode_equally() {
        assert_eq!(encode(&sample()), encode(&sample()));
        assert_ne!(encode(&sample()), Vec::<u8>::new());
    }

    /// Each mutation changes exactly one field the old `Debug`-text
    /// key covered; each must change the encoding (and so the key).
    #[test]
    fn every_field_reaches_the_encoding() {
        let base = encode(&sample());
        type Mutation = (&'static str, fn(&mut FuncIr));
        let mutations: [Mutation; 9] = [
            ("span", |f| instrs_mut(f).next().unwrap().span.end += 1),
            ("-0.0", |f| {
                let zero = instrs_mut(f)
                    .find_map(|i| match &mut i.kind {
                        InstrKind::Const {
                            value: Const::Num(v),
                            ..
                        } if *v == 0.0 => Some(v),
                        _ => None,
                    })
                    .expect("a 0 constant");
                *zero = -0.0;
            }),
            ("var name", |f| {
                f.vars.infos[0].name = Some("renamed".into())
            }),
            ("ssa_version", |f| {
                let v = f.vars.infos.iter_mut().find(|i| i.ssa_version > 0);
                v.expect("an SSA version").ssa_version += 1;
            }),
            ("phi order", |f| {
                let args = instrs_mut(f)
                    .find_map(|i| match &mut i.kind {
                        InstrKind::Phi { args, .. } if args.len() > 1 => Some(args),
                        _ => None,
                    })
                    .expect("a two-way phi");
                args.reverse();
            }),
            ("call name", |f| {
                let name = instrs_mut(f)
                    .find_map(|i| match &mut i.kind {
                        InstrKind::Compute {
                            op: Op::Call(n), ..
                        } => Some(n),
                        _ => None,
                    })
                    .expect("a user call");
                name.push('2');
            }),
            ("branch target", |f| {
                let last = BlockId::new(f.blocks.len() - 1);
                let target = f
                    .blocks
                    .iter_mut()
                    .find_map(|b| match &mut b.term {
                        Terminator::Branch { then_bb, .. } if *then_bb != last => Some(then_bb),
                        _ => None,
                    })
                    .expect("a branch");
                *target = last;
            }),
            ("in_ssa", |f| f.in_ssa = !f.in_ssa),
            ("ssa_outs", |f| f.ssa_outs.clear()),
        ];
        for (what, mutate) in mutations {
            let mut f = sample();
            mutate(&mut f);
            assert_ne!(encode(&f), base, "changing the {what} must change the key");
        }
    }
}
