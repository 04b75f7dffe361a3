//! The typed lowering: which instructions of a planned function run as
//! plain arithmetic on `double`s, decided once for both executors.
//!
//! The paper's `mat2c` keeps each provably scalar variable as a C
//! `double` (§3.2). [`lower`] reads a function and its
//! [`StoragePlan`] and returns, per instruction, its typed [`Site`] (or
//! none) and, per block, the [`Src`] of a typed branch test. The C
//! emitter prints each site as a `double` expression and the planned VM
//! runs it as a pre-decoded step; neither decides anything of its own.
//!
//! Two kinds of operand qualify:
//! - a **typed scalar**: a variable in [`StoragePlan::scalars`] whose
//!   stack slot holds at least one element of its type. Its value is
//!   element 0 of the slot;
//! - a **literal**: an unplanned variable whose only definition is a
//!   numeric or logical `Const`.
//!
//! A site is a [`ScalarKernel`] from [`ScalarKernel::of`] over such
//! operands into a typed scalar (copies are [`ScalarKernel::Same`]), a
//! scalar-subscript `subsref` into a typed scalar, a scalar-subscript
//! `subsasgn` in place in the destination's own slot, or the numeric
//! `Const` of a typed scalar or a literal.

use crate::dispatch::ScalarKernel;
use matc_gctd::{SlotKind, StoragePlan};
use matc_ir::ids::VarId;
use matc_ir::instr::{Const, InstrKind, Op, Operand};
use matc_ir::FuncIr;
use matc_runtime::value::Class;

/// An operand of a typed site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// Element 0 of a typed scalar's stack slot (by slot index).
    Slot(usize),
    /// A literal's value and class.
    Lit(f64, Class),
}

/// The filler for operand positions a site does not read.
pub const UNUSED: Src = Src::Lit(0.0, Class::Double);

/// One typed instruction. The destination and, for [`Site::Get`], the
/// array are the instruction's own operands.
#[derive(Debug, Clone, Copy)]
pub enum Site {
    /// A numeric constant into a typed scalar or a literal.
    Const(f64, Class),
    /// `dst = k(xs[..n])`: the operands `k` reads, in order.
    Scalar {
        /// The kernel.
        k: ScalarKernel,
        /// Its operands.
        xs: [Src; 3],
        /// How many it reads.
        n: usize,
    },
    /// `dst = a(subs[..n])`: one to three scalar subscripts into the
    /// array operand.
    Get {
        /// The subscripts.
        subs: [Src; 3],
        /// How many there are.
        n: usize,
    },
    /// `a(subs[..n]) = x` in place: the destination shares the array's
    /// slot.
    Set {
        /// The stored value.
        x: Src,
        /// The subscripts.
        subs: [Src; 3],
        /// How many there are.
        n: usize,
    },
}

/// One function's typed sites.
#[derive(Debug)]
pub struct Lowering {
    /// Each instruction's site, blocks in order and instructions in
    /// block order.
    pub sites: Vec<Option<Site>>,
    /// Each block's branch test, when the block branches on a typed
    /// scalar or a literal.
    pub branch: Vec<Option<Src>>,
    /// Each variable's operand form, by [`VarId`] index.
    srcs: Vec<Option<Src>>,
}

impl Lowering {
    /// The operand form of `o`: a typed scalar's slot or a literal.
    pub fn src(&self, o: &Operand) -> Option<Src> {
        self.srcs[o.as_var()?.index()]
    }

    /// The operand form of each of `os`, padded with [`UNUSED`].
    fn srcs(&self, os: &[Operand]) -> Option<[Src; 3]> {
        let mut xs = [UNUSED; 3];
        for (x, o) in xs.iter_mut().zip(os) {
            *x = self.src(o)?;
        }
        Some(xs)
    }

    /// One to three scalar subscripts.
    fn subs(&self, subs: &[Operand]) -> Option<([Src; 3], usize)> {
        match subs.len() {
            1..=3 => Some((self.srcs(subs)?, subs.len())),
            _ => None,
        }
    }

    fn site(&self, plan: &StoragePlan, kind: &InstrKind) -> Option<Site> {
        let typed = |v: &VarId| matches!(self.srcs[v.index()], Some(Src::Slot(_)));
        match kind {
            InstrKind::Const { dst, value } if self.srcs[dst.index()].is_some() => {
                numeric(value).map(|(x, class)| Site::Const(x, class))
            }
            InstrKind::Copy { dst, src } if typed(dst) => Some(Site::Scalar {
                k: ScalarKernel::Same,
                xs: self.srcs(&[Operand::Var(*src)])?,
                n: 1,
            }),
            InstrKind::Compute { dst, op, args } => match (op, args.as_slice()) {
                (Op::Subsasgn, [Operand::Var(base), x, subs @ ..])
                    if plan.slot_of(*dst).is_some()
                        && plan.slot_of(*dst) == plan.slot_of(*base) =>
                {
                    let (subs, n) = self.subs(subs)?;
                    let x = self.src(x)?;
                    Some(Site::Set { x, subs, n })
                }
                (Op::Subsref, [Operand::Var(_), subs @ ..]) if typed(dst) => {
                    let (subs, n) = self.subs(subs)?;
                    Some(Site::Get { subs, n })
                }
                _ if typed(dst) => {
                    let (k, reads) = ScalarKernel::of(op, args.len())?;
                    let mut xs = [UNUSED; 3];
                    for (x, &i) in xs.iter_mut().zip(reads) {
                        *x = self.src(&args[i])?;
                    }
                    Some(Site::Scalar {
                        k,
                        xs,
                        n: reads.len(),
                    })
                }
                _ => None,
            },
            _ => None,
        }
    }
}

/// The value and class of a numeric or logical constant.
pub(crate) fn numeric(c: &Const) -> Option<(f64, Class)> {
    match c {
        Const::Num(x) => Some((*x, Class::Double)),
        Const::Bool(b) => Some((f64::from(u8::from(*b)), Class::Logical)),
        _ => None,
    }
}

/// The typed sites of `f` under `plan`.
pub fn lower(f: &FuncIr, plan: &StoragePlan) -> Lowering {
    let n = f.vars.len();
    let mut srcs = vec![None; n];
    for v in plan.scalars.iter().filter(|v| v.index() < n) {
        // A stack slot that holds one element of its type: the generic
        // path's size check can never fire.
        let one = |s: &usize| {
            let slot = &plan.slots[*s];
            matches!(slot.kind, SlotKind::Stack { bytes } if bytes >= slot.intrinsic.byte_size())
        };
        srcs[v.index()] = plan.slot_of(*v).filter(one).map(Src::Slot);
    }
    let instrs = || f.blocks.iter().flat_map(|b| &b.instrs);
    let mut defs = vec![0u32; n];
    for instr in instrs() {
        for d in instr.defs() {
            defs[d.index()] += 1;
        }
    }
    for instr in instrs() {
        if let InstrKind::Const { dst, value } = &instr.kind {
            if plan.slot_of(*dst).is_none() && defs[dst.index()] == 1 {
                srcs[dst.index()] = numeric(value).map(|(x, class)| Src::Lit(x, class));
            }
        }
    }
    let mut lowering = Lowering {
        sites: Vec::new(),
        branch: Vec::new(),
        srcs,
    };
    lowering.sites = instrs().map(|i| lowering.site(plan, &i.kind)).collect();
    lowering.branch = (f.blocks.iter())
        .map(|b| lowering.src(&Operand::Var(b.term.used_var()?)))
        .collect();
    lowering
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use matc_benchsuite::{all, Preset};
    use matc_frontend::parser::parse_program;
    use matc_gctd::GctdOptions;

    #[test]
    fn the_test_preset_keeps_its_typed_sites() {
        // 457 typed non-literal sites (branch tests included) is the Test
        // preset's count when both executors came to share this lowering:
        // coverage may grow, never drop silently.
        let mut sites = 0;
        for bench in all() {
            let sources = bench.sources(Preset::Test);
            let ast = parse_program(sources.iter().map(String::as_str)).unwrap();
            let compiled = compile(&ast, GctdOptions::default()).unwrap();
            for (f, plan) in compiled.ir.functions.iter().zip(&compiled.plans.plans) {
                let l = lower(f, plan);
                // A literal's `Const` is a site too; it is not counted.
                let planned = |i: &matc_ir::Instr| plan.slot_of(i.defs()[0]).is_some();
                let instrs = f.blocks.iter().flat_map(|b| &b.instrs);
                sites += (instrs.zip(&l.sites))
                    .filter(|(i, s)| s.is_some() && planned(i))
                    .count();
                sites += l.branch.iter().flatten().count();
            }
        }
        assert!(sites >= 457, "{sites} typed sites");
    }
}
