//! # matc-typeinf
//!
//! Type inference for `matc` — the stand-in for the paper's MAGICA engine
//! (§3.1 of *Static Array Storage Optimization in MATLAB*, PLDI 2003).
//!
//! For every SSA variable the engine infers the four facts GCTD consumes:
//! the intrinsic type `t(v)` ([`intrinsic::Intrinsic`]), the shape tuple
//! `s(v)` with symbolic extents ([`shape::Shape`] over interned
//! [`exprs::ExprCtx`] expressions), the rank, and a value range
//! ([`range::Range`]). Symbolically equivalent shapes share one interned
//! identity, giving Phase 2 of GCTD its "shape expression reuse".
//!
//! ## Example
//!
//! ```
//! use matc_frontend::parser::parse_program;
//! use matc_ir::build_ssa;
//! use matc_typeinf::infer_program;
//!
//! let ast = parse_program([
//!     "function y = driver()\ny = kernel(16);\nend\nfunction a = kernel(n)\na = rand(n, n);\nend\n",
//! ]).unwrap();
//! let ir = build_ssa(&ast).unwrap();
//! let types = infer_program(&ir);
//! let out = ir.entry_func().ssa_outs[0];
//! let facts = types.facts(ir.entry.unwrap(), out).unwrap();
//! assert_eq!(facts.shape.known_dims(&types.ctx), Some(vec![16, 16]));
//! ```

#![warn(missing_docs)]

pub mod exact;
pub mod exprs;
pub mod infer;
pub mod intrinsic;
pub mod range;
pub mod shape;

pub use exprs::{ExprCtx, ExprId};
pub use infer::{
    infer_program, infer_program_budgeted, FactStep, FuncTypes, ProgramTypes, TypeSummary, VarFacts,
};
pub use intrinsic::Intrinsic;
pub use range::Range;
pub use shape::Shape;
