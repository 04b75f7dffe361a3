//! # matc-ir
//!
//! The single-operator (SO) form control-flow-graph IR of `matc`, with
//! SSA construction and inversion — the substrate on which the GCTD
//! storage-optimization algorithm of *Static Array Storage Optimization
//! in MATLAB* (PLDI 2003) operates.
//!
//! Pipeline position: `matc-frontend` ASTs are lowered here
//! ([`lower::lower_program`]), converted to SSA
//! ([`ssa::ssa_construct_program`]), optimized (`matc-passes`), typed
//! (`matc-typeinf`), planned (`matc-gctd`), and finally inverted out of
//! SSA ([`ssa_out::ssa_destruct`]) for execution or C emission.
//!
//! ## Example
//!
//! ```
//! use matc_frontend::parser::parse_program;
//! use matc_ir::{lower::lower_program, ssa::ssa_construct_program, verify::verify_program};
//!
//! let ast = parse_program([
//!     "function s = total(n)\ns = 0;\nfor i = 1:n\ns = s + i;\nend\n",
//! ]).unwrap();
//! let mut ir = lower_program(&ast)?;
//! ssa_construct_program(&mut ir);
//! verify_program(&ir).expect("valid SSA");
//! # Ok::<(), matc_ir::lower::LowerError>(())
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod budget;
pub mod builtins;
pub mod canon;
pub mod cfg;
pub mod dom;
pub mod ids;
pub mod instr;
pub mod lower;
pub mod ssa;
pub mod ssa_out;
pub mod verify;

pub use bitset::{BitMatrix, BitSet};
pub use budget::{Budget, BudgetError, BudgetKind};
pub use builtins::Builtin;
pub use cfg::{Block, FuncIr, IrProgram, VarInfo, VarTable};
pub use ids::{BlockId, FuncId, VarId};
pub use instr::{Const, Instr, InstrKind, Op, Operand, Terminator};
pub use lower::{lower_function, lower_program, LowerError, Signatures};
pub use ssa::{ssa_construct, ssa_construct_program};
pub use ssa_out::ssa_destruct;
pub use verify::{verify_func, verify_program, VerifyError};

/// Lowers, SSA-converts and verifies a parsed program in one call — the
/// standard way to obtain analysis-ready IR.
///
/// # Errors
///
/// Returns lowering errors; verification failures panic, as they indicate
/// compiler bugs rather than bad input.
///
/// # Panics
///
/// Panics if the produced SSA fails verification (a compiler bug).
pub fn build_ssa(ast: &matc_frontend::ast::Program) -> Result<IrProgram, LowerError> {
    let signatures = lower::signatures(ast)?;
    let mut prog = IrProgram::default();
    for f in &ast.functions {
        prog.add(build_func_ssa(f, &signatures)?);
    }
    prog.entry = prog.by_name.get(&ast.entry).copied();
    Ok(prog)
}

/// [`build_ssa`] for one function: lowers it against its unit's
/// signature table, converts it to SSA and verifies it.
///
/// # Errors
///
/// Returns the function's lowering error.
///
/// # Panics
///
/// Panics if the produced SSA fails verification (a compiler bug).
pub fn build_func_ssa(
    f: &matc_frontend::ast::Function,
    signatures: &Signatures,
) -> Result<FuncIr, LowerError> {
    let mut func = lower_function(f, signatures)?;
    ssa_construct(&mut func);
    if let Err(e) = verify_func(&func) {
        panic!(
            "internal error: generated invalid SSA: in `{}`: {e}",
            func.name
        );
    }
    Ok(func)
}
