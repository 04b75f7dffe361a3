//! # matc-vm
//!
//! The three executors of the PLDI 2003 evaluation:
//!
//! * [`interp::Interp`] — a tree-walking reference interpreter (the
//!   "MATLAB interpreter" bar of Figure 5 and the differential-testing
//!   oracle);
//! * [`mcc::MccVm`] — the mcc model (§4.4): every value a heap
//!   `mxArray` with an 88-byte descriptor, copy-on-write sharing,
//!   run-time dispatch on unoptimized IR;
//! * [`planned::PlannedVm`] — the mat2c model: optimized IR executed
//!   under a GCTD [`matc_gctd::StoragePlan`], with fixed stack frames,
//!   resize-on-the-fly heap slots and genuine in-place operations.
//!
//! All three share one operation dispatcher ([`dispatch`]) and one
//! seeded RNG stream, so outputs are bitwise comparable.
//!
//! The crate also holds the one compile pipeline ([`resilient`]): lower
//! → SSA → passes → type inference → GCTD → audit → SSA inversion.
//! [`compile()`] runs it with no budget and no injected faults and
//! panics on a plan the auditor rejects, so no executor ever runs an
//! unaudited plan. The batch driver and `matc serve` drive its two
//! public halves, [`compile_front`] and [`compile_function`], under
//! phase budgets and fault plans.
//!
//! ## Example
//!
//! ```
//! use matc_frontend::parser::parse_program;
//! use matc_gctd::GctdOptions;
//! use matc_vm::{compile::compile, interp::Interp, planned::PlannedVm};
//!
//! let src = "function f()\ns = 0;\nfor i = 1:10\ns = s + i;\nend\nfprintf('%d\\n', s);\n";
//! let ast = parse_program([src]).unwrap();
//! let compiled = compile(&ast, GctdOptions::default()).unwrap();
//! let out = PlannedVm::new(&compiled).run()?;
//! let reference = Interp::new(&ast).run()?;
//! assert_eq!(out, reference);
//! # Ok::<(), matc_runtime::RtError>(())
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod dispatch;
pub mod interp;
pub mod mcc;
pub mod planned;
pub mod resilient;
pub mod typed;

pub use compile::{compile, lower_for_mcc, Compiled};
pub use interp::Interp;
pub use mcc::{MccVm, MX_HEADER};
pub use planned::PlannedVm;
pub use resilient::{
    compile_front, compile_function, compile_resilient, FrontFunc, FrontHalf, FrontMemo,
    ResilientError,
};
