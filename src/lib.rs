//! # matc
//!
//! Facade crate for the `matc` workspace — a reproduction of *Static
//! Array Storage Optimization in MATLAB* (Joisha & Banerjee, PLDI 2003).
//!
//! Re-exports the pipeline crates under stable names:
//!
//! * [`frontend`] — lexer, AST, parser for the MATLAB subset;
//! * [`ir`] — single-operator CFG IR with SSA;
//! * [`passes`] — classic SSA optimizations;
//! * [`typeinf`] — intrinsic/shape/range inference (symbolic shapes);
//! * [`gctd`] — the paper's storage-coalescing algorithm;
//! * [`analysis`] — independent storage-plan auditor + frontend lints;
//! * [`runtime`] — MATLAB values, builtins, memory accounting;
//! * [`vm`] — reference interpreter, mcc-model VM, GCTD-planned VM;
//! * [`codegen`] — the C backend;
//! * [`benchsuite`] — the 11-program evaluation corpus.
//!
//! [`batch`] (native to this crate) drives many programs through the
//! pipeline in parallel with content-addressed artifact caching and
//! per-phase metrics — the engine behind `matc batch`. [`serve`] wraps
//! the same machinery in a resilient TCP daemon (`matc serve`) with
//! admission control, request deadlines, circuit breakers and graceful
//! draining. [`json`] is the one dependency-free JSON model: the
//! daemon's newline-delimited protocol speaks it, and [`stats`] builds
//! every stats document and audit report with it. [`shadow`] runs a
//! unit through both executors and diffs observed storage behaviour
//! against the static plan — the engine behind `matc shadow`. [`cache_bench`] is
//! the incremental-compilation gate behind `matc cache-bench`: edit one
//! function of a multi-function unit and prove every other function's
//! fragment is reused from the store. [`sim`] runs the *real* serve
//! reactor inside a deterministic single-threaded simulation — virtual
//! time, in-memory network, seeded fault schedules, byte-identical
//! replay — the engine behind `matc simulate`; [`sys`] holds the
//! readiness/clock seams both worlds implement.
//!
//! ```
//! use matc::vm::{compile::compile, PlannedVm};
//! use matc::gctd::GctdOptions;
//!
//! let ast = matc::frontend::parse_program([
//!     "function f()\nfprintf('%d\\n', 2 + 2);\n",
//! ]).unwrap();
//! let compiled = compile(&ast, GctdOptions::default()).unwrap();
//! assert_eq!(PlannedVm::new(&compiled).run().unwrap(), "4\n");
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache_bench;
pub mod json;
pub mod perf;
pub mod serve;
pub mod shadow;
pub mod sim;
pub mod stats;
pub mod sys;

pub use matc_analysis as analysis;
pub use matc_benchsuite as benchsuite;
pub use matc_codegen as codegen;
pub use matc_frontend as frontend;
pub use matc_gctd as gctd;
pub use matc_ir as ir;
pub use matc_passes as passes;
pub use matc_runtime as runtime;
pub use matc_typeinf as typeinf;
pub use matc_vm as vm;
