//! # matc-analysis
//!
//! An **independent auditor** for GCTD storage plans, plus a small
//! frontend lint pass, sharing one structured [`Diagnostics`] sink.
//!
//! GCTD (*Static Array Storage Optimization in MATLAB*, Joisha &
//! Banerjee, PLDI 2003) rebinds many variables to shared storage slots;
//! a bug anywhere in its pipeline silently corrupts program results.
//! This crate re-derives every soundness obligation a finished
//! [`matc_gctd::StoragePlan`] must honour — liveness-disjointness per
//! slot (§2), the §2.3 in-place operator table, resize-annotation
//! legality (§3.2.2) and stack-slot sizing (§3.2.1/§3.3) — using its
//! own dataflow engine ([`dataflow::AuditFlow`]) and its own sizing
//! walk, so planner bugs and auditor bugs do not correlate.
//!
//! `matc audit <file.m>` runs both the auditor and the lints; every
//! compile (`matc_vm::compile`, the batch driver, `matc serve`) audits
//! each plan before SSA inversion, in every build.
//!
//! ## Example
//!
//! ```
//! use matc_frontend::parser::parse_program;
//! use matc_ir::build_ssa;
//! use matc_typeinf::infer_program;
//! use matc_gctd::{plan_program, GctdOptions};
//! use matc_analysis::{audit_program, lint_program};
//!
//! let src = "function f()\na = rand(8, 8);\nb = a + 1;\ndisp(b(1));\n";
//! let ast = parse_program([src]).unwrap();
//! let mut ir = build_ssa(&ast).unwrap();
//! matc_passes::optimize_program(&mut ir);
//! let mut types = infer_program(&ir);
//! let plans = plan_program(&ir, &mut types, GctdOptions::default());
//!
//! let audit = audit_program(&ir, &types, &plans);
//! assert!(audit.is_empty(), "{}", audit.render());
//! assert!(lint_program(&ast).is_empty());
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod dataflow;
pub mod diagnostics;
pub mod lint;
pub mod shadow;

pub use audit::{audit_function_budgeted, audit_program, audit_program_jobs, AuditStats};
pub use dataflow::AuditFlow;
pub use diagnostics::{Diagnostic, Diagnostics, Severity};
pub use lint::lint_program;
pub use shadow::{replay, DefAction, ShadowCounts, ShadowLog, ShadowReport};
