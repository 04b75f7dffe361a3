//! The `matc` benchmark: four workloads that between them exercise every
//! layer of the system — a cold batch compile, a cache-warm and an
//! edit-heavy compile daemon, and the compiled programs running in the
//! planned VM and as native C — with end-to-end metrics from untraced
//! runs and per-layer metrics from a separate traced run.
//!
//! `BENCHMARK.md` beside this package describes the workloads, the
//! metrics and how to read a traced run; `BENCHMARK.json` at the
//! repository root declares them.

pub mod corpus;
pub mod host;
pub mod outputs;
pub mod registry;
pub mod replay;
pub mod result;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod yardstick;
