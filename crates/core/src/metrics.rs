//! Phase-level observability for the compilation pipeline.
//!
//! Every compilation unit driven through the batch compiler (or any
//! caller that opts in) carries a [`UnitMetrics`] record: wall time per
//! [`Phase`], IR and AST sizes, interference-graph node/edge counts,
//! plan statistics and the cache outcome. [`BatchReport`] aggregates
//! unit records into the human summary table `matc batch` prints; the
//! root crate's `stats` module renders the same records as the
//! `matc batch --stats` JSON document.
//!
//! The module is deliberately dependency-free: timings come from
//! [`std::time::Instant`], and recording a phase is a single array
//! store — cheap enough to leave on in production builds.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::plan::PlanStats;

/// The pipeline phases the batch driver distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Frontend parse (lexer + parser + program assembly).
    Parse,
    /// Lowering to the CFG IR and SSA construction.
    SsaBuild,
    /// The classic SSA optimization pipeline.
    Optimize,
    /// Intrinsic/shape/range inference.
    TypeInfer,
    /// Dataflow + interference-graph construction (GCTD Phase 1a).
    Interference,
    /// Graph coloring (GCTD Phase 1b).
    Coloring,
    /// Color-class decomposition into storage slots (GCTD Phase 2).
    Decompose,
    /// The independent storage-plan audit + AST lints.
    Audit,
    /// SSA inversion filtered through the storage plan.
    SsaInvert,
    /// C code emission.
    Codegen,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 10] = [
        Phase::Parse,
        Phase::SsaBuild,
        Phase::Optimize,
        Phase::TypeInfer,
        Phase::Interference,
        Phase::Coloring,
        Phase::Decompose,
        Phase::Audit,
        Phase::SsaInvert,
        Phase::Codegen,
    ];

    /// Stable lower-snake name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::SsaBuild => "ssa_build",
            Phase::Optimize => "optimize",
            Phase::TypeInfer => "type_infer",
            Phase::Interference => "interference",
            Phase::Coloring => "coloring",
            Phase::Decompose => "decompose",
            Phase::Audit => "audit",
            Phase::SsaInvert => "ssa_invert",
            Phase::Codegen => "codegen",
        }
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).unwrap()
    }
}

/// Whether a unit's artifacts were served from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache was consulted.
    Bypass,
    /// Key present: artifacts served without recompiling.
    Hit,
    /// Key absent: the unit was compiled and the result stored.
    Miss,
    /// Unit key absent, but per-function fragments served part of the
    /// compile — a warm recompile after an edit that reused every
    /// untouched function's stored plan/codegen work.
    Partial,
}

impl CacheOutcome {
    /// Stable lower-case name (the JSON value).
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Bypass => "bypass",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Partial => "partial",
        }
    }
}

/// One rung of the degradation ladder having fired: a function (or the
/// whole unit) was re-lowered with the conservative all-heap mcc-style
/// plan instead of its GCTD plan, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// The unit the degradation happened in.
    pub unit: String,
    /// The function that was degraded; empty for unit-level degradations
    /// (e.g. an optimizer or type-inference budget trip re-lowering the
    /// whole unit conservatively).
    pub func: String,
    /// Which rung fired: `"plan_panic"`, `"plan_budget"`, `"audit"`,
    /// `"audit_budget"`, `"optimize_budget"`, `"type_infer_budget"`.
    pub stage: &'static str,
    /// Human-readable cause (panic message, audit findings, budget
    /// error).
    pub reason: String,
}

/// A phase budget (fuel or wall-clock) having tripped during a unit's
/// compile; paired with a [`DegradationEvent`] when the trip was
/// recovered by the ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetEvent {
    /// The phase that tripped (stable lower-snake name).
    pub phase: String,
    /// `"fuel"` or `"wall-clock"`.
    pub kind: String,
}

/// A running wall-clock timer for one phase.
///
/// ```
/// use matc_gctd::metrics::{Phase, PhaseTimer, UnitMetrics};
/// let mut m = UnitMetrics::new("demo");
/// let t = PhaseTimer::start(Phase::Parse);
/// // ... do the work ...
/// t.stop(&mut m);
/// ```
#[derive(Debug)]
pub struct PhaseTimer {
    phase: Phase,
    start: Instant,
}

impl PhaseTimer {
    /// Starts timing `phase` now.
    pub fn start(phase: Phase) -> PhaseTimer {
        PhaseTimer {
            phase,
            start: Instant::now(),
        }
    }

    /// Stops the timer, adding the elapsed time to `metrics`.
    pub fn stop(self, metrics: &mut UnitMetrics) {
        metrics.record(self.phase, self.start.elapsed());
    }
}

/// Metrics for one compilation unit (one program through the pipeline).
#[derive(Debug, Clone)]
pub struct UnitMetrics {
    /// The unit's display name (file stem or benchmark name).
    pub unit: String,
    /// Accumulated wall time per phase, nanoseconds.
    phase_nanos: [u64; Phase::ALL.len()],
    /// AST function count.
    pub ast_functions: usize,
    /// AST statement count (recursive).
    pub ast_statements: usize,
    /// AST expression count (recursive).
    pub ast_expressions: usize,
    /// IR function count.
    pub ir_functions: usize,
    /// IR basic-block count.
    pub ir_blocks: usize,
    /// IR instruction count (φs included).
    pub ir_instrs: usize,
    /// IR variable-table entries.
    pub ir_vars: usize,
    /// Total rewrites performed by the optimization pipeline.
    pub opt_removed: usize,
    /// Variables with inference facts.
    pub typeinf_facts: usize,
    /// Of those, provably scalar.
    pub typeinf_scalars: usize,
    /// Interference-graph nodes (coalesced classes), summed over functions.
    pub interference_nodes: usize,
    /// Interference-graph edges, summed over functions.
    pub interference_edges: usize,
    /// Worklist visits the bitset dataflow fixpoints performed
    /// (liveness + availability + reachability), summed over functions.
    pub dataflow_iters: u64,
    /// Widest dense live-set row, in `u64` words, across functions.
    pub peak_live_words: u64,
    /// Wall time of the dataflow fixpoints alone, nanoseconds (a
    /// sub-slice of the `interference` phase; not restored on cache
    /// hits, like all timings).
    pub dataflow_nanos: u64,
    /// Program-wide storage-plan statistics.
    pub plan: PlanStats,
    /// Error-severity audit findings.
    pub audit_errors: usize,
    /// Warning-severity audit findings (lints included).
    pub audit_warnings: usize,
    /// CFG edges the auditor processed (the unit of audit throughput).
    pub audit_edges: u64,
    /// Emitted C size in bytes.
    pub c_bytes: usize,
    /// Emitted C size in lines.
    pub c_lines: usize,
    /// Cache outcome for this unit.
    pub cache: CacheOutcome,
    /// Compilation error, if the unit failed (parse/lowering).
    pub error: Option<String>,
    /// Degradation-ladder rungs that fired for this unit.
    pub degradations: Vec<DegradationEvent>,
    /// Phase budgets that tripped for this unit.
    pub budget_exceeded: Vec<BudgetEvent>,
}

impl UnitMetrics {
    /// Fresh all-zero metrics for `unit`.
    pub fn new(unit: impl Into<String>) -> UnitMetrics {
        UnitMetrics {
            unit: unit.into(),
            phase_nanos: [0; Phase::ALL.len()],
            ast_functions: 0,
            ast_statements: 0,
            ast_expressions: 0,
            ir_functions: 0,
            ir_blocks: 0,
            ir_instrs: 0,
            ir_vars: 0,
            opt_removed: 0,
            typeinf_facts: 0,
            typeinf_scalars: 0,
            interference_nodes: 0,
            interference_edges: 0,
            dataflow_iters: 0,
            peak_live_words: 0,
            dataflow_nanos: 0,
            plan: PlanStats::default(),
            audit_errors: 0,
            audit_warnings: 0,
            audit_edges: 0,
            c_bytes: 0,
            c_lines: 0,
            cache: CacheOutcome::Bypass,
            error: None,
            degradations: Vec::new(),
            budget_exceeded: Vec::new(),
        }
    }

    /// Adds `elapsed` to `phase`'s accumulated wall time.
    pub fn record(&mut self, phase: Phase, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.phase_nanos[phase.index()] = self.phase_nanos[phase.index()].saturating_add(ns);
    }

    /// Times `f` under `phase`.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t = PhaseTimer::start(phase);
        let r = f();
        t.stop(self);
        r
    }

    /// Accumulated microseconds spent in `phase`.
    pub fn phase_micros(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()] / 1_000
    }

    /// Total microseconds across all phases.
    pub fn total_micros(&self) -> u64 {
        self.phase_nanos.iter().map(|n| n / 1_000).sum()
    }

    /// Whether the unit compiled (no pipeline error). Degraded units
    /// are `ok`: they produced a correct (conservatively planned)
    /// artifact.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Whether any degradation-ladder rung fired for this unit.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// The unit's status: `"error"` when it failed, `"degraded"` when
    /// a degradation-ladder rung fired, `"ok"` otherwise.
    pub fn status(&self) -> &'static str {
        if !self.ok() {
            "error"
        } else if self.degraded() {
            "degraded"
        } else {
            "ok"
        }
    }
}

/// Aggregated results of one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Worker-thread count used.
    pub jobs: usize,
    /// End-to-end wall time of the batch, microseconds.
    pub wall_micros: u64,
    /// Units served from the cache this run.
    pub cache_hits: u64,
    /// Units compiled (cache consulted but absent) this run.
    pub cache_misses: u64,
    /// Per-function fragments served from the store this run (the
    /// incremental-compilation counter: each one is a function whose
    /// plan/audit/codegen work was skipped).
    pub cache_partial_hits: u64,
    /// Per-function fragment misses this run.
    pub cache_frag_misses: u64,
    /// Store files that failed integrity verification and were
    /// quarantined to `corrupt/` this run.
    pub cache_quarantined: u64,
    /// Per-unit metrics, in input order.
    pub units: Vec<UnitMetrics>,
}

impl BatchReport {
    /// Total microseconds spent in `phase` across all units.
    pub fn phase_total_micros(&self, phase: Phase) -> u64 {
        self.units.iter().map(|u| u.phase_micros(phase)).sum()
    }

    /// Units that failed to compile.
    pub fn failed(&self) -> usize {
        self.units.iter().filter(|u| !u.ok()).count()
    }

    /// Units that compiled but only via the degradation ladder.
    pub fn degraded(&self) -> usize {
        self.units.iter().filter(|u| u.ok() && u.degraded()).count()
    }

    /// The human summary table printed by `matc batch`.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>7} {:>9} {:>7} {:>9}  status",
            "unit", "time", "cache", "instrs", "slots", "C bytes"
        );
        for u in &self.units {
            let status = match &u.error {
                Some(e) => format!("error: {e}"),
                None if u.audit_errors > 0 => format!("{} audit error(s)", u.audit_errors),
                None if u.degraded() => format!("degraded ({} event(s))", u.degradations.len()),
                None => "ok".to_string(),
            };
            let _ = writeln!(
                s,
                "{:<12} {:>6}us {:>7} {:>9} {:>7} {:>9}  {}",
                u.unit,
                u.total_micros(),
                u.cache.name(),
                u.ir_instrs,
                u.plan.slots,
                u.c_bytes,
                status
            );
        }
        let _ = writeln!(
            s,
            "{} unit(s), {} failed; cache {} hit(s) / {} miss(es); wall {}us on {} job(s)",
            self.units.len(),
            self.failed(),
            self.cache_hits,
            self.cache_misses,
            self.wall_micros,
            self.jobs
        );
        if self.cache_partial_hits > 0 {
            let _ = writeln!(
                s,
                "{} per-function fragment(s) reused incrementally",
                self.cache_partial_hits
            );
        }
        if self.cache_quarantined > 0 {
            let _ = writeln!(
                s,
                "{} corrupt store file(s) quarantined and recompiled",
                self.cache_quarantined
            );
        }
        let degraded = self.degraded();
        if degraded > 0 {
            let _ = writeln!(s, "{degraded} unit(s) degraded to the conservative plan");
        }
        s
    }
}

/// Aggregate counters of one `matc shadow` run — the top-level
/// `shadow` object of the schema-v9 stats document
/// (`{"schema":9,"kind":"shadow","shadow":{…},…}`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowStats {
    /// Units replayed.
    pub units: usize,
    /// Function activations observed across all units.
    pub frames: u64,
    /// Slot definition events observed.
    pub defs: u64,
    /// Distinct slot reads observed.
    pub reads: u64,
    /// Heap alloc / realloc / free events observed.
    pub heap_events: u64,
    /// The planned VM's plan-violation counter, summed over units.
    pub plan_violations: u64,
    /// `∘` definitions observed resizing (soundness).
    pub s101: usize,
    /// Stack slots observed overflowing (soundness).
    pub s102: usize,
    /// `±` definitions that never resized (precision headroom).
    pub s103: usize,
    /// Slot reads outside the auditor's liveness facts.
    pub s104: usize,
    /// Equation 2 log-vs-recorder disagreements.
    pub s105: usize,
    /// Planned outputs diverging from the reference interpreter.
    pub s100: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_have_unique_names_and_indices() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
    }

    #[test]
    fn timing_accumulates() {
        let mut m = UnitMetrics::new("u");
        m.record(Phase::Parse, Duration::from_micros(30));
        m.record(Phase::Parse, Duration::from_micros(12));
        assert_eq!(m.phase_micros(Phase::Parse), 42);
        assert_eq!(m.total_micros(), 42);
        let v = m.time(Phase::Codegen, || 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn table_lists_each_unit() {
        let mut m = UnitMetrics::new("fiff");
        m.cache = CacheOutcome::Hit;
        m.c_bytes = 10;
        assert_eq!(m.status(), "ok");
        let report = BatchReport {
            jobs: 2,
            wall_micros: 5,
            cache_hits: 1,
            cache_misses: 0,
            cache_partial_hits: 3,
            cache_frag_misses: 1,
            cache_quarantined: 2,
            units: vec![m],
        };
        let table = report.render_table();
        assert!(table.contains("fiff"), "{table}");
        assert!(table.contains("3 per-function fragment(s)"), "{table}");
        assert!(table.contains("2 corrupt store file(s)"), "{table}");
    }

    #[test]
    fn degradations_mark_the_unit_degraded() {
        let mut m = UnitMetrics::new("wobbly");
        m.degradations.push(DegradationEvent {
            unit: "wobbly".to_string(),
            func: "kernel".to_string(),
            stage: "audit",
            reason: "A101: slot clobbered".to_string(),
        });
        m.budget_exceeded.push(BudgetEvent {
            phase: "coloring".to_string(),
            kind: "fuel".to_string(),
        });
        assert!(m.ok() && m.degraded());
        assert_eq!(m.status(), "degraded");
        let clean = UnitMetrics::new("clean");
        assert_eq!(clean.status(), "ok");
        let report = BatchReport {
            jobs: 1,
            wall_micros: 0,
            cache_hits: 0,
            cache_misses: 1,
            cache_partial_hits: 0,
            cache_frag_misses: 0,
            cache_quarantined: 0,
            units: vec![m, clean],
        };
        assert_eq!(report.degraded(), 1);
        assert_eq!(report.failed(), 0);
        assert!(report.render_table().contains("degraded (1 event(s))"));
        assert!(report
            .render_table()
            .contains("1 unit(s) degraded to the conservative plan"));
    }

    #[test]
    fn failed_units_render_as_errors() {
        let mut m = UnitMetrics::new("bad");
        m.error = Some("parse error".to_string());
        assert!(!m.ok());
        assert_eq!(m.status(), "error");
        let report = BatchReport {
            jobs: 1,
            wall_micros: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_partial_hits: 0,
            cache_frag_misses: 0,
            cache_quarantined: 0,
            units: vec![m],
        };
        assert_eq!(report.failed(), 1);
        assert!(report.render_table().contains("error: parse error"));
    }
}
