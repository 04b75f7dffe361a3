//! The parallel batch-compilation driver behind `matc batch`.
//!
//! A [`Unit`] is one program (driver source plus helper sources); the
//! driver pushes every unit through the full pipeline — parse → SSA →
//! passes → inference → GCTD → audit → inversion → C emission — on
//! scoped worker threads sharing one cursor ([`par_map`]), recording a
//! [`UnitMetrics`] per unit and assembling a [`BatchReport`].
//!
//! Results are optionally served from a content-addressed
//! [`ArtifactCache`]: the key is a SHA-256 over the unit's sources and
//! the [`GctdOptions`] fingerprint, so the same sources compiled under
//! different options occupy distinct entries and an option change can
//! never alias a stale artifact (see DESIGN.md §6 for the key layout).
//!
//! [`selfcheck`] is the determinism harness used by `just batch-bench`
//! and the test suite: it proves parallel, sequential, per-unit and
//! warm-cache compilations all produce byte-identical artifacts.

use crate::stats;
use matc_analysis::{lint_program, Diagnostics};
use matc_codegen::{emit_function_unit, emit_unit_epilogue, emit_unit_prologue};
use matc_frontend::parse_program;
use matc_gctd::{
    isolate, options_fingerprint, par_map, Artifact, ArtifactCache, BatchReport, CacheKey,
    CacheOutcome, FaultPlan, FaultSite, Fragment, GctdOptions, Phase, PlanStats, ResizeKind,
    SlotKind, StoragePlan, UnitMetrics,
};
use matc_ir::{ssa_destruct, Budget, FuncId, FuncIr};
use matc_vm::Compiled;
use matc_vm::{compile_front, compile_function, FrontHalf};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One compilation unit: a named program made of one or more sources
/// (driver first, helpers after — the [`parse_program`] convention).
#[derive(Debug, Clone)]
pub struct Unit {
    /// Display name (file stem or benchmark name).
    pub name: String,
    /// Source texts, driver first.
    pub sources: Vec<String>,
}

impl Unit {
    /// A unit from a name and its source texts.
    pub fn new(name: impl Into<String>, sources: Vec<String>) -> Unit {
        Unit {
            name: name.into(),
            sources,
        }
    }
}

/// Batch-driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Worker-thread count (clamped to `1..=units`).
    pub jobs: usize,
    /// GCTD options applied to every unit (part of the cache key).
    pub options: GctdOptions,
    /// Stop handing out new units after the first failed one (the
    /// default keep-going mode drains the whole queue regardless).
    /// Units never started are reported as `skipped (fail-fast)`.
    pub fail_fast: bool,
    /// Per-phase wall-clock timeout in milliseconds (`--phase-timeout-ms`).
    pub phase_timeout_ms: Option<u64>,
    /// Fuel (abstract work-unit) allowance per unit compile (`--fuel`).
    pub fuel: Option<u64>,
    /// Seeded fault-injection plan (`--faults` / `MATC_FAULTS`).
    pub faults: Option<FaultPlan>,
    /// Absolute unit-wide deadline (a `matc serve` request deadline).
    /// Unlike the per-phase timeout, tripping it is fatal — the
    /// degradation ladder does not retry a request that is out of time.
    pub deadline: Option<Instant>,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            jobs: 1,
            options: GctdOptions::default(),
            fail_fast: false,
            phase_timeout_ms: None,
            fuel: None,
            faults: None,
            deadline: None,
        }
    }
}

/// The result of compiling one unit.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// The unit's display name.
    pub name: String,
    /// The compiled artifacts (`None` when the unit failed to compile).
    pub artifact: Option<Arc<Artifact>>,
    /// Phase timings, sizes and the cache outcome.
    pub metrics: UnitMetrics,
}

/// The result of one batch run: per-unit outcomes in input order plus
/// the aggregate report.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-unit outcomes, in input order regardless of worker schedule.
    pub outcomes: Vec<UnitOutcome>,
    /// The aggregate report (`matc batch --stats` document).
    pub report: BatchReport,
}

impl BatchResult {
    /// Units that failed to compile.
    pub fn failed(&self) -> usize {
        self.report.failed()
    }
}

/// Every benchsuite program as a batch unit.
pub fn bench_units(preset: matc_benchsuite::Preset) -> Vec<Unit> {
    matc_benchsuite::all()
        .iter()
        .map(|b| Unit::new(b.name, b.sources(preset)))
        .collect()
}

/// Renders a storage plan as the human text `matc plan` prints (also
/// the `plan` section of cached artifacts).
pub fn render_plan(compiled: &Compiled) -> String {
    let mut out = String::new();
    for (i, func) in compiled.ir.functions.iter().enumerate() {
        out.push_str(&render_func_plan(func, compiled.plans.plan(FuncId::new(i))));
    }
    out
}

/// One function's section of [`render_plan`] — the unit text is the
/// concatenation of these, which lets cached per-function fragments
/// carry their own plan text.
pub fn render_func_plan(func: &FuncIr, plan: &StoragePlan) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "function {}:", func.name);
    for (si, slot) in plan.slots.iter().enumerate() {
        let kind = match slot.kind {
            SlotKind::Stack { bytes } => format!("stack {bytes}B"),
            SlotKind::Heap => "heap".to_string(),
        };
        let members: Vec<String> = slot
            .members
            .iter()
            .map(|v| {
                let ann = match plan.resize_of(*v) {
                    ResizeKind::NoResize => "",
                    ResizeKind::Grow => "+",
                    ResizeKind::Resize => "±",
                };
                format!("{}{}", func.vars.display_name(*v), ann)
            })
            .collect();
        let _ = writeln!(
            out,
            "  slot {si:3} [{kind}, {:?}] {}",
            slot.intrinsic,
            members.join(", ")
        );
    }
    out
}

/// The size counters a cached artifact carries so a cache hit can
/// repopulate [`UnitMetrics`] without recompiling (phase times stay
/// zero on hits — the time genuinely wasn't spent).
fn meta_from_metrics(m: &UnitMetrics) -> BTreeMap<String, u64> {
    let mut meta = BTreeMap::new();
    let pairs: [(&str, u64); 23] = [
        ("ast_functions", m.ast_functions as u64),
        ("ast_statements", m.ast_statements as u64),
        ("ast_expressions", m.ast_expressions as u64),
        ("ir_functions", m.ir_functions as u64),
        ("ir_blocks", m.ir_blocks as u64),
        ("ir_instrs", m.ir_instrs as u64),
        ("ir_vars", m.ir_vars as u64),
        ("opt_removed", m.opt_removed as u64),
        ("typeinf_facts", m.typeinf_facts as u64),
        ("typeinf_scalars", m.typeinf_scalars as u64),
        ("interference_nodes", m.interference_nodes as u64),
        ("interference_edges", m.interference_edges as u64),
        ("dataflow_iters", m.dataflow_iters),
        ("peak_live_words", m.peak_live_words),
        ("plan_original_vars", m.plan.original_vars as u64),
        ("plan_static_subsumed", m.plan.static_subsumed as u64),
        ("plan_dynamic_subsumed", m.plan.dynamic_subsumed as u64),
        ("plan_stack_bytes_saved", m.plan.stack_bytes_saved),
        ("plan_stack_bytes_total", m.plan.stack_bytes_total),
        ("plan_colors", u64::from(m.plan.colors)),
        ("plan_coalesced_phis", m.plan.coalesced_phis as u64),
        ("plan_op_conflicts", m.plan.op_conflicts as u64),
        ("plan_slots", m.plan.slots as u64),
    ];
    for (k, v) in pairs {
        meta.insert(k.to_string(), v);
    }
    meta.insert("audit_errors".to_string(), m.audit_errors as u64);
    meta.insert("audit_warnings".to_string(), m.audit_warnings as u64);
    meta.insert("audit_edges".to_string(), m.audit_edges);
    meta
}

/// Inverse of [`meta_from_metrics`] for cache hits.
fn apply_meta(a: &Artifact, m: &mut UnitMetrics) {
    m.ast_functions = a.meta_value("ast_functions") as usize;
    m.ast_statements = a.meta_value("ast_statements") as usize;
    m.ast_expressions = a.meta_value("ast_expressions") as usize;
    m.ir_functions = a.meta_value("ir_functions") as usize;
    m.ir_blocks = a.meta_value("ir_blocks") as usize;
    m.ir_instrs = a.meta_value("ir_instrs") as usize;
    m.ir_vars = a.meta_value("ir_vars") as usize;
    m.opt_removed = a.meta_value("opt_removed") as usize;
    m.typeinf_facts = a.meta_value("typeinf_facts") as usize;
    m.typeinf_scalars = a.meta_value("typeinf_scalars") as usize;
    m.interference_nodes = a.meta_value("interference_nodes") as usize;
    m.interference_edges = a.meta_value("interference_edges") as usize;
    m.dataflow_iters = a.meta_value("dataflow_iters");
    m.peak_live_words = a.meta_value("peak_live_words");
    m.plan.original_vars = a.meta_value("plan_original_vars") as usize;
    m.plan.static_subsumed = a.meta_value("plan_static_subsumed") as usize;
    m.plan.dynamic_subsumed = a.meta_value("plan_dynamic_subsumed") as usize;
    m.plan.stack_bytes_saved = a.meta_value("plan_stack_bytes_saved");
    m.plan.stack_bytes_total = a.meta_value("plan_stack_bytes_total");
    m.plan.colors = a.meta_value("plan_colors") as u32;
    m.plan.coalesced_phis = a.meta_value("plan_coalesced_phis") as usize;
    m.plan.op_conflicts = a.meta_value("plan_op_conflicts") as usize;
    m.plan.slots = a.meta_value("plan_slots") as usize;
    m.audit_errors = a.meta_value("audit_errors") as usize;
    m.audit_warnings = a.meta_value("audit_warnings") as usize;
    m.audit_edges = a.meta_value("audit_edges");
    m.c_bytes = a.c_code.len();
    m.c_lines = a.c_code.lines().count();
}

/// The per-function metric deltas a fragment carries: planner and
/// auditor counters only — no timings, so a composed partial-hit
/// artifact is byte-identical to a cold compile's.
fn frag_meta(fm: &UnitMetrics, ps: &PlanStats) -> BTreeMap<String, u64> {
    let mut meta = BTreeMap::new();
    let pairs: [(&str, u64); 14] = [
        ("interference_nodes", fm.interference_nodes as u64),
        ("interference_edges", fm.interference_edges as u64),
        ("dataflow_iters", fm.dataflow_iters),
        ("peak_live_words", fm.peak_live_words),
        ("audit_edges", fm.audit_edges),
        ("plan_original_vars", ps.original_vars as u64),
        ("plan_static_subsumed", ps.static_subsumed as u64),
        ("plan_dynamic_subsumed", ps.dynamic_subsumed as u64),
        ("plan_stack_bytes_saved", ps.stack_bytes_saved),
        ("plan_stack_bytes_total", ps.stack_bytes_total),
        ("plan_colors", u64::from(ps.colors)),
        ("plan_coalesced_phis", ps.coalesced_phis as u64),
        ("plan_op_conflicts", ps.op_conflicts as u64),
        ("plan_slots", ps.slots as u64),
    ];
    for (k, v) in pairs {
        meta.insert(k.to_string(), v);
    }
    meta
}

/// Folds a reused fragment's metric deltas into the unit's metrics,
/// mirroring what compiling the function fresh would have accumulated.
fn apply_frag_meta(meta: &BTreeMap<String, u64>, m: &mut UnitMetrics, plan_total: &mut PlanStats) {
    let g = |k: &str| meta.get(k).copied().unwrap_or(0);
    m.interference_nodes += g("interference_nodes") as usize;
    m.interference_edges += g("interference_edges") as usize;
    m.dataflow_iters += g("dataflow_iters");
    m.peak_live_words = m.peak_live_words.max(g("peak_live_words"));
    m.audit_edges += g("audit_edges");
    plan_total.absorb(&PlanStats {
        original_vars: g("plan_original_vars") as usize,
        static_subsumed: g("plan_static_subsumed") as usize,
        dynamic_subsumed: g("plan_dynamic_subsumed") as usize,
        stack_bytes_saved: g("plan_stack_bytes_saved"),
        stack_bytes_total: g("plan_stack_bytes_total"),
        colors: g("plan_colors") as u32,
        coalesced_phis: g("plan_coalesced_phis") as usize,
        op_conflicts: g("plan_op_conflicts") as usize,
        slots: g("plan_slots") as usize,
    });
}

/// Merges the scratch metrics of one function's compile into the unit
/// metrics. Fragments need exact *per-function* counter values (a
/// running maximum like `peak_live_words` cannot be un-merged later),
/// so per-function compiles record into a scratch [`UnitMetrics`]
/// first and fold in here.
fn merge_func_metrics(m: &mut UnitMetrics, fm: &UnitMetrics) {
    for ph in Phase::ALL {
        let us = fm.phase_micros(ph);
        if us > 0 {
            m.record(ph, Duration::from_micros(us));
        }
    }
    m.interference_nodes += fm.interference_nodes;
    m.interference_edges += fm.interference_edges;
    m.dataflow_iters += fm.dataflow_iters;
    m.dataflow_nanos += fm.dataflow_nanos;
    m.peak_live_words = m.peak_live_words.max(fm.peak_live_words);
    m.audit_edges += fm.audit_edges;
    m.degradations.extend(fm.degradations.iter().cloned());
    m.budget_exceeded.extend(fm.budget_exceeded.iter().cloned());
}

/// The key of one function's fragment: a digest over the option
/// fingerprint, the probes flag and the canonical walks of the
/// function's optimized IR and of its inference facts
/// (`FuncIr::encode_canonical`, `ProgramTypes::encode_canonical_facts`),
/// in domain `matc-frag-v4`. Equal keys ⇒ equal optimized IR, equal
/// facts (canonically renumbered) and equal options ⇒ identical plan,
/// audit and emitted body (the facts decide which variables the body
/// computes as typed scalars). The domain names the emitter's output
/// form: `v3` is op-id dispatch with typed scalars, whose bodies do not
/// link against the `v2` runtime interface, and `v4` counts every
/// frame against the recursion limit (`mrt_enter`/`mrt_leave` in every
/// body). `buf` is scratch space,
/// reused across calls.
pub fn fragment_key(
    fingerprint: &str,
    front: &FrontHalf,
    fid: FuncId,
    buf: &mut Vec<u8>,
) -> CacheKey {
    buf.clear();
    front.ir.func(fid).encode_canonical(buf);
    front.types.encode_canonical_facts(fid, buf);
    CacheKey::compute_parts(
        "matc-frag-v4",
        [
            fingerprint.as_bytes(),
            b"probes=0".as_slice(),
            buf.as_slice(),
        ],
    )
}

/// Compiles one unit, consulting (and filling) the cache when given.
///
/// Equivalent to [`compile_unit_with`] under a default configuration
/// (no budget, no faults) — the sequential reference the determinism
/// tests compare against.
pub fn compile_unit(
    unit: &Unit,
    options: GctdOptions,
    cache: Option<&ArtifactCache>,
) -> UnitOutcome {
    let config = BatchConfig {
        options,
        ..BatchConfig::default()
    };
    compile_unit_with(unit, &config, cache)
}

/// Compiles one unit under the full fault-tolerance machinery: the
/// entire pipeline runs inside [`isolate()`] (a panic anywhere — real or
/// injected — becomes a structured unit error instead of poisoning the
/// worker pool), phase budgets from `config` feed the degradation
/// ladder of [`compile_front`]/[`compile_function`], and fault probes
/// cover parse and codegen entry.
///
/// The pipeline is driven function by function: after the shared front
/// half (parse → SSA → passes → inference), each function is planned,
/// audited, destructed and emitted on its own, and the unit artifact is
/// stitched from the per-function pieces (byte-identical to whole-unit
/// emission — `matc-codegen` proves the concatenation identity). With a
/// cache attached and no budget limits in play, the front half reuses
/// the optimized IR of every function unchanged since the unit's last
/// compile (the cache's front-half memo, see [`compile_front`]), and
/// each function is first looked up as a *fragment* keyed by its
/// optimized IR and inference facts ([`fragment_key`]), so editing one
/// function of a unit rebuilds and recompiles only that function
/// ([`CacheOutcome::Partial`]) — type inference and the fragment keys
/// still cover the whole unit.
///
/// Artifacts of units that degraded, tripped a budget, or failed are
/// **never** written to the cache (whole or fragments): the cache key
/// covers sources and options only, so a degraded (all-heap fallback)
/// artifact stored under it would be served as the clean GCTD artifact
/// on the next run.
pub fn compile_unit_with(
    unit: &Unit,
    config: &BatchConfig,
    cache: Option<&ArtifactCache>,
) -> UnitOutcome {
    let options = config.options;
    let faults = config.faults.unwrap_or(FaultPlan::quiet(0));
    let mut m = UnitMetrics::new(&unit.name);
    let key = cache.map(|_| {
        CacheKey::compute(
            unit.sources.iter().map(|s| s.as_str()),
            &options_fingerprint(&options),
        )
    });
    if let (Some(c), Some(k)) = (cache, key.as_ref()) {
        if let Some(artifact) = c.get(k) {
            m.cache = CacheOutcome::Hit;
            apply_meta(&artifact, &mut m);
            return UnitOutcome {
                name: unit.name.clone(),
                artifact: Some(artifact),
                metrics: m,
            };
        }
        m.cache = CacheOutcome::Miss;
    }

    let outcome = isolate(|| {
        if faults.fires(FaultSite::PhasePanic, &format!("{}/parse", unit.name)) {
            panic!("injected fault: panic at `{}/parse`", unit.name);
        }
        let t = Instant::now();
        let parsed = parse_program(unit.sources.iter().map(|s| s.as_str()));
        m.record(Phase::Parse, t.elapsed());
        let ast = match parsed {
            Ok(a) => a,
            Err(e) => {
                m.error = Some(format!("parse error: {}", e.render(&unit.sources[0])));
                return None;
            }
        };

        let mut budget = Budget::new(
            config.phase_timeout_ms.map(Duration::from_millis),
            config.fuel,
        );
        if let Some(d) = config.deadline {
            budget = budget.with_deadline(d);
        }
        // The front-half memo and the fragments are only consulted
        // (and later written) when the compile is fully budget-free: a
        // budgeted run may degrade per function, and serving clean
        // work where the budget would have bitten must not change what
        // a budgeted compile produces.
        let budget_free =
            config.fuel.is_none() && config.phase_timeout_ms.is_none() && config.deadline.is_none();
        let memo = cache.filter(|_| budget_free);
        let mut front = match compile_front(&ast, options, &budget, &faults, &mut m, memo) {
            Ok(f) => f,
            Err(e) => {
                m.error = Some(e.to_string());
                return None;
            }
        };

        if faults.fires(FaultSite::PhasePanic, &format!("{}/codegen", unit.name)) {
            panic!("injected fault: panic at `{}/codegen`", unit.name);
        }

        // Fragments also need the front half to have stayed on the
        // configured path.
        let incremental = memo.is_some() && !front.conservative;
        let fingerprint = options_fingerprint(&options);
        let mut key_bytes = Vec::new();

        let n = front.ir.functions.len();
        let mut frags: Vec<(CacheKey, Arc<Fragment>)> = Vec::with_capacity(n);
        let mut bodies = String::new();
        let mut plan_text = String::new();
        let t = Instant::now();
        let mut diags = lint_program(&ast);
        m.record(Phase::Audit, t.elapsed());
        let mut plan_total = PlanStats::default();
        let mut frag_hits = 0usize;

        for i in 0..n {
            let fid = FuncId::new(i);
            let fkey = incremental.then(|| fragment_key(&fingerprint, &front, fid, &mut key_bytes));

            if let Some(k) = &fkey {
                if let Some(frag) = cache.expect("incremental implies cache").get_fragment(k) {
                    // A fragment whose findings fail to decode is from
                    // an incompatible build (its integrity hash is
                    // fine); recompile and overwrite it instead.
                    if let Ok(fd) = Diagnostics::from_wire(&frag.findings) {
                        frag_hits += 1;
                        bodies.push_str(&frag.body);
                        plan_text.push_str(&frag.plan_text);
                        diags.merge(fd);
                        apply_frag_meta(&frag.meta, &mut m, &mut plan_total);
                        frags.push((*k, frag));
                        continue;
                    }
                }
            }

            // Fragment miss (or ineligible): compile the function. A
            // scratch metrics record keeps the per-function counter
            // values exact for the fragment it produces.
            let mut fm = UnitMetrics::new(&unit.name);
            let (plan, fd) = match compile_function(&mut front, fid, &budget, &faults, &mut fm) {
                Ok(x) => x,
                Err(e) => {
                    merge_func_metrics(&mut m, &fm);
                    m.error = Some(e.to_string());
                    return None;
                }
            };
            let func = &mut front.ir.functions[i];
            let t = Instant::now();
            ssa_destruct(func, |dst, src| plan.share_storage(dst, src));
            fm.record(Phase::SsaInvert, t.elapsed());
            let t = Instant::now();
            let body = emit_function_unit(func, &plan, None);
            fm.record(Phase::Codegen, t.elapsed());
            let fplan_text = render_func_plan(func, &plan);

            plan_total.absorb(&plan.stats);
            bodies.push_str(&body);
            plan_text.push_str(&fplan_text);
            if let Some(k) = fkey {
                if fm.degradations.is_empty() && fm.budget_exceeded.is_empty() {
                    frags.push((
                        k,
                        Arc::new(Fragment {
                            body,
                            plan_text: fplan_text,
                            findings: fd.to_wire(),
                            meta: frag_meta(&fm, &plan.stats),
                        }),
                    ));
                }
            }
            diags.merge(fd);
            merge_func_metrics(&mut m, &fm);
        }

        let t = Instant::now();
        let mut c_code = emit_unit_prologue(&front.ir.functions);
        c_code.push_str(&bodies);
        c_code.push_str(&emit_unit_epilogue(&front.ir.entry_func().name, false));
        m.record(Phase::Codegen, t.elapsed());
        m.c_bytes = c_code.len();
        m.c_lines = c_code.lines().count();
        m.plan = plan_total;
        m.audit_errors = diags.error_count();
        m.audit_warnings = diags.warning_count();
        if frag_hits > 0 {
            m.cache = CacheOutcome::Partial;
        }

        Some((
            Arc::new(Artifact {
                c_code,
                plan_text,
                audit_json: stats::audit_json(&diags),
                meta: meta_from_metrics(&m),
            }),
            frags,
        ))
    });
    let (artifact, frags) = match outcome {
        Ok(Some((a, f))) => (Some(a), f),
        Ok(None) => (None, Vec::new()),
        Err(panic_msg) => {
            m.error = Some(format!("panic: {panic_msg}"));
            (None, Vec::new())
        }
    };

    // Only pristine artifacts are cacheable (see the doc above). The
    // fragments and the unit manifest commit together — fragments
    // first, fsynced, then the manifest that stitches them.
    let pristine = m.error.is_none() && m.degradations.is_empty() && m.budget_exceeded.is_empty();
    if let (Some(c), Some(k), Some(a), true) = (cache, key.as_ref(), artifact.as_ref(), pristine) {
        c.put_unit(k, Arc::clone(a), &frags);
    }
    UnitOutcome {
        name: unit.name.clone(),
        artifact,
        metrics: m,
    }
}

/// Compiles every unit on `config.jobs` worker threads.
///
/// The workers share one cursor over the unit list ([`par_map`]): each
/// takes the next unclaimed unit until none is left. Results land in
/// per-unit slots, making `outcomes` input-ordered (and the emitted
/// artifacts schedule-independent — the determinism tests rely on
/// this).
pub fn run_batch(
    units: &[Unit],
    config: &BatchConfig,
    cache: Option<&ArtifactCache>,
) -> BatchResult {
    let start = Instant::now();
    let jobs = config.jobs.max(1).min(units.len().max(1));
    // Store counters are cumulative over the cache's lifetime; the
    // report carries this run's delta.
    let store_before = cache.map(|c| c.stats()).unwrap_or_default();

    let stop = AtomicBool::new(false);
    let done = par_map(units.len(), vec![(); jobs], |(), i| {
        if stop.load(Ordering::Relaxed) {
            return None; // fail-fast: leave the remaining units unrun
        }
        let outcome = compile_unit_with(&units[i], config, cache);
        if config.fail_fast && !outcome.metrics.ok() {
            stop.store(true, Ordering::Relaxed);
        }
        Some(outcome)
    });

    let outcomes: Vec<UnitOutcome> = done
        .into_iter()
        .zip(units)
        .map(|(done, unit)| {
            done.unwrap_or_else(|| {
                // Only reachable in fail-fast mode: a worker claimed the
                // unit after the stop flag went up.
                let mut m = UnitMetrics::new(&unit.name);
                m.error = Some("skipped (fail-fast)".to_string());
                UnitOutcome {
                    name: unit.name.clone(),
                    artifact: None,
                    metrics: m,
                }
            })
        })
        .collect();
    let store = cache.map(|c| c.stats()).unwrap_or_default();
    let report = BatchReport {
        jobs,
        wall_micros: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
        cache_hits: outcomes
            .iter()
            .filter(|o| o.metrics.cache == CacheOutcome::Hit)
            .count() as u64,
        cache_misses: outcomes
            .iter()
            .filter(|o| matches!(o.metrics.cache, CacheOutcome::Miss | CacheOutcome::Partial))
            .count() as u64,
        cache_partial_hits: store.partial_hits.saturating_sub(store_before.partial_hits),
        cache_frag_misses: store.frag_misses.saturating_sub(store_before.frag_misses),
        cache_quarantined: store.quarantined.saturating_sub(store_before.quarantined),
        units: outcomes.iter().map(|o| o.metrics.clone()).collect(),
    };
    BatchResult { outcomes, report }
}

/// Serialized artifact bytes per unit — the byte strings the
/// determinism checks compare (`None` for failed units).
pub fn artifact_bytes(result: &BatchResult) -> Vec<Option<Vec<u8>>> {
    result
        .outcomes
        .iter()
        .map(|o| o.artifact.as_ref().map(|a| a.to_bytes()))
        .collect()
}

/// The determinism/cache harness behind `matc batch --selfcheck` and
/// `just batch-bench`.
///
/// Proves four properties and reports the parallel speedup:
///
/// 1. a parallel run (`jobs` workers) produces byte-identical
///    artifacts to a sequential run;
/// 2. compiling each unit alone (fresh `compile_unit`, no pool)
///    reproduces the same bytes — the pool adds nothing;
/// 3. a warm-cache rerun serves every unit as a hit with identical
///    bytes;
/// 4. unit metadata survives the cache (hit metrics match miss
///    metrics for every size counter).
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn selfcheck(units: &[Unit], jobs: usize, options: GctdOptions) -> Result<String, String> {
    use std::fmt::Write as _;
    let seq_cfg = BatchConfig {
        jobs: 1,
        options,
        ..BatchConfig::default()
    };
    let par_cfg = BatchConfig {
        jobs,
        options,
        ..BatchConfig::default()
    };

    let seq = run_batch(units, &seq_cfg, None);
    let par = run_batch(units, &par_cfg, None);
    let seq_bytes = artifact_bytes(&seq);
    let par_bytes = artifact_bytes(&par);
    for (i, unit) in units.iter().enumerate() {
        if seq_bytes[i] != par_bytes[i] {
            return Err(format!(
                "unit `{}`: parallel artifact differs from sequential",
                unit.name
            ));
        }
        let solo = compile_unit(unit, options, None);
        if solo.artifact.as_ref().map(|a| a.to_bytes()) != seq_bytes[i] {
            return Err(format!(
                "unit `{}`: per-unit artifact differs from batch",
                unit.name
            ));
        }
    }

    let cache = ArtifactCache::in_memory();
    let cold = run_batch(units, &par_cfg, Some(&cache));
    let warm = run_batch(units, &par_cfg, Some(&cache));
    let cold_bytes = artifact_bytes(&cold);
    let warm_bytes = artifact_bytes(&warm);
    for (i, unit) in units.iter().enumerate() {
        if cold_bytes[i] != seq_bytes[i] {
            return Err(format!(
                "unit `{}`: cached-run artifact differs from uncached",
                unit.name
            ));
        }
        if warm_bytes[i] != cold_bytes[i] {
            return Err(format!(
                "unit `{}`: warm-cache artifact differs from cold",
                unit.name
            ));
        }
        if cold.outcomes[i].artifact.is_some()
            && warm.outcomes[i].metrics.cache != CacheOutcome::Hit
        {
            return Err(format!(
                "unit `{}`: warm rerun was not a cache hit",
                unit.name
            ));
        }
        let (c, w) = (&cold.outcomes[i].metrics, &warm.outcomes[i].metrics);
        if c.ir_instrs != w.ir_instrs
            || c.plan != w.plan
            || c.c_bytes != w.c_bytes
            || c.audit_errors != w.audit_errors
        {
            return Err(format!(
                "unit `{}`: cache-hit metrics differ from compile metrics",
                unit.name
            ));
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "selfcheck ok: {} unit(s) byte-identical across sequential, {}-way parallel, per-unit and warm-cache runs",
        units.len(),
        par.report.jobs
    );
    let _ = writeln!(
        out,
        "  warm cache: {} hit(s), {} miss(es)",
        warm.report.cache_hits, warm.report.cache_misses
    );
    let speedup = seq.report.wall_micros as f64 / par.report.wall_micros.max(1) as f64;
    let _ = writeln!(
        out,
        "  wall: sequential {}us, parallel {}us on {} job(s) ({speedup:.2}x)",
        seq.report.wall_micros, par.report.wall_micros, par.report.jobs
    );
    let cache_speedup = cold.report.wall_micros as f64 / warm.report.wall_micros.max(1) as f64;
    let _ = writeln!(
        out,
        "  cache: cold {}us, warm {}us ({cache_speedup:.2}x)",
        cold.report.wall_micros, warm.report.wall_micros
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matc_benchsuite::Preset;

    fn tiny_units(n: usize) -> Vec<Unit> {
        (0..n)
            .map(|i| {
                Unit::new(
                    format!("u{i}"),
                    vec![format!(
                        "function f()\ns = 0;\nfor i = 1:{}\ns = s + i;\nend\nfprintf('%d\\n', s);\n",
                        10 + i
                    )],
                )
            })
            .collect()
    }

    #[test]
    fn pool_completes_every_unit_in_order() {
        let units = tiny_units(23);
        let cfg = BatchConfig {
            jobs: 7,
            ..BatchConfig::default()
        };
        let res = run_batch(&units, &cfg, None);
        assert_eq!(res.outcomes.len(), 23);
        for (i, o) in res.outcomes.iter().enumerate() {
            assert_eq!(o.name, format!("u{i}"));
            assert!(o.metrics.ok(), "{:?}", o.metrics.error);
            assert!(o.artifact.is_some());
            assert_eq!(o.metrics.cache, CacheOutcome::Bypass);
        }
    }

    #[test]
    fn pool_survives_simultaneous_steal_attempts() {
        // Regression: workers once held their own queue's lock while
        // stealing, so idle workers stealing from each other formed a
        // lock cycle and hung. Warm-cache rounds make every unit
        // near-instant, so all workers go idle (and steal) together.
        let units = tiny_units(8);
        let cfg = BatchConfig {
            jobs: 8,
            ..BatchConfig::default()
        };
        let cache = ArtifactCache::in_memory();
        for _ in 0..200 {
            let res = run_batch(&units, &cfg, Some(&cache));
            assert_eq!(res.outcomes.len(), 8);
        }
    }

    #[test]
    fn parse_errors_become_unit_errors_not_panics() {
        let units = vec![
            Unit::new("bad", vec!["function f()\nx = \"oops\";\n".to_string()]),
            tiny_units(1).remove(0),
        ];
        let res = run_batch(&units, &BatchConfig::default(), None);
        assert_eq!(res.failed(), 1);
        assert!(res.outcomes[0].metrics.error.is_some());
        assert!(res.outcomes[1].metrics.ok());
    }

    #[test]
    fn warm_cache_hits_preserve_bytes_and_meta() {
        let units = tiny_units(4);
        let cfg = BatchConfig {
            jobs: 4,
            ..BatchConfig::default()
        };
        let cache = ArtifactCache::in_memory();
        let cold = run_batch(&units, &cfg, Some(&cache));
        let warm = run_batch(&units, &cfg, Some(&cache));
        assert_eq!(cold.report.cache_misses, 4);
        assert_eq!(warm.report.cache_hits, 4);
        assert_eq!(artifact_bytes(&cold), artifact_bytes(&warm));
        for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(c.metrics.ir_instrs, w.metrics.ir_instrs);
            assert_eq!(c.metrics.plan, w.metrics.plan);
            assert_eq!(c.metrics.c_bytes, w.metrics.c_bytes);
        }
    }

    #[test]
    fn pool_survives_panicking_units_and_reports_them() {
        // Regression for pool poisoning: before unit-level isolation,
        // one panicking unit unwound through a worker while it held no
        // lock but left its queue mutex poisoned for the next
        // `lock().unwrap()`, cascading the panic into every worker.
        // With a 100% panic rate, *every* unit panics (at the parse
        // probe) — far past the two-unit regression threshold — and
        // the pool must still drain the queue and report each one.
        let units = tiny_units(6);
        let cfg = BatchConfig {
            jobs: 3,
            faults: Some(FaultPlan::quiet(1).panics(100)),
            ..BatchConfig::default()
        };
        let res = run_batch(&units, &cfg, None);
        assert_eq!(res.outcomes.len(), 6);
        assert_eq!(res.failed(), 6);
        for o in &res.outcomes {
            let err = o.metrics.error.as_deref().unwrap();
            assert!(err.starts_with("panic: injected fault"), "{err}");
            assert!(o.artifact.is_none());
        }
    }

    #[test]
    fn mixed_panic_rate_fails_some_units_and_compiles_the_rest() {
        let units = tiny_units(8);
        // Find a seed where the 40% rate panics some units' pipelines
        // but not others (decisions are keyed per unit/phase, so the
        // fault set is schedule-independent and known up front).
        let unit_fails = |p: &FaultPlan, name: &str| {
            ["parse", "optimize", "type_infer", "codegen"]
                .iter()
                .any(|ph| p.fires(FaultSite::PhasePanic, &format!("{name}/{ph}")))
        };
        let seed = (0..10_000u64)
            .find(|s| {
                let p = FaultPlan::quiet(*s).panics(40);
                let fails = units.iter().filter(|u| unit_fails(&p, &u.name)).count();
                (2..=6).contains(&fails)
            })
            .expect("a mixed-fate seed exists");
        let plan = FaultPlan::quiet(seed).panics(40);
        let cfg = BatchConfig {
            jobs: 4,
            faults: Some(plan),
            ..BatchConfig::default()
        };
        let res = run_batch(&units, &cfg, None);
        for (u, o) in units.iter().zip(&res.outcomes) {
            if unit_fails(&plan, &u.name) {
                assert!(o.metrics.error.is_some(), "unit `{}` must fail", u.name);
            } else {
                // The unit may still have *degraded* (plan-probe panic)
                // but it must produce an artifact.
                assert!(o.artifact.is_some(), "unit `{}` must compile", u.name);
            }
        }
    }

    #[test]
    fn fail_fast_skips_units_after_the_first_failure() {
        let mut units = vec![Unit::new(
            "bad",
            vec!["function f()\nx = \"oops\";\n".to_string()],
        )];
        units.extend(tiny_units(3));
        let cfg = BatchConfig {
            jobs: 1,
            fail_fast: true,
            ..BatchConfig::default()
        };
        let res = run_batch(&units, &cfg, None);
        assert_eq!(res.outcomes.len(), 4);
        assert!(res.outcomes[0]
            .metrics
            .error
            .as_deref()
            .unwrap()
            .starts_with("parse error"));
        for o in &res.outcomes[1..] {
            assert_eq!(o.metrics.error.as_deref(), Some("skipped (fail-fast)"));
        }
        // Keep-going mode compiles the healthy units instead.
        let keep = run_batch(&units, &BatchConfig::default(), None);
        assert_eq!(keep.failed(), 1);
    }

    #[test]
    fn degraded_artifacts_are_never_cached() {
        let units = tiny_units(2);
        let cache = ArtifactCache::in_memory();
        // 100% audit-violation rate: every unit degrades to the
        // all-heap fallback. Nothing may reach the cache.
        let faulty_cfg = BatchConfig {
            jobs: 2,
            faults: Some(FaultPlan::quiet(3).audit_violations(100)),
            ..BatchConfig::default()
        };
        let degraded = run_batch(&units, &faulty_cfg, Some(&cache));
        assert_eq!(degraded.failed(), 0, "degraded units still compile");
        for o in &degraded.outcomes {
            assert!(!o.metrics.degradations.is_empty());
            assert!(o.artifact.is_some());
        }
        // A clean run over the same cache must miss (nothing was
        // stored) and produce the full-GCTD artifact, not the fallback.
        let clean_cfg = BatchConfig {
            jobs: 2,
            ..BatchConfig::default()
        };
        let clean = run_batch(&units, &clean_cfg, Some(&cache));
        assert_eq!(
            clean.report.cache_hits, 0,
            "degraded artifacts were not cached"
        );
        for (d, c) in degraded.outcomes.iter().zip(&clean.outcomes) {
            assert_ne!(
                d.artifact.as_ref().unwrap().plan_text,
                c.artifact.as_ref().unwrap().plan_text,
                "fallback plan differs from the GCTD plan"
            );
        }
        // And the clean artifacts do get cached.
        let warm = run_batch(&units, &clean_cfg, Some(&cache));
        assert_eq!(warm.report.cache_hits, 2);
    }

    #[test]
    fn expired_request_deadline_fails_units_without_caching() {
        let units = tiny_units(2);
        let cache = ArtifactCache::in_memory();
        let cfg = BatchConfig {
            jobs: 2,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..BatchConfig::default()
        };
        let res = run_batch(&units, &cfg, Some(&cache));
        assert_eq!(res.failed(), 2);
        for o in &res.outcomes {
            let err = o.metrics.error.as_deref().unwrap();
            assert!(err.contains("deadline"), "{err}");
            assert!(o.artifact.is_none());
        }
        // Deadline-expired attempts must not have published anything.
        let clean = run_batch(&units, &BatchConfig::default(), Some(&cache));
        assert_eq!(clean.report.cache_hits, 0);
        assert_eq!(clean.failed(), 0);
    }

    #[test]
    fn generous_request_deadline_is_invisible() {
        let units = tiny_units(2);
        let reference = artifact_bytes(&run_batch(&units, &BatchConfig::default(), None));
        let cfg = BatchConfig {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            ..BatchConfig::default()
        };
        let res = run_batch(&units, &cfg, None);
        assert_eq!(res.failed(), 0);
        for o in &res.outcomes {
            assert!(o.metrics.budget_exceeded.is_empty());
        }
        assert_eq!(artifact_bytes(&res), reference);
    }

    #[test]
    fn selfcheck_passes_on_benchsuite() {
        let units = bench_units(Preset::Test);
        let report = selfcheck(&units, 4, GctdOptions::default()).unwrap();
        assert!(report.contains("selfcheck ok"), "{report}");
    }
}
