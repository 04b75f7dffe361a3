//! Property-based differential testing of the whole compiler.
//!
//! Generates random (but well-formed) MATLAB programs over a small
//! variable universe and checks that the GCTD-planned VM, the
//! no-coalescing VM and the mcc-model VM all produce *exactly* the
//! reference interpreter's output — with zero storage-plan violations.
//! Any unsound interference edge omission, bad partial-order claim or
//! in-place miscompile shows up as a divergence here.

use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Stmt {
    /// v = rand(3, 3);
    FreshRand(usize),
    /// v = <binop>(a, b) elementwise
    Ew(usize, usize, usize, char),
    /// v = a * b (matrix multiply, 3x3)
    MatMul(usize, usize, usize),
    /// v = a' (transpose)
    Transpose(usize, usize),
    /// v(i, j) = scalar-expression-of(a)
    Store(usize, usize, usize, usize),
    /// grow v to 4x4 via an indexed store, then slice back to 3x3
    GrowShrink(usize, usize),
    /// s = v(i, j) accumulated into the checksum variable
    Load(usize, usize, usize),
    /// v = k * a (scalar scale)
    Scale(usize, usize, i32),
    /// for t = 1:3, v = v + a; end
    Loop(usize, usize),
    /// if sum(sum(v)) > threshold, v = v + 1; else v = v - 1; end
    Branch(usize, i32),
    /// v = v + k*i — push the variable into the COMPLEX plane
    Complexify(usize, i32),
    /// while-loop with a bounded counter
    While(usize, usize),
    /// v = a(r, :) replicated back to 3x3 via vertical concat
    RowSlice(usize, usize, usize),
}

const NVARS: usize = 4;

fn var_name(i: usize) -> String {
    format!("v{i}")
}

fn render(stmts: &[Stmt]) -> String {
    let mut body = String::new();
    // Initialize every variable and the scalar accumulator.
    for i in 0..NVARS {
        body.push_str(&format!("{} = rand(3, 3);\n", var_name(i)));
    }
    body.push_str("acc = 0;\n");
    for s in stmts {
        match s {
            Stmt::FreshRand(v) => {
                body.push_str(&format!("{} = rand(3, 3);\n", var_name(*v)));
            }
            Stmt::Ew(d, a, b, op) => {
                let op = match op {
                    '+' => "+",
                    '-' => "-",
                    '*' => ".*",
                    _ => "+",
                };
                body.push_str(&format!(
                    "{} = {} {} {};\n",
                    var_name(*d),
                    var_name(*a),
                    op,
                    var_name(*b)
                ));
            }
            Stmt::MatMul(d, a, b) => {
                body.push_str(&format!(
                    "{} = {} * {};\n",
                    var_name(*d),
                    var_name(*a),
                    var_name(*b)
                ));
            }
            Stmt::Transpose(d, a) => {
                body.push_str(&format!("{} = {}';\n", var_name(*d), var_name(*a)));
            }
            Stmt::Store(v, i, j, a) => {
                body.push_str(&format!(
                    "{}({}, {}) = sum(sum({})) / 9;\n",
                    var_name(*v),
                    i + 1,
                    j + 1,
                    var_name(*a)
                ));
            }
            Stmt::GrowShrink(v, a) => {
                body.push_str(&format!(
                    "{0}(4, 4) = sum(sum({1})) / 9;\n{0} = {0}(1:3, 1:3);\n",
                    var_name(*v),
                    var_name(*a)
                ));
            }
            Stmt::Load(v, i, j) => {
                body.push_str(&format!(
                    "acc = acc + {}({}, {});\n",
                    var_name(*v),
                    i + 1,
                    j + 1
                ));
            }
            Stmt::Scale(d, a, k) => {
                body.push_str(&format!("{} = {} * {};\n", var_name(*d), k, var_name(*a)));
            }
            Stmt::Loop(v, a) => {
                body.push_str(&format!(
                    "for t = 1:3\n{} = {} + {};\nend\n",
                    var_name(*v),
                    var_name(*v),
                    var_name(*a)
                ));
            }
            Stmt::Complexify(v, k) => {
                body.push_str(&format!(
                    "{0} = {0} + {1}i;\n{0} = real({0}) + imag({0});\n",
                    var_name(*v),
                    k
                ));
            }
            Stmt::While(v, a) => {
                body.push_str(&format!(
                    "cnt = 0;\nwhile cnt < 3\n{0} = {0} .* 0.5 + {1};\ncnt = cnt + 1;\nend\n",
                    var_name(*v),
                    var_name(*a)
                ));
            }
            Stmt::RowSlice(d, a, r) => {
                body.push_str(&format!(
                    "{0} = [{1}({2}, :); {1}({2}, :); {1}({2}, :)];\n",
                    var_name(*d),
                    var_name(*a),
                    r + 1
                ));
            }
            Stmt::Branch(v, k) => {
                body.push_str(&format!(
                    "if sum(sum({})) > {}\n{} = {} + 1;\nelse\n{} = {} - 1;\nend\n",
                    var_name(*v),
                    k,
                    var_name(*v),
                    var_name(*v),
                    var_name(*v),
                    var_name(*v)
                ));
            }
        }
    }
    // Print a checksum of everything still live.
    for i in 0..NVARS {
        body.push_str(&format!(
            "fprintf('{}=%.10f\\n', sum(sum({})));\n",
            var_name(i),
            var_name(i)
        ));
    }
    body.push_str("fprintf('acc=%.10f\\n', acc);\n");
    format!("function f()\n{body}")
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let v = 0..NVARS;
    prop_oneof![
        v.clone().prop_map(Stmt::FreshRand),
        (
            v.clone(),
            v.clone(),
            v.clone(),
            prop_oneof![Just('+'), Just('-'), Just('*')]
        )
            .prop_map(|(d, a, b, op)| Stmt::Ew(d, a, b, op)),
        (v.clone(), v.clone(), v.clone()).prop_map(|(d, a, b)| Stmt::MatMul(d, a, b)),
        (v.clone(), v.clone()).prop_map(|(d, a)| Stmt::Transpose(d, a)),
        (v.clone(), 0..3usize, 0..3usize, v.clone())
            .prop_map(|(x, i, j, a)| Stmt::Store(x, i, j, a)),
        (v.clone(), v.clone()).prop_map(|(x, a)| Stmt::GrowShrink(x, a)),
        (v.clone(), 0..3usize, 0..3usize).prop_map(|(x, i, j)| Stmt::Load(x, i, j)),
        (v.clone(), v.clone(), 2..5i32).prop_map(|(d, a, k)| Stmt::Scale(d, a, k)),
        (v.clone(), v.clone()).prop_map(|(x, a)| Stmt::Loop(x, a)),
        (v.clone(), -5..20i32).prop_map(|(x, k)| Stmt::Branch(x, k)),
        (v.clone(), 1..4i32).prop_map(|(x, k)| Stmt::Complexify(x, k)),
        (v.clone(), v.clone()).prop_map(|(x, a)| Stmt::While(x, a)),
        (v.clone(), v, 0..3usize).prop_map(|(d, a, r)| Stmt::RowSlice(d, a, r)),
    ]
}

fn check_program(src: &str) {
    use matc::frontend::parse_program;
    use matc::gctd::GctdOptions;
    use matc::vm::compile::{compile, lower_for_mcc};
    use matc::vm::{Interp, MccVm, PlannedVm};

    let ast = parse_program([src]).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    let mut interp = Interp::new(&ast);
    let want = interp
        .run()
        .unwrap_or_else(|e| panic!("interp: {e}\n{src}"));

    // The independent auditor must bless every generated plan too —
    // differential execution catches miscompiles that actually fire on
    // this input; the auditor catches unsound sharing that didn't.
    {
        let mut ir = matc::ir::build_ssa(&ast).unwrap();
        matc::passes::optimize_program(&mut ir);
        let mut types = matc::typeinf::infer_program(&ir);
        let plans = matc::gctd::plan_program(&ir, &mut types, GctdOptions::default());
        let d = matc::analysis::audit_program(&ir, &types, &plans);
        assert!(d.is_empty(), "auditor findings on:\n{src}\n{}", d.render());
    }

    let compiled = compile(&ast, GctdOptions::default()).unwrap();
    let mut vm = PlannedVm::new(&compiled);
    let got = vm.run().unwrap_or_else(|e| panic!("planned: {e}\n{src}"));
    assert_eq!(got, want, "planned VM diverged on:\n{src}");
    assert_eq!(vm.plan_violations, 0, "plan violations on:\n{src}");

    let off = compile(
        &ast,
        GctdOptions {
            coalesce: false,
            ..GctdOptions::default()
        },
    )
    .unwrap();
    let got_off = PlannedVm::new(&off)
        .run()
        .unwrap_or_else(|e| panic!("no-gctd: {e}\n{src}"));
    assert_eq!(got_off, want, "no-GCTD VM diverged on:\n{src}");

    let mcc_ir = lower_for_mcc(&ast).unwrap();
    let got_mcc = MccVm::new(&mcc_ir)
        .run()
        .unwrap_or_else(|e| panic!("mcc: {e}\n{src}"));
    assert_eq!(got_mcc, want, "mcc VM diverged on:\n{src}");
}

/// The same generated program through the batch driver with a warm
/// cache: the hit must reproduce the miss byte-for-byte, its embedded
/// audit must be clean, and flipping an option flag must miss rather
/// than alias the cached entry. Random programs exercise cache-key
/// inputs (growth patterns, φ webs, complex promotion) no hand-written
/// unit ever would.
fn check_batch_cached(src: &str) {
    use matc::batch::{compile_unit, Unit};
    use matc::gctd::{ArtifactCache, CacheOutcome, GctdOptions};

    let unit = Unit::new("generated", vec![src.to_string()]);
    let cache = ArtifactCache::in_memory();
    let cold = compile_unit(&unit, GctdOptions::default(), Some(&cache));
    let warm = compile_unit(&unit, GctdOptions::default(), Some(&cache));
    assert_eq!(cold.metrics.cache, CacheOutcome::Miss, "{src}");
    assert_eq!(warm.metrics.cache, CacheOutcome::Hit, "{src}");
    let cold_art = cold.artifact.expect("generated programs compile");
    let warm_art = warm.artifact.unwrap();
    assert_eq!(
        cold_art.to_bytes(),
        warm_art.to_bytes(),
        "cache hit changed artifact bytes on:\n{src}"
    );
    assert_eq!(
        warm_art.audit_errors(),
        0,
        "cached plan fails its audit on:\n{src}\n{}",
        warm_art.audit_json
    );
    let off = compile_unit(
        &unit,
        GctdOptions {
            coalesce: false,
            ..GctdOptions::default()
        },
        Some(&cache),
    );
    assert_eq!(
        off.metrics.cache,
        CacheOutcome::Miss,
        "option flip aliased the cache on:\n{src}"
    );
}

/// The dense bitset worklist dataflow engine against the retained
/// naive three-sweep reference (`Dataflow::compute_reference`):
/// set-for-set identical liveness, availability and reachability on
/// every function of every generated CFG. This is the direct
/// differential witness for the PR-4 engine swap — the golden plan
/// snapshots prove end-to-end byte identity, this proves the dataflow
/// layer itself.
fn check_dataflow_reference(src: &str) {
    use matc::gctd::Dataflow;
    use matc::ir::BlockId;

    let ast = matc::frontend::parse_program([src]).unwrap();
    let mut ir = matc::ir::build_ssa(&ast).unwrap();
    matc::passes::optimize_program(&mut ir);
    for func in &ir.functions {
        let fast = Dataflow::compute(func);
        let naive = Dataflow::compute_reference(func);
        assert_eq!(fast.live_in, naive.live_in, "live_in diverged on:\n{src}");
        assert_eq!(
            fast.live_out, naive.live_out,
            "live_out diverged on:\n{src}"
        );
        assert_eq!(
            fast.avail_out, naive.avail_out,
            "avail_out diverged on:\n{src}"
        );
        assert_eq!(
            fast.def_site, naive.def_site,
            "def_site diverged on:\n{src}"
        );
        assert_eq!(
            fast.is_param, naive.is_param,
            "is_param diverged on:\n{src}"
        );
        for a in 0..func.blocks.len() {
            for b in 0..func.blocks.len() {
                assert_eq!(
                    fast.block_reaches(BlockId::new(a), BlockId::new(b)),
                    naive.block_reaches(BlockId::new(a), BlockId::new(b)),
                    "reachability {a}->{b} diverged on:\n{src}"
                );
            }
        }
    }
}

/// The auditor's dense worklist engine against its retained naive
/// reference (`AuditFlow::compute_reference`): identical block-level
/// facts, per-instruction live-after/avail-before snapshots, def sites,
/// params and reachability on every function of every generated CFG.
/// Same differential-witness shape as `check_dataflow_reference`, for
/// the PR-6 auditor engine swap.
fn check_auditflow_reference(src: &str) {
    use matc::analysis::AuditFlow;

    let ast = matc::frontend::parse_program([src]).unwrap();
    let mut ir = matc::ir::build_ssa(&ast).unwrap();
    matc::passes::optimize_program(&mut ir);
    for func in &ir.functions {
        let fast = AuditFlow::compute(func);
        let naive = AuditFlow::compute_reference(func);
        assert!(
            fast.facts_eq(&naive),
            "AuditFlow worklist facts diverged from reference on:\n{src}"
        );
    }
}

/// The degradation ladder's correctness claim, checked behaviorally:
/// a program forced down to the mcc-style all-heap fallback — by a
/// synthetic audit violation on every function, and separately by fuel
/// starvation — must produce *exactly* the reference interpreter's
/// output. The fallback is only an acceptable landing spot because it
/// is behaviorally identical to the coalesced GCTD plan.
fn check_forced_fallback(src: &str) {
    use matc::frontend::parse_program;
    use matc::gctd::{FaultPlan, GctdOptions, UnitMetrics};
    use matc::ir::Budget;
    use matc::vm::{compile_resilient, Interp, PlannedVm};

    let ast = parse_program([src]).unwrap();
    let want = Interp::new(&ast).run().unwrap();

    // Rung: injected audit violation on every function → per-function
    // re-lower to the all-heap plan.
    let mut m = UnitMetrics::new("fallback");
    let faults = FaultPlan::quiet(11).audit_violations(100);
    let (compiled, diags) = compile_resilient(
        &ast,
        GctdOptions::default(),
        &Budget::unlimited(),
        faults,
        &mut m,
    )
    .unwrap_or_else(|e| panic!("forced fallback failed: {e}\n{src}"));
    assert!(
        !m.degradations.is_empty(),
        "no degradation recorded on:\n{src}"
    );
    assert_eq!(
        diags.error_count(),
        0,
        "fallback plan fails its audit on:\n{src}\n{}",
        diags.render()
    );
    let mut vm = PlannedVm::new(&compiled);
    let got = vm
        .run()
        .unwrap_or_else(|e| panic!("fallback vm: {e}\n{src}"));
    assert_eq!(got, want, "mcc-fallback output diverged on:\n{src}");
    assert_eq!(vm.plan_violations, 0, "fallback plan violations on:\n{src}");

    // Rung: fuel starvation → unit-level conservative re-lower.
    let mut m2 = UnitMetrics::new("starved");
    let budget = Budget::new(None, Some(1));
    let (starved, d2) = compile_resilient(
        &ast,
        GctdOptions::default(),
        &budget,
        FaultPlan::quiet(0),
        &mut m2,
    )
    .unwrap_or_else(|e| panic!("fuel-starved compile failed: {e}\n{src}"));
    assert!(
        !m2.budget_exceeded.is_empty(),
        "fuel never tripped on:\n{src}"
    );
    assert_eq!(
        d2.error_count(),
        0,
        "starved plan fails its audit on:\n{src}"
    );
    let got2 = PlannedVm::new(&starved)
        .run()
        .unwrap_or_else(|e| panic!("starved vm: {e}\n{src}"));
    assert_eq!(got2, want, "fuel-starved output diverged on:\n{src}");
}

/// The shadow runtime's soundness claim on random programs: replaying
/// the probe log against the production plan must report zero
/// S101/S102/S104/S105 findings and zero violations, with outputs
/// matching the interpreter (no S100) — S103 precision warnings are
/// the only finding a sound plan may earn. Separately, the probe
/// toggle must be a pure observer: C emission with probes off is
/// byte-identical to the default emitter, and probes on only *adds*
/// `mrt_probe_*` calls.
fn check_shadow(src: &str) {
    use matc::codegen::{emit_program, emit_program_with, EmitOptions};
    use matc::gctd::GctdOptions;
    use matc::shadow::shadow_unit;
    use matc::vm::compile::compile;

    let unit = shadow_unit(
        "generated",
        &[src.to_string()],
        GctdOptions::default(),
        None,
    );
    assert!(
        unit.ok(),
        "shadow findings on:\n{src}\n{:?}\n{}",
        unit.error,
        unit.diags.render()
    );
    let r = unit.report.as_ref().unwrap();
    assert_eq!(r.plan_violations, 0, "violations on:\n{src}");
    assert_eq!(r.counts.s101, 0, "S101 on:\n{src}\n{}", unit.diags.render());
    assert_eq!(r.counts.s102, 0, "S102 on:\n{src}\n{}", unit.diags.render());
    assert_eq!(r.counts.s104, 0, "S104 on:\n{src}\n{}", unit.diags.render());
    assert_eq!(r.counts.s105, 0, "S105 on:\n{src}\n{}", unit.diags.render());
    assert!(!unit.output_diverged, "S100 on:\n{src}");

    let ast = matc::frontend::parse_program([src]).unwrap();
    let compiled = compile(&ast, GctdOptions::default()).unwrap();
    let plain = emit_program(&compiled);
    let off = emit_program_with(&compiled, EmitOptions::default());
    assert_eq!(
        plain, off,
        "probes-off emission not byte-identical on:\n{src}"
    );
    let on = emit_program_with(&compiled, EmitOptions { probes: true });
    assert!(
        on.contains("mrt_probe_def(") && on.contains("mrt_probe_report();"),
        "probes-on emission carries no probe calls on:\n{src}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_programs_execute_identically(
        stmts in proptest::collection::vec(stmt_strategy(), 1..20)
    ) {
        let src = render(&stmts);
        check_program(&src);
        check_dataflow_reference(&src);
        check_auditflow_reference(&src);
        check_batch_cached(&src);
        check_forced_fallback(&src);
        check_shadow(&src);
    }
}

#[test]
fn regression_store_then_transpose() {
    // A fixed scenario mixing growth, transpose and loops.
    let src = r#"function f()
v0 = rand(3, 3);
v1 = v0';
v1(4, 4) = sum(sum(v0)) / 9;
for t = 1:3
v1 = v1 + 1;
end
v2 = v1 .* v1;
fprintf('%.10f %.10f\n', sum(sum(v1)), sum(sum(v2)));
"#;
    check_program(src);
}

#[test]
fn regression_parallel_copy_rotation() {
    // The three-way rotation that exposed the φ parallel-copy
    // interference bug (fiff's u0/u1/u2 pattern).
    let src = r#"function f()
a = rand(3, 3);
b = rand(3, 3);
for t = 1:5
c = 2 * b - a;
a = b;
b = c;
end
fprintf('%.10f\n', sum(sum(b)) + sum(sum(a)));
"#;
    check_program(src);
}
