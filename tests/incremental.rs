//! The incremental path's two reuse layers, held to what they replace.
//!
//! * Structural fragment keys (`batch::fragment_key`, the canonical
//!   byte walks of a function's IR and inference facts) must tell
//!   functions apart exactly as the `Debug`-text keys they replaced did.
//! * The per-function front-half memo must give every compile of an
//!   edit sequence the bytes and counters of an uncached compile, and
//!   every IR it hands out must equal a fresh build.

use matc::batch::{bench_units, compile_unit, fragment_key, Unit, UnitOutcome};
use matc::benchsuite::{paper_scale_multi_sources, Preset, PAPER_SCALE_MULTI_LEAVES};
use matc::frontend::parse_program;
use matc::gctd::{
    options_fingerprint, ArtifactCache, CacheKey, CacheOutcome, FaultPlan, GctdOptions, UnitMetrics,
};
use matc::ir::{build_ssa, Budget, FuncId};
use matc::json::Json;
use matc::passes::{optimize_program, OptStats};
use matc::stats::unit_json;
use matc::vm::{compile_front, FrontFunc, FrontMemo};
use std::sync::Arc;

/// The fragment key as it was computed before the structural walks:
/// the `Debug` text of the optimized IR plus the rendered facts.
fn debug_text_key(fingerprint: &str, ir_text: &str, facts: &str) -> CacheKey {
    CacheKey::compute_parts("matc-frag-v1", [fingerprint, "probes=0", ir_text, facts])
}

#[test]
fn structural_keys_agree_with_debug_text_keys_on_every_pair() {
    let fingerprint = options_fingerprint(&GctdOptions::default());
    let mut units = bench_units(Preset::Test);
    units.extend(bench_units(Preset::Paper));
    for t in 0..=8 {
        units.push(Unit::new("psm", paper_scale_multi_sources(80, t)));
    }
    let mut keys: Vec<(String, CacheKey, CacheKey)> = Vec::new();
    let mut buf = Vec::new();
    for unit in &units {
        let ast = parse_program(unit.sources.iter().map(String::as_str)).unwrap();
        let mut rec = UnitMetrics::new(&unit.name);
        let front = compile_front(
            &ast,
            GctdOptions::default(),
            &Budget::unlimited(),
            &FaultPlan::quiet(0),
            &mut rec,
            None,
        )
        .unwrap();
        for (i, func) in front.ir.functions.iter().enumerate() {
            let fid = FuncId::new(i);
            let old = debug_text_key(
                &fingerprint,
                &format!("{func:?}"),
                &front.types.canonical_func_facts(fid),
            );
            let new = fragment_key(&fingerprint, &front, fid, &mut buf);
            keys.push((format!("{}/{}", unit.name, func.name), old, new));
        }
    }
    let mut equal_pairs = 0;
    for (i, (a, old_a, new_a)) in keys.iter().enumerate() {
        for (b, old_b, new_b) in &keys[i + 1..] {
            assert_eq!(
                old_a == old_b,
                new_a == new_b,
                "{a} vs {b}: the structural key must agree with the text key"
            );
            equal_pairs += usize::from(old_a == old_b);
        }
    }
    // Untouched paper_scale_multi functions repeat across tweaks, so
    // the agreement covers equal keys as well as distinct ones.
    assert!(equal_pairs >= 8 * 8, "only {equal_pairs} equal pairs");
}

/// `unit_json` without the members that measure time or name the
/// cache tier.
fn masked(m: &UnitMetrics) -> String {
    fn strip(j: Json) -> Json {
        match j {
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .filter(|(k, _)| {
                        !matches!(k.as_str(), "phases_micros" | "dataflow_micros" | "cache")
                    })
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            other => other,
        }
    }
    strip(unit_json(m)).render()
}

fn psm(sources: Vec<String>) -> Unit {
    Unit::new("paper_scale_multi", sources)
}

/// Compiles `unit` through `cache` and checks it against an uncached
/// compile and the memo against fresh builds; returns the memo entries.
fn step(cache: &ArtifactCache, unit: &Unit, what: &str) -> Vec<Arc<FrontFunc>> {
    let got: UnitOutcome = compile_unit(unit, GctdOptions::default(), Some(cache));
    let want = compile_unit(unit, GctdOptions::default(), None);
    assert!(got.metrics.ok(), "{what}: {:?}", got.metrics.error);
    assert_eq!(
        got.artifact.as_ref().map(|a| a.to_bytes()),
        want.artifact.as_ref().map(|a| a.to_bytes()),
        "{what}: the cached compile's artifact differs from an uncached one"
    );
    assert_eq!(
        masked(&got.metrics),
        masked(&want.metrics),
        "{what}: counters"
    );

    let memo = cache
        .front_memo::<FrontMemo>(&unit.name)
        .expect("a budget-free compile memoizes");
    if got.metrics.cache == CacheOutcome::Hit {
        // A unit hit returns before the front half: the memo is as the
        // last compile that ran it left it.
        return memo.funcs.clone();
    }
    let ast = parse_program(unit.sources.iter().map(String::as_str)).unwrap();
    let mut fresh = build_ssa(&ast).unwrap();
    let total = optimize_program(&mut fresh);
    assert_eq!(
        memo.funcs.len(),
        fresh.functions.len(),
        "{what}: one entry per function"
    );
    let mut sum = OptStats::default();
    for (entry, func) in memo.funcs.iter().zip(&fresh.functions) {
        assert!(
            entry.ir == *func,
            "{what}: memoized `{}` differs from a fresh build",
            func.name
        );
        sum += entry.opt;
    }
    assert_eq!(sum, total, "{what}: optimizer statistics");
    memo.funcs.clone()
}

/// How many entries of `now` are the very entries of `before`.
fn reused(before: &[Arc<FrontFunc>], now: &[Arc<FrontFunc>]) -> usize {
    before
        .iter()
        .zip(now)
        .filter(|(a, b)| Arc::ptr_eq(a, b))
        .count()
}

#[test]
fn memoized_front_halves_compile_like_uncached_ones() {
    const STAGES: usize = 24;
    let funcs = PAPER_SCALE_MULTI_LEAVES + 1;
    let cache = ArtifactCache::in_memory();
    let base = paper_scale_multi_sources(STAGES, 0);

    let cold = step(&cache, &psm(base.clone()), "cold");

    let leaf = step(
        &cache,
        &psm(paper_scale_multi_sources(STAGES, 1)),
        "leaf edit",
    );
    assert_eq!(
        reused(&cold, &leaf),
        funcs - 1,
        "only the edited leaf rebuilds"
    );
    assert!(!Arc::ptr_eq(&cold[1], &leaf[1]));

    // The driver's new `n` reaches every leaf through inference, so
    // their fragments miss, but their front halves are reused.
    let mut driver = base.clone();
    driver[0] = driver[0].replace("n = 8;", "n = 9;");
    let drv = step(&cache, &psm(driver), "driver edit");
    assert_eq!(
        reused(&leaf, &drv),
        funcs - 2,
        "the driver and leaf 0 rebuild"
    );

    // A new output changes the signature table: every function's
    // lowering (its callers' above all) is redone.
    let mut wider = base.clone();
    let leaf3 = &mut wider[4];
    assert!(leaf3.starts_with("function out = ps_leaf_3(n)"));
    *leaf3 = leaf3.replace(
        "function out = ps_leaf_3(n)",
        "function [out, extra] = ps_leaf_3(n)",
    );
    leaf3.push_str("extra = 2;\n");
    let sig = step(&cache, &psm(wider), "signature change");
    assert_eq!(
        reused(&drv, &sig),
        0,
        "a signature change invalidates the memo"
    );

    // The original sources are a whole-unit hit, which leaves the memo
    // alone.
    let revert = step(&cache, &psm(base), "revert");
    assert_eq!(reused(&sig, &revert), funcs);

    // The signature table changes back on the first edit, then each
    // edit rebuilds leaf 0 alone.
    let mut prev = revert;
    for t in 2..52 {
        let now = step(&cache, &psm(paper_scale_multi_sources(STAGES, t)), "edit");
        assert_eq!(now.len(), funcs, "at most one entry per source position");
        assert_eq!(reused(&prev, &now), if t == 2 { 0 } else { funcs - 1 });
        prev = now;
    }
}

/// The front half and key of every function of a one-file unit.
fn keys_of(src: &str) -> Vec<(String, CacheKey)> {
    let ast = parse_program([src]).unwrap();
    let mut rec = UnitMetrics::new("k");
    let front = compile_front(
        &ast,
        GctdOptions::default(),
        &Budget::unlimited(),
        &FaultPlan::quiet(0),
        &mut rec,
        None,
    )
    .unwrap();
    let fingerprint = options_fingerprint(&GctdOptions::default());
    let mut buf = Vec::new();
    (0..front.ir.functions.len())
        .map(|i| {
            let fid = FuncId::new(i);
            let name = front.ir.func(fid).name.clone();
            (name, fragment_key(&fingerprint, &front, fid, &mut buf))
        })
        .collect()
}

#[test]
fn fragment_keys_are_pinned() {
    // A changed key stream (or domain, `matc-frag-v5`) orphans every
    // persisted fragment: bump the domain on purpose, then re-pin.
    let keys = keys_of("function f()\ndisp(1);\n");
    assert_eq!(
        keys[0].1.hex(),
        "1b96e2477f385cfd3fef2ae3b3dcf3aa1827d42266cbb43efd12e92cbf9390d9"
    );
}

/// The body of `g` in a unit's emitted C.
fn body_of_g(c: &str) -> &str {
    let start = c.find("/* ---- function g ---- */").expect("g is emitted");
    &c[start..]
}

#[test]
fn typed_fragments_follow_the_facts_they_are_keyed_on() {
    // `g` lowers to the same IR in both units, but its argument is real
    // in one and complex in the other, so `x(i)` and `k` are typed
    // scalars only in the first. The facts are in the fragment key: the
    // second unit must not be served the first's typed body.
    let g = "function y = g(x)\nk = 0;\nfor i = 1:3\n  k = k + x(i);\nend\ny = k;\nend\n";
    let real = format!("function a()\ndisp(g([1 2 3]));\nend\n{g}");
    let complex = format!("function a()\ndisp(g([1i 2 3]));\nend\n{g}");
    let key_of_g = |src: &str| {
        keys_of(src)
            .into_iter()
            .find(|(n, _)| n == "g")
            .expect("g is keyed")
            .1
    };
    assert_ne!(key_of_g(&real), key_of_g(&complex));

    let cache = ArtifactCache::in_memory();
    let c_of = |src: &str, cache: Option<&ArtifactCache>| {
        let out = compile_unit(
            &Unit::new("u", vec![src.to_string()]),
            GctdOptions::default(),
            cache,
        );
        out.artifact.expect("compiles").c_code.clone()
    };
    let typed = c_of(&real, Some(&cache));
    assert!(body_of_g(&typed).contains("mrt_elem_get("), "{typed}");
    let served = c_of(&complex, Some(&cache));
    assert_eq!(
        served,
        c_of(&complex, None),
        "a cached fragment leaked across facts"
    );
    assert!(!body_of_g(&served).contains("mrt_elem_get("), "{served}");
    // And back: the real unit still gets its typed body.
    assert_eq!(c_of(&real, Some(&cache)), typed);
}
